import warnings

import numpy as np
import pytest

import chain_stepwise as cs
import oracles
from mmtrack import kinematics as kin, pomptc
from mmtrack.model import builtin_panda_on_base, builtin_planar_2link


def fd_jacobian(model, q, eps=1e-6):
    """Central finite differences of the pose map (the Jacobian oracle)."""
    J = np.zeros((6, model.total_dof))
    for k in range(model.total_dof):
        qp, qm = q.copy(), q.copy()
        qp[k] += eps
        qm[k] -= eps
        d = kin.forward_kinematics(model, qp).as_vector() \
            - kin.forward_kinematics(model, qm).as_vector()
        d[3:] = kin.wrap_angle(d[3:])
        J[:, k] = d / (2 * eps)
    return J


def test_wrap_angle_range():
    a = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -7.5])
    w = kin.wrap_angle(a)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    np.testing.assert_allclose(np.cos(w), np.cos(a), atol=1e-12)
    np.testing.assert_allclose(np.sin(w), np.sin(a), atol=1e-12)
    assert kin.wrap_angle(np.pi) == np.pi
    assert kin.wrap_angle(-np.pi) == np.pi


def test_euler_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        yaw, roll = rng.uniform(-np.pi, np.pi, 2)
        pitch = rng.uniform(-1.4, 1.4)
        R = kin.rotation_rpy((roll, pitch, yaw))
        out = kin.euler_zyx(R)
        np.testing.assert_allclose(out, [yaw, pitch, roll], atol=1e-12)


def test_rotation_axis_matches_elementary():
    a = 0.7
    np.testing.assert_allclose(cs.rotation_axis((0, 0, 1), a), cs.rot_z(a),
                               atol=1e-15)
    np.testing.assert_allclose(cs.rotation_axis((0, 1, 0), a), cs.rot_y(a),
                               atol=1e-15)
    np.testing.assert_allclose(cs.rotation_axis((1, 0, 0), a), cs.rot_x(a),
                               atol=1e-15)


def test_fk_matches_transform_product_2link():
    # Closed form for the planar arm: x = l1 c1 + l2 c12, y = l1 s1 + l2 s12.
    m = builtin_planar_2link()
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        pose = kin.forward_kinematics(m, q)
        x = 0.5 * np.cos(q[0]) + 0.5 * np.cos(q[0] + q[1])
        y = 0.5 * np.sin(q[0]) + 0.5 * np.sin(q[0] + q[1])
        np.testing.assert_allclose(pose.position, [x, y, 0.0], atol=1e-12)
        np.testing.assert_allclose(pose.orientation[0],
                                   kin.wrap_angle(q[0] + q[1]), atol=1e-12)


def test_base_joints_reproduce_base_pose():
    m = builtin_panda_on_base()
    qb = np.array([0.3, -0.2, 0.1, 0.4, -0.3, 0.2])
    q = np.concatenate([qb, np.zeros(7)])
    rotations, origins, _, _ = kin.chain_frames(m, q)
    np.testing.assert_allclose(origins[5], qb[:3], atol=1e-14)
    np.testing.assert_allclose(kin.euler_zyx(rotations[5]), qb[3:], atol=1e-12)


@pytest.mark.parametrize("builtin", [builtin_panda_on_base, builtin_planar_2link])
@pytest.mark.parametrize("complex_step", [False, True])
def test_batched_chain_frames_equal_stacked_calls(builtin, complex_step):
    # Same operations per configuration: only the BLAS path may differ.
    m = builtin()
    rng = np.random.default_rng(13)
    for start in (0, m.base_dof_count):
        shape = (2, 3, m.total_dof - start)
        Q = rng.uniform(-2, 2, shape)
        if complex_step:
            Q = Q + 1e-20j * rng.normal(size=shape)
        batched = kin.joint_frames(m, Q, start)
        for idx in np.ndindex(shape[:-1]):
            single = kin.joint_frames(m, Q[idx], start)
            assert batched[idx].dtype == single.dtype == Q.dtype
            np.testing.assert_allclose(batched[idx], single, rtol=0,
                                       atol=1e-14)


def test_euler_rate_matrix_solvable_at_gimbal_lock():
    # euler_zyx returns pitch = arcsin(clip(.)), whose cosine is about
    # 6e-17, never 0: the Jacobian's solve meets no exactly singular E.
    for pitch in (np.arcsin(1.0), np.arcsin(-1.0)):
        for yaw in np.linspace(-np.pi, np.pi, 4001):
            np.linalg.solve(kin.euler_rate_matrix(yaw, pitch), np.eye(3))


def test_jacobian_vs_finite_differences():
    m = builtin_panda_on_base()
    q0 = np.concatenate([np.zeros(6), [0, -0.78, 0, -2.35, 0, 1.57, 0.78]])
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = q0 + rng.uniform(-0.3, 0.3, 13)
        J = kin.linearization(m, q)[1]
        Jfd = fd_jacobian(m, q)
        scale = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(J - Jfd)) / scale < 1e-6


def test_jacobian_length_check():
    m = builtin_planar_2link()
    with pytest.raises(ValueError):
        kin.linearization(m, np.zeros(3))


def test_representation_singular_flags():
    m2 = builtin_planar_2link()
    flag, det = oracles.is_representation_singular(m2, [0.0, 0.0])
    assert flag and det == pytest.approx(0.0, abs=1e-12)
    flag, det = oracles.is_representation_singular(m2, [0.0, np.pi / 2])
    assert not flag and det > 1e-3

    m = builtin_panda_on_base()
    q = np.concatenate([np.zeros(6), [0, -0.78, 0, -2.35, 0, 1.57, 0.78]])
    assert not oracles.is_representation_singular(m, q)[0]
    # The arm's zero configuration is singular in the arm columns, which
    # the QP plans, however far the base columns keep the full chain's.
    flag, det = oracles.is_representation_singular(m, np.zeros(13))
    assert flag and abs(det) <= 1e-12
    # The base's own gimbal lock costs the arm columns no rank.
    q_pitch = q.copy()
    q_pitch[4] = np.pi / 2
    flag, det = oracles.is_representation_singular(m, q_pitch)
    assert not flag and det > 1e-3


def test_prediction_matrix_values():
    # pomptc.horizon_blocks is the one home of U and I1.
    U = pomptc.horizon_blocks(0.1, 4, 2, 1)[0]
    expect = 0.1 * np.array([[1, 0], [2, 1], [3, 2], [4, 3]])
    np.testing.assert_allclose(U, expect)
    I1 = pomptc.horizon_blocks(0.1, 3, 3, 1)[1]
    np.testing.assert_array_equal(I1, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])


def test_predict_trajectory_matches_recursion():
    # The oracle's step-by-step rollout of the increment recursion equals
    # its closed form through the assembly's U and I1.
    rng = np.random.default_rng(5)
    m, Nu, N, t = 3, 4, 6, 0.05
    q = rng.normal(size=m)
    qdp = rng.normal(size=m)
    delta = rng.normal(size=(Nu, m))
    q_traj, qdot_traj = oracles.predict_joint_trajectory(q, qdp, delta, t, N)

    U, I1 = pomptc.horizon_blocks(t, N, Nu, m)[:2]
    np.testing.assert_allclose(qdot_traj, qdp + I1 @ delta, atol=1e-13)
    np.testing.assert_allclose(
        q_traj, q + np.arange(1, N + 1)[:, None] * t * qdp + U @ delta,
        atol=1e-13)


def test_predict_trajectory_rejects_bad_horizon():
    with pytest.raises(ValueError):
        oracles.predict_joint_trajectory(np.zeros(2), np.zeros(2),
                                     np.zeros((3, 2)), 0.1, 2)
    with pytest.raises(ValueError):
        oracles.predict_joint_trajectory(np.zeros(2), np.zeros(2),
                                     np.zeros((2, 2)), -0.1, 3)


def test_pose_error_shortest_arc():
    a = kin.Pose([0, 0, 0], [3.1, 0, 0])
    b = kin.Pose([0, 0, 0], [-3.1, 0, 0])
    err = kin.pose_error(a, b)
    assert abs(err[3]) < 0.1  # wraps through pi, not 6.2 rad


def test_pose_vector_round_trip():
    v = np.array([0.1, -0.2, 0.3, 0.5, -0.4, 2.9])
    np.testing.assert_allclose(kin.Pose.from_vector(v).as_vector(), v,
                               atol=1e-15)


def hand_rotations():
    """Rotations that reach every branch of euler_zyx and rotation_vector:
    generic ones, the gimbal lock (pitch = +-pi/2 exactly), the identity
    (angle 0), and angles at and just below pi."""
    rng = np.random.default_rng(5)
    generic = kin.rotation_rpy(rng.uniform(-np.pi, np.pi, (20, 3)))
    gimbal = [np.array([[0.0, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, 0.0]])
              @ kin.rotation_rpy([r, 0.0, 0.0])
              for s in (1.0, -1.0) for r in (0.0, 0.4)]
    near_pi = [kin.rotation_rpy([0.0, 0.0, np.pi - 1e-8]),
               kin.rotation_rpy([np.pi - 3e-7, 0.0, 0.0]),
               np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    return np.concatenate([generic, gimbal, near_pi, [np.eye(3)]])


def test_rotation_helpers_accept_a_batch_axis():
    R = hand_rotations()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        euler, rotvec = kin.euler_zyx(R), kin.rotation_vector(R)
        rpy = kin.wrap_angle(euler[:, ::-1])
        rebuilt = kin.rotation_rpy(rpy)
        grid = kin.rotation_rpy(rpy[:28].reshape(4, 7, 3))
    for k, Rk in enumerate(R):
        np.testing.assert_array_equal(euler[k], kin.euler_zyx(Rk))
        np.testing.assert_allclose(rotvec[k], kin.rotation_vector(Rk),
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(rebuilt[k], kin.rotation_rpy(rpy[k]))
    np.testing.assert_array_equal(grid.reshape(28, 3, 3), rebuilt[:28])
    # Gimbal rows keep roll = 0; every row rebuilds its rotation.
    assert np.all(euler[20:24, 2] == 0.0)
    np.testing.assert_allclose(rebuilt, R, rtol=0, atol=1e-12)


def test_rotation_vector_angle_and_axis():
    for axis in np.eye(3):
        for angle in (0.0, 0.3, -2.0, np.pi - 1e-8):
            R = kin.rotation_rpy(axis * angle)    # [roll, pitch, yaw]
            np.testing.assert_allclose(kin.rotation_vector(R), axis * angle,
                                       rtol=0, atol=1e-7)
        # At pi the sign of the axis is arbitrary.
        R = kin.rotation_rpy(axis * np.pi)
        np.testing.assert_allclose(np.abs(kin.rotation_vector(R)),
                                   axis * np.pi, rtol=0, atol=1e-7)
