"""The prefix-product chain kernel against the joint-by-joint walk.

``kinematics.joint_frames`` builds all local transforms at once and
multiplies them in ceil(log2 k) batched steps, and ``chain_frames``
applies the EE offset; ``chain_stepwise`` walks the joints one by one
with elementary rotations.  Frames, COM Jacobians, pose and dynamics
terms must agree to 1e-14 (the dynamics terms to 1e-14 of their own
scale when that exceeds 1: G reaches tens of N m).  The bias
``(qdot (x) qdot) W`` of ``dynamics.configuration_terms`` must match
the complex step of the walk's COM Jacobians along qdot, the Lagrangian
identity ``C qdot = Mdot qdot - grad_q (qdot' M qdot) / 2`` in central
differences, and the Christoffel Coriolis matrix of ``oracles``.
Besides the built-in robots, a user-built one with a prismatic arm
joint covers the slide term of the kernel, the prismatic Jacobian
column and the zero derivative along a slide, which no built-in arm
reaches.
"""
import numpy as np
import pytest

import chain_stepwise
import oracles
from mmtrack import dynamics as dyn
from mmtrack import kinematics as kin
from mmtrack.model import (JointLimits, JointSpec, RobotModel,
                           builtin_panda_on_base, builtin_planar_2link)

ATOL = 1e-14


def prismatic_arm():
    """The panda's virtual base plus a revolute-prismatic-revolute arm
    with tilted origins, a skew axis and a rotated EE offset."""
    base = builtin_panda_on_base()
    arm = [JointSpec("revolute", (0, 0, 1), (0, 0, 0.3), (0.2, -0.1, 0.3)),
           JointSpec("prismatic", (0, 1, 0), (0.1, 0, 0.2), (1.2, 0, 0)),
           JointSpec("revolute", (0.6, 0, 0.8), (0, 0.05, 0.1),
                     (0, 0.4, -0.7))]
    big = np.full(9, 9.0)
    return RobotModel(
        name="prismatic_arm", base_dof_count=6, arm_joint_count=3,
        joints=list(base.joints[:6]) + arm,
        ee_offset_xyz=(0.05, 0, 0.1), ee_offset_rpy=(0.1, 0.2, -0.3),
        link_masses=(2.0, 1.5, 0.5),
        link_com_offsets=((0, 0.02, 0.1), (0.03, 0.1, 0), (0.05, 0, 0.02)),
        rotor_inertia=(0.1, 0.2, 0.05), gravity=(0, 0, -9.81),
        limits=JointLimits(-big, big, -big, big, -big, big))


MODELS = [builtin_panda_on_base, builtin_planar_2link, prismatic_arm]


def random_q(model, rng, shape=()):
    q = rng.uniform(-2.5, 2.5, shape + (model.total_dof,))
    if model.base_dof_count:
        q[..., 4] = rng.uniform(-1.2, 1.2, shape)   # away from gimbal lock
    return q


def assert_close(actual, expected, atol=ATOL):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)


@pytest.mark.parametrize("make_model", MODELS)
@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["single", "batched"])
def test_chain_frames_match_stepwise_walk(make_model, complex_step, shape):
    m = make_model()
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = random_q(m, rng, shape)
        if complex_step:
            q = q + 1e-20j * rng.normal(size=q.shape)
        for new, ref in zip(kin.chain_frames(m, q),
                            chain_stepwise.chain_frames(m, q)):
            assert_close(new, ref)
        start = m.base_dof_count
        F = kin.joint_frames(m, q[..., start:], start)
        R, o, _, _ = chain_stepwise.chain_frames(m, q[..., start:], start)
        assert_close(F[..., :3, :3], R)
        assert_close(F[..., :3, 3], o)


@pytest.mark.parametrize("make_model", MODELS)
@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["single", "batched"])
def test_com_jacobians_match_stepwise_walk(make_model, complex_step, shape):
    m = make_model()
    rng = np.random.default_rng(22)
    for _ in range(20):
        q_m = random_q(m, rng, shape)[..., m.arm_slice]
        if complex_step:
            q_m = q_m + 1e-20j * rng.normal(size=q_m.shape)
        assert_close(dyn._skews_and_columns(m, q_m)[1].swapaxes(-1, -3),
                     chain_stepwise.com_jacobians(m, q_m))


def christoffel_bias(terms, qd):
    """(qdot (x) qdot) W of every configuration of ``terms``."""
    return np.stack([terms.at(b, v).bias for b, v in enumerate(qd)])


@pytest.mark.parametrize("make_model", MODELS)
@pytest.mark.parametrize("batch", [1, 4], ids=["single", "batched"])
def test_christoffel_bias_matches_complex_step_and_differences(make_model,
                                                               batch):
    # The bias is sum_i m_i Jc_i' (Jcdot_i qdot), Jcdot the complex step
    # of the joint-by-joint walk at q + i h qdot; and by the Lagrangian,
    # Mdot qdot - grad_q (qdot' M qdot) / 2, in central differences of
    # the pass's own M.  The other rows of the pass are the walk's.
    m = make_model()
    n = m.arm_joint_count
    rng = np.random.default_rng(26)
    h = 1e-6
    for _ in range(20):
        q = random_q(m, rng, (batch,))[:, m.arm_slice]
        qd = rng.uniform(-2, 2, q.shape)
        a_b = rng.normal(size=3)
        gravity = kin.rotation_rpy(rng.uniform(-0.3, 0.3, 3)).T @ m.gravity
        terms = dyn.configuration_terms(m, q, gravity, a_b)
        bias = christoffel_bias(terms, qd)
        for b in range(batch):
            M, cs, G, tau_b = chain_stepwise.dynamics_terms(
                m, q[b], qd[b], gravity=gravity, a_b=a_b)
            scale = max(1.0, np.max(np.abs(cs)))
            assert_close(bias[b], cs, atol=1e-12 * scale)
            for new, expected in ((terms.M[b], M), (terms.G[b], G),
                                  (terms.tau_b[b], tau_b)):
                assert_close(new, expected,
                             atol=ATOL * max(1.0, np.max(np.abs(expected))))

            def inertia(x):
                return dyn.configuration_terms(m, x[None]).M[0]
            Mdot = (inertia(q[b] + h * qd[b])
                    - inertia(q[b] - h * qd[b])) / (2 * h)
            grad = [qd[b] @ (inertia(q[b] + h * e) - inertia(q[b] - h * e))
                    @ qd[b] / (2 * h) for e in np.eye(n)]
            np.testing.assert_allclose(bias[b], Mdot @ qd[b]
                                       - 0.5 * np.array(grad),
                                       rtol=0, atol=1e-6 * scale)


@pytest.mark.parametrize("make_model", MODELS)
def test_christoffel_bias_matches_the_coriolis_oracle(make_model):
    # C(q, qdot) from the complex-step dM/dq of the walk, by the
    # Christoffel symbols, times qdot.
    m = make_model()
    rng = np.random.default_rng(27)
    for _ in range(20):
        q = random_q(m, rng, (3,))[:, m.arm_slice]
        qd = rng.uniform(-2, 2, q.shape)
        bias = christoffel_bias(dyn.configuration_terms(m, q), qd)
        for b in range(len(q)):
            expected = oracles.coriolis_matrix(m, q[b], qd[b]) @ qd[b]
            assert_close(bias[b], expected,
                         atol=1e-12 * max(1.0, np.max(np.abs(expected))))


@pytest.mark.parametrize("make_model", MODELS)
def test_batched_pass_rows_are_single_passes(make_model):
    # The loop's two-configuration passes and a one-configuration pass
    # are one kernel: row b of a batch is the pass of configuration b
    # alone, bit for bit.
    m = make_model()
    rng = np.random.default_rng(28)
    q = random_q(m, rng, (5,))[:, m.arm_slice]
    a_b = rng.normal(size=3)
    batch = dyn.configuration_terms(m, q, a_b=a_b)
    for b in range(len(q)):
        single = dyn.configuration_terms(m, q[b:b + 1], a_b=a_b)
        for name in batch._fields:
            assert np.array_equal(getattr(batch, name)[b],
                                  getattr(single, name)[0]), name


def test_configuration_terms_reject_a_wrong_shape():
    m = builtin_planar_2link()
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match=r"shape \(B, 2\)"):
            dyn.configuration_terms(m, bad)


@pytest.mark.parametrize("make_model", MODELS)
def test_forward_kinematics_and_dynamics_terms_match_stepwise_walk(make_model):
    m = make_model()
    n = m.arm_joint_count
    rng = np.random.default_rng(23)
    for _ in range(50):
        q = random_q(m, rng)
        pose = kin.forward_kinematics(m, q)
        ref = chain_stepwise.forward_kinematics(m, q)
        assert_close(pose.position, ref.position)
        assert_close(pose.orientation, ref.orientation)

        qd = rng.uniform(-2, 2, n)
        a_b = rng.normal(size=3)
        tilt = kin.rotation_rpy(rng.uniform(-0.3, 0.3, 3))
        gravity = tilt.T @ m.gravity
        terms = dyn.configuration_terms(m, [q[m.arm_slice]], gravity,
                                        a_b).at(0, qd)
        for new, expected in zip((terms.M, terms.bias, terms.G, terms.tau_b),
                                 chain_stepwise.dynamics_terms(
                                     m, q[m.arm_slice], qd, gravity=gravity,
                                     a_b=a_b)):
            assert_close(new, expected,
                         atol=ATOL * max(1.0, np.max(np.abs(expected))))


def test_rotation_rpy_matches_elementary_product():
    rng = np.random.default_rng(24)
    for _ in range(200):
        rpy = rng.uniform(-np.pi, np.pi, 3)
        assert_close(kin.rotation_rpy(rpy), chain_stepwise.rotation_rpy(rpy),
                     atol=1e-15)
