from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import inertia_matrices
from mmtrack import dynamics as dyn
from mmtrack import kinematics as kin
from mmtrack.model import (JointLimits, JointSpec, RobotModel,
                           builtin_panda_on_base, builtin_planar_2link)

G_ACC = 9.81


def two_link_oracle(q, qd, l1=0.5, lc1=0.25, lc2=0.25, m1=1.0, m2=1.0):
    """Closed-form Lagrangian terms of the planar 2-link arm."""
    c2, s2 = np.cos(q[1]), np.sin(q[1])
    M = np.array([
        [m1 * lc1 ** 2 + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * c2),
         m2 * (lc2 ** 2 + l1 * lc2 * c2)],
        [m2 * (lc2 ** 2 + l1 * lc2 * c2), m2 * lc2 ** 2],
    ])
    h = m2 * l1 * lc2 * s2
    C = np.array([[-h * qd[1], -h * (qd[0] + qd[1])], [h * qd[0], 0.0]])
    c1, c12 = np.cos(q[0]), np.cos(q[0] + q[1])
    G = np.array([(m1 * lc1 + m2 * l1) * G_ACC * c1 + m2 * lc2 * G_ACC * c12,
                  m2 * lc2 * G_ACC * c12])
    return M, C, G


def pendulum_model(mass=2.0, lc=0.4):
    return RobotModel(
        name="pendulum", base_dof_count=0, arm_joint_count=1,
        joints=[JointSpec("revolute", (0, 0, 1), (0, 0, 0), (0, 0, 0))],
        ee_offset_xyz=(1.0, 0, 0), ee_offset_rpy=(0, 0, 0),
        link_masses=(mass,), link_com_offsets=((lc, 0, 0),),
        rotor_inertia=(0.0,), gravity=(0, -G_ACC, 0),
        limits=JointLimits([-9], [9], [-9], [9], [-9], [9]),
        task_rows=(0, 1))


def test_two_link_matches_analytic_oracle():
    m = builtin_planar_2link()
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3, 3, 2)
        t = dyn.configuration_terms(m, [q]).at(0, qd)
        Mo, Co, Go = two_link_oracle(q, qd)
        np.testing.assert_allclose(t.M, Mo, atol=1e-10)
        np.testing.assert_allclose(oracles.coriolis_matrix(m, q, qd), Co,
                                   atol=1e-10)
        np.testing.assert_allclose(t.bias, Co @ qd, atol=1e-10)
        np.testing.assert_allclose(t.G, Go, atol=1e-10)


def test_inertia_symmetric_positive_definite():
    m = builtin_panda_on_base()
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, 7)
        M = dyn.configuration_terms(m, [q]).M[0]
        np.testing.assert_allclose(M, M.T, atol=1e-12)
        assert np.linalg.eigvalsh(M).min() > 0


def test_skew_symmetry_of_mdot_minus_2c():
    m = builtin_panda_on_base()
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, 7)
        qd = rng.uniform(-2, 2, 7)
        C = oracles.coriolis_matrix(m, q, qd)
        Mdot = np.einsum("kij,k->ij", oracles.inertia_gradient(m, q), qd)
        assert abs(qd @ (Mdot - 2 * C) @ qd) < 1e-10


@pytest.mark.parametrize("builtin", [builtin_panda_on_base,
                                     builtin_planar_2link])
def test_bias_equals_coriolis_matrix_times_velocity(builtin):
    m = builtin()
    n = m.arm_joint_count
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(-1.5, 1.5, n)
        qd = rng.uniform(-2, 2, n)
        bias = dyn.configuration_terms(m, [q]).at(0, qd).bias
        np.testing.assert_allclose(
            bias, oracles.coriolis_matrix(m, q, qd) @ qd, rtol=0, atol=1e-12)


def test_coriolis_vanishes_at_zero_velocity():
    m = builtin_panda_on_base()
    q = np.full(7, 0.4)
    np.testing.assert_allclose(oracles.coriolis_matrix(m, q, np.zeros(7)),
                               0.0, atol=1e-15)
    assert np.all(dyn.configuration_terms(m, [q]).at(0, np.zeros(7)).bias == 0)


def test_gravity_zero_when_model_gravity_zero():
    m = replace(builtin_planar_2link(), gravity=(0.0, 0.0, 0.0))
    t = dyn.configuration_terms(m, [[0.3, -0.7]]).at(0, np.array([0.1, 0.2]))
    np.testing.assert_allclose(t.G, 0.0, atol=1e-15)


def test_inertia_gradient_matches_finite_differences():
    m = builtin_planar_2link()
    q = np.array([0.4, -1.1])
    dM = oracles.inertia_gradient(m, q)
    eps = 1e-6
    for k in range(2):
        qp, qm = q.copy(), q.copy()
        qp[k] += eps
        qm[k] -= eps
        fd = (dyn.configuration_terms(m, [qp]).M[0]
              - dyn.configuration_terms(m, [qm]).M[0]) / (2 * eps)
        np.testing.assert_allclose(dM[k], fd, atol=1e-8)


def test_com_jacobians_vs_finite_differences():
    m = builtin_panda_on_base()
    offsets = m.link_com_offsets

    def coms(q):
        F = kin.joint_frames(m, q, m.base_dof_count)
        return np.einsum("ixy,iy->ix", F[:, :3, :3], offsets) + F[:, :3, 3]

    rng = np.random.default_rng(8)
    eps = 1e-6
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 7)
        # [joint k, axis, link i], as the kernel lays its columns out
        fd = np.stack([(coms(q + eps * e) - coms(q - eps * e)).T / (2 * eps)
                       for e in np.eye(7)])
        np.testing.assert_allclose(dyn._skews_and_columns(m, q)[1], fd,
                                   atol=1e-8)


def base_torque(m, q, a_b):
    return dyn.configuration_terms(m, [q], a_b=a_b).tau_b[0]


def test_base_torque_zero_and_linear():
    m = builtin_panda_on_base()
    q = np.array([0, -0.78, 0, -2.35, 0, 1.57, 0.78])
    assert np.all(base_torque(m, q, np.zeros(3)) == 0)
    assert np.all(dyn.configuration_terms(m, [q]).tau_b == 0)
    a = np.array([0.3, -0.1, 0.7])
    t1 = base_torque(m, q, a)
    t2 = base_torque(m, q, 2 * a)
    np.testing.assert_allclose(t2, 2 * t1, atol=1e-14)
    for bad in ([1.0, 2.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="3-vector"):
            base_torque(m, q, bad)


def test_base_torque_pendulum_first_principles():
    # z-axis joint, COM at lc along x: com = lc (cos q, sin q, 0), so the
    # virtual-work sum for a_b = (a, 0, 0) is -m a lc sin q.
    mdl = pendulum_model()
    for q in (0.3, -1.1, 2.0):
        tb = base_torque(mdl, [q], [1.7, 0, 0])
        assert tb[0] == pytest.approx(-2.0 * 1.7 * 0.4 * np.sin(q), abs=1e-12)


def test_forward_dynamics_consistency():
    # tau computed from the equation of motion must reproduce qddot.
    m = builtin_planar_2link()
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, 2)
    qd = rng.uniform(-1, 1, 2)
    qdd = rng.uniform(-1, 1, 2)
    t = dyn.configuration_terms(m, [q]).at(0, qd)
    tau = t.M @ qdd + t.bias + t.G
    np.testing.assert_allclose(dyn.forward_dynamics(t, tau), qdd, atol=1e-12)


def test_forward_dynamics_energy_conservation():
    # Unforced pendulum: total energy constant under fine RK4.
    mdl = pendulum_model()
    q, qd = np.array([1.0]), np.array([0.0])
    dt = 1e-4

    def energy(q, qd):
        T = 0.5 * 2.0 * (0.4 * qd[0]) ** 2
        V = 2.0 * G_ACC * 0.4 * np.sin(q[0])
        return T + V

    def accel(q, qd):
        terms = dyn.configuration_terms(mdl, [q]).at(0, qd)
        return dyn.forward_dynamics(terms, [0.0])

    e0 = energy(q, qd)
    for _ in range(2000):
        k1 = accel(q, qd)
        k2 = accel(q + dt / 2 * qd, qd + dt / 2 * k1)
        k3 = accel(q + dt / 2 * (qd + dt / 2 * k1), qd + dt / 2 * k2)
        k4 = accel(q + dt * (qd + dt / 2 * k2), qd + dt * k3)
        q = q + dt / 6 * (qd + 2 * (qd + dt / 2 * k1) + 2 * (qd + dt / 2 * k2)
                          + (qd + dt * k3))
        qd = qd + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(energy(q, qd) - e0) < 1e-6


@pytest.mark.parametrize("case", ["rank_deficient", "cond_1e13"])
def test_forward_dynamics_rejects_singular_inertia(case):
    n = 7
    M = inertia_matrices(n)[case]
    zero = np.zeros(n)
    terms = dyn.DynamicsTerms(M=M, bias=zero, G=zero, tau_b=zero)
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        dyn.forward_dynamics(terms, np.ones(n))


def test_forward_dynamics_solves_well_conditioned_inertia():
    n = 7
    rng = np.random.default_rng(32)
    M = inertia_matrices(n)["well_conditioned"]
    tau, bias, G = rng.normal(size=(3, n))
    terms = dyn.DynamicsTerms(M=M, bias=bias, G=G, tau_b=np.zeros(n))
    np.testing.assert_allclose(
        dyn.forward_dynamics(terms, tau),
        np.linalg.solve(M, tau - bias - G), rtol=0, atol=1e-12)
