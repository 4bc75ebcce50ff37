import numpy as np
import pytest

import oracles
from mmtrack import kinematics as kin
from mmtrack import pomptc
from mmtrack.model import builtin_panda_on_base, builtin_planar_2link

Q0 = np.concatenate([np.zeros(6), [0, -0.78, 0, -2.35, 0, 1.57, 0.78]])


def make_weights(model, pose=100.0, vel=1.0, acc=5.0):
    mp = model.mpc_dof
    return pomptc.PomptcWeights(pose=pose * np.eye(6),
                                velocity=vel * np.eye(mp),
                                accel=acc * np.eye(mp))


def dense_weights(model, rng):
    # Dense random SPD weights: a transposed or misordered Kronecker
    # factor changes the cost, where it would not for scaled identities.
    def spd(n, scale):
        A = rng.normal(size=(n, n))
        W = A @ A.T + n * np.eye(n)
        return scale * 0.5 * (W + W.T)
    mp = model.mpc_dof
    return pomptc.PomptcWeights(pose=spd(6, float(rng.uniform(10, 1000))),
                                velocity=spd(mp, 1.0), accel=spd(mp, 5.0))


def random_state(model, rng, scale=0.1):
    """(q, qdot_prev) near the nominal configuration."""
    q = Q0 + rng.uniform(-scale, scale, model.total_dof) \
        if model.total_dof == 13 else rng.uniform(-1, 1, model.total_dof)
    qdp = rng.uniform(-0.2, 0.2, model.total_dof)
    qdp[~model.actuated_by_mpc] = 0.0
    return q, qdp


def random_refs(model, q, rng, N):
    """(N, 6) reference poses within 2 cm / 0.02 rad of the pose at q."""
    pose = kin.forward_kinematics(model, q).as_vector()
    return pose + rng.uniform(-0.02, 0.02, (N, 6))


def test_weights_validation():
    with pytest.raises(ValueError, match="symmetric"):
        pomptc.PomptcWeights(pose=np.triu(np.ones((6, 6))),
                             velocity=np.eye(2), accel=np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        pomptc.PomptcWeights(pose=np.eye(6), velocity=np.eye(2),
                             accel=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="square"):
        pomptc.PomptcWeights(pose=np.ones((6, 5)), velocity=np.eye(2),
                             accel=np.eye(2))


def test_qp_dimensions():
    model = builtin_panda_on_base()
    refs = np.tile(kin.forward_kinematics(model, Q0).as_vector(), (5, 1))
    p = pomptc.assemble_qp(model, Q0, np.zeros(13), refs, make_weights(model),
                           0.01, 5, 5)
    assert p.n_variables == 35
    assert p.n_constraints == (2 * 5 + 4 * 5) * 7
    assert p.S.shape == (35, 35)
    assert np.allclose(p.S, p.S.T)
    assert np.linalg.eigvalsh(p.S).min() > 0


def test_cost_form_matches_direct_evaluation():
    # The assembled quadratic and the literal horizon sums must agree up
    # to a z-independent constant, for scaled-identity and dense weights.
    rng = np.random.default_rng(21)
    for model in (builtin_panda_on_base(), builtin_planar_2link()):
        for k in range(40):
            N = int(rng.integers(1, 5))
            Nu = int(rng.integers(1, N + 1))
            t = float(rng.uniform(0.005, 0.05))
            q, qdp = random_state(model, rng)
            refs = random_refs(model, q, rng, N)
            w = make_weights(model, pose=float(rng.uniform(10, 1000))) \
                if k < 20 else dense_weights(model, rng)
            args = (model, q, qdp, refs, w, t, N, Nu)
            prob = pomptc.assemble_qp(*args)
            z0 = np.zeros(prob.n_variables)
            off = oracles.direct_cost(*args, z0)
            for _ in range(5):
                z = rng.normal(scale=0.1, size=prob.n_variables)
                lhs = prob.objective(z) - prob.objective(z0)
                rhs = oracles.direct_cost(*args, z) - off
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_pose_weight_outside_task_rows_is_ignored():
    # planar_2link's task rows are x and y: the pose weight's other rows
    # and columns must not reach the QP or the direct cost.
    model = builtin_planar_2link()
    rng = np.random.default_rng(22)
    q, qdp = random_state(model, rng)
    refs = random_refs(model, q, rng, 4)
    w = dense_weights(model, rng)
    other = np.diag(rng.uniform(1e3, 1e4, 6))
    other[:2, :2] = w.pose[:2, :2]
    w_other = pomptc.PomptcWeights(other, w.velocity, w.accel)
    a, b = (pomptc.assemble_qp(model, q, qdp, refs, ww, 0.01, 4, 3)
            for ww in (w, w_other))
    for name in ("S", "G", "H", "w"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    z = rng.normal(size=a.n_variables)
    assert oracles.direct_cost(model, q, qdp, refs, w, 0.01, 4, 3, z) \
        == oracles.direct_cost(model, q, qdp, refs, w_other, 0.01, 4, 3, z)


def test_assembly_walks_the_chain_once(monkeypatch):
    model = builtin_panda_on_base()
    rng = np.random.default_rng(5)
    q, qdp = random_state(model, rng)
    refs = random_refs(model, q, rng, 5)
    calls = []
    chain_frames = kin.chain_frames

    def counting(*args, **kwargs):
        calls.append(1)
        return chain_frames(*args, **kwargs)
    monkeypatch.setattr(kin, "chain_frames", counting)
    pomptc.assemble_qp(model, q, qdp, refs, dense_weights(model, rng),
                       0.01, 5, 5)
    assert len(calls) == 1


@pytest.mark.parametrize("builtin", [builtin_panda_on_base,
                                     builtin_planar_2link])
@pytest.mark.parametrize("N, Nu", [(3, 3), (5, 2), (4, 1)])
def test_constraints_sound_and_complete(builtin, N, Nu):
    # Each of the six row blocks of Hz <= w (angle, velocity and
    # acceleration, upper and lower) is violated exactly when the rolled
    # out trajectory leaves that side of its box.  Each case draws the
    # MPC joints' angles and velocities anywhere within their limits and
    # increments from a tenth of the acceleration limit to 30 times it, so
    # that every block is met both ways.
    model = builtin()
    rng = np.random.default_rng(33)
    lim = model.limits
    mask = model.actuated_by_mpc
    t = 0.01
    sizes = np.array([N, N, Nu, Nu, Nu, Nu]) * model.mpc_dof
    seen = [set() for _ in sizes]
    for _ in range(200):
        q, qdp = random_state(model, rng)
        q[mask] = rng.uniform(lim.q_lower[mask], lim.q_upper[mask])
        qdp[mask] = rng.uniform(lim.qdot_lower[mask], lim.qdot_upper[mask])
        prob = pomptc.assemble_qp(model, q, qdp,
                                  random_refs(model, q, rng, N),
                                  make_weights(model), t, N, Nu)
        delta = rng.normal(size=(Nu, model.mpc_dof)) * t \
            * lim.qddot_upper[mask] * 10 ** rng.uniform(-1, 1.5)
        q_traj, qd_traj = oracles.predict_joint_trajectory(
            q[mask], qdp[mask], delta, t, N)
        acc = delta / t
        outside = [q_traj - lim.q_upper[mask], lim.q_lower[mask] - q_traj,
                   qd_traj - lim.qdot_upper[mask],
                   lim.qdot_lower[mask] - qd_traj,
                   acc - lim.qddot_upper[mask], lim.qddot_lower[mask] - acc]
        rows = np.split(prob.H @ delta.ravel() - prob.w,
                        np.cumsum(sizes)[:-1])
        for k in range(6):
            violated = rows[k].max() > 1e-9
            assert violated == (outside[k].max() > 1e-9), k
            seen[k].add(violated)
    assert all(s == {True, False} for s in seen), seen


def test_translation_invariance():
    # Shifting the base x position and the references by the same offset
    # leaves the QP unchanged.
    model = builtin_panda_on_base()
    rng = np.random.default_rng(8)
    q, qdp = random_state(model, rng)
    refs = random_refs(model, q, rng, 4)
    w = make_weights(model)
    p1 = pomptc.assemble_qp(model, q, qdp, refs, w, 0.01, 4, 2)

    shift = 0.2
    q2 = q.copy()
    q2[0] += shift
    refs2 = refs.copy()
    refs2[:, 0] += shift
    p2 = pomptc.assemble_qp(model, q2, qdp, refs2, w, 0.01, 4, 2)
    np.testing.assert_allclose(p1.S, p2.S, atol=1e-9)
    np.testing.assert_allclose(p1.G, p2.G, atol=1e-9)
    np.testing.assert_allclose(p1.H, p2.H, atol=1e-12)
    # w differs only in the base-x angle rows, which are not MPC DOFs
    # for this model, so it is identical too.
    np.testing.assert_allclose(p1.w, p2.w, atol=1e-9)


def test_singular_configuration_rejected():
    model = builtin_planar_2link()
    refs = [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
    with pytest.raises(pomptc.SingularConfigurationError):
        pomptc.assemble_qp(model, np.zeros(2), np.zeros(2), refs,
                           make_weights(model), 0.01, 1, 1)


def test_horizon_validation():
    model = builtin_planar_2link()
    q, qdp = [0.3, 1.0], np.zeros(2)
    refs = [kin.forward_kinematics(model, q).as_vector()]
    w = make_weights(model)
    with pytest.raises(ValueError):
        pomptc.assemble_qp(model, q, qdp, refs, w, 0.01, 1, 2)
    with pytest.raises(ValueError):
        pomptc.assemble_qp(model, q, qdp, refs * 2, w, -0.01, 2, 1)
    with pytest.raises(ValueError, match="references"):
        pomptc.assemble_qp(model, q, qdp, refs, w, 0.01, 2, 1)


def test_extract_first_increment_scatter():
    model = builtin_panda_on_base()
    z = np.arange(35, dtype=float)
    out = pomptc.extract_first_increment(z, model)
    assert out.shape == (13,)
    np.testing.assert_allclose(out[:6], 0.0)
    np.testing.assert_allclose(out[6:], z[:7])


def test_problem_text_round_trip():
    rng = np.random.default_rng(77)
    model = builtin_planar_2link()
    q = np.array([0.3, 1.0])
    refs = random_refs(model, q, rng, 3)
    p = pomptc.assemble_qp(model, q, [0.1, -0.1], refs, make_weights(model),
                           0.01, 3, 2)
    q = pomptc.problem_from_text(pomptc.problem_to_text(p))
    np.testing.assert_array_equal(p.S, q.S)
    np.testing.assert_array_equal(p.G, q.G)
    np.testing.assert_array_equal(p.H, q.H)
    np.testing.assert_array_equal(p.w, q.w)
    assert (p.t, p.N, p.Nu, p.m_prime) == (q.t, q.N, q.Nu, q.m_prime)


def test_problem_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        pomptc.problem_from_text("")
    with pytest.raises(ValueError):
        pomptc.problem_from_text("1 2 3\n0 0\n")
