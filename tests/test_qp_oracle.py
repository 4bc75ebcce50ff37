import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import hand_qp, random_qp
from mmtrack import qp_oracle
from mmtrack.pomptc import QpProblem


def test_hand_instance_exact():
    z = qp_oracle.solve_reference(hand_qp())
    assert z[0] == pytest.approx(1.0, abs=1e-10)


def test_hand_instance_penalized():
    # 2z - 4 + 5 (z - 1) = 0 gives z = 9/7.
    z = qp_oracle.solve_reference(hand_qp(), penalized=True, xi=5.0)
    assert z[0] == pytest.approx(9.0 / 7.0, abs=1e-12)


def test_penalized_with_inactive_constraints_is_unconstrained():
    p = QpProblem(hand_qp().S, hand_qp().G,
                  hand_qp().H, np.full(6, 50.0), 0.01, 1, 1, 1)
    z = qp_oracle.solve_reference(p, penalized=True, xi=5.0)
    assert z[0] == pytest.approx(2.0, abs=1e-12)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(100)
    for _ in range(25):
        p = random_qp(rng, N=3, Nu=1, m_prime=1)  # 10 constraints
        z = qp_oracle.solve_reference(p)
        zb = oracles.brute_force(p)
        assert p.objective(z) == pytest.approx(p.objective(zb), abs=1e-8)
        np.testing.assert_allclose(z, zb, atol=1e-7)


def test_exact_solutions_pass_kkt():
    rng = np.random.default_rng(101)
    for _ in range(40):
        p = random_qp(rng)
        z = qp_oracle.solve_reference(p)
        rep = qp_oracle.check_kkt(p, z)
        assert rep.passed, rep
        assert rep.primal_violation <= 1e-9


def test_penalized_never_worse_on_lifted_objective():
    # The penalized optimum minimizes objective + penalty, so its lifted
    # value can never exceed that of the exact (feasible) optimum.
    rng = np.random.default_rng(102)
    xi = 5.0
    for _ in range(20):
        p = random_qp(rng)
        zp = qp_oracle.solve_reference(p, penalized=True, xi=xi)
        ze = qp_oracle.solve_reference(p)

        def lifted(z):
            return p.objective(z) + 0.5 * xi * np.sum(
                np.maximum(0.0, p.H @ z - p.w) ** 2)

        assert lifted(zp) <= lifted(ze) + 1e-9


def test_infeasible_raises_with_certificate():
    # Rows force z <= -2 and z >= 1 simultaneously.
    H = np.array([[1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]])
    w = np.array([-2.0, -1.0, 5.0, 5.0, 5.0, 5.0])
    p = QpProblem(np.array([[2.0]]), np.array([0.0]), H, w, 0.01, 1, 1, 1)
    with pytest.raises(qp_oracle.InfeasibleProblem) as exc:
        qp_oracle.solve_reference(p)
    assert exc.value.certificate_row in (0, 1)
    with pytest.raises(qp_oracle.InfeasibleProblem):
        oracles.brute_force(p)


def test_brute_force_size_guard():
    rng = np.random.default_rng(5)
    p = random_qp(rng, N=3, Nu=2, m_prime=2)  # 40 constraints
    with pytest.raises(ValueError, match="12"):
        oracles.brute_force(p)


def test_non_spd_rejected():
    h = hand_qp()
    p = QpProblem(np.array([[-2.0]]), h.G, h.H, h.w, 0.01, 1, 1, 1)
    with pytest.raises(ValueError, match="positive definite"):
        qp_oracle.solve_reference(p)


def test_check_kkt_flags_suboptimal_point():
    p = hand_qp()
    rep = qp_oracle.check_kkt(p, np.array([1.0]))
    assert rep.passed
    rep_bad = qp_oracle.check_kkt(p, np.array([0.5]))
    assert not rep_bad.passed
    assert rep_bad.stationarity_residual > 1e-3
    rep_inf = qp_oracle.check_kkt(p, np.array([1.3]))
    assert not rep_inf.passed
    assert rep_inf.primal_violation >= 0.1


def test_check_kkt_tol_validated():
    with pytest.raises(ValueError):
        qp_oracle.check_kkt(hand_qp(), np.zeros(1), tol=0.0)


LAZY_SCIPY_OPTIMIZE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from conftest import hand_qp
from mmtrack import cli, qp_oracle, sim
from mmtrack.model import load_scenario

config = Path(sys.argv[1]).parent / "configs" / "nominal_circle.yaml"
text = config.read_text(encoding="utf-8").replace("duration: 10.0",
                                                  "duration: 0.05")
model, params, script = load_scenario(text)
assert len(sim.run_closed_loop(model, params, script).time) == 51
z = qp_oracle.solve_reference(hand_qp(), penalized=True)
assert abs(z[0] - 9 / 7) <= 1e-12
assert "scipy.optimize" not in sys.modules
z = qp_oracle.solve_reference(hand_qp())
assert abs(z[0] - 1.0) <= 1e-10 and qp_oracle.check_kkt(hand_qp(), z).passed
assert "scipy.optimize" in sys.modules
"""


def test_only_the_exact_solve_and_kkt_load_scipy_optimize():
    # A closed loop and the penalized solve run on numpy and scipy.linalg;
    # the exact mode's phase-1 LP and the KKT multipliers load
    # scipy.optimize when first called.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(qp_oracle.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY_OPTIMIZE,
                           str(tests)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
