"""The segmented FTCND solver against the step-by-step reference loop.

``ftcnd.solve`` steps the residual alone and solves for v once per block
of steps; ``ftcnd_stepwise.solve`` solves and checks events after every
step.  Both must take the same steps and meet the same events; their
iterates differ only by rounding.
"""
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ftcnd_stepwise
from conftest import random_qp, solver_batch_problems
from mmtrack import ftcnd, sim
from mmtrack.ftcnd import FtcndParams
from mmtrack.model import load_scenario
from mmtrack.pomptc import QpProblem

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
HISTORY_RTOL = 1e-9
Z_ATOL = 1e-12


@pytest.fixture(scope="module")
def nominal_warm_solves():
    """(problem, params, warm start) of the warm-started solves in the
    first 0.05 s of nominal_circle."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the shipped config sets r3 = 1
        model, params, script = load_scenario(
            (CONFIG_DIR / "nominal_circle.yaml").read_text(encoding="utf-8"))
    script = dataclasses.replace(script, duration=0.05)
    calls = []
    solve = ftcnd.solve

    def recording_solve(problem, ft_params, warm_start=None):
        if warm_start is not None:
            calls.append((problem, ft_params, warm_start.copy()))
        return solve(problem, ft_params, warm_start=warm_start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ftcnd, "solve", recording_solve)
        sim.run_closed_loop(model, params, script)
    assert len(calls) >= 3
    # The slacks derived from a warm start zero most of the residual, and
    # the solver steps none of those exact zeros: the stepwise oracle,
    # which steps every component, checks that skip on these solves.
    assert max(np.count_nonzero(initial_free_residual(*call) == 0.0)
               for call in calls) > 100
    return calls


def initial_free_residual(problem, params, z0):
    """The residual components that a solve from ``z0`` starts free."""
    nz = problem.n_variables
    v = np.concatenate([z0, np.maximum(0.0, problem.w - problem.H @ z0)])
    resid = ftcnd.residual(problem, v, params.xi)
    return resid[np.concatenate([np.ones(nz, bool),
                                 (v[nz:] > 0.0) | (resid[nz:] <= 0.0)])]


def assert_same_run(problem, params, warm_start=None):
    z, diag = ftcnd.solve(problem, params, warm_start=warm_start)
    z_ref, ref = ftcnd_stepwise.solve(problem, params, warm_start=warm_start)
    assert (diag.iterations, diag.projection_events, diag.release_events,
            diag.step_halvings, diag.converged) == \
        (ref.iterations, ref.projection_events, ref.release_events,
         ref.step_halvings, ref.converged)
    assert len(diag.time_history) == len(ref.time_history)
    assert len(diag.h_inf_history) == len(ref.h_inf_history)
    np.testing.assert_allclose(diag.h_inf_history, ref.h_inf_history,
                               rtol=HISTORY_RTOL, atol=0)
    np.testing.assert_allclose(diag.time_history, ref.time_history,
                               rtol=HISTORY_RTOL, atol=0)
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=Z_ATOL)
    return diag


def test_matches_stepwise_on_criterion_batch():
    params = FtcndParams(ode_step=1e-3)
    events = 0
    for problem in solver_batch_problems():
        diag = assert_same_run(problem, params)
        events += diag.projection_events + diag.release_events
    assert events > 0


def test_matches_stepwise_on_cold_panda_size_qps():
    # The panda size of the closed loop: 35 variables, 210 rows.
    rng = np.random.default_rng(1)
    params = FtcndParams(ode_step=1e-3)
    for _ in range(6):
        diag = assert_same_run(random_qp(rng, N=5, Nu=5, m_prime=7), params)
        assert diag.factorizations > 1


@pytest.mark.parametrize("ode_step", [2.0 ** -5, 2.0 ** -4])
def test_matches_stepwise_through_halvings_and_an_event(ode_step):
    # min 1/2 z^2 - 4 z  s.t.  z <= 1 (the other five rows are slack),
    # with dyadic data and steps.  At these steps a halving precedes
    # nearly every accepted step, and the slack of z <= 1 hits zero
    # inside a block, so the cut must roll dt and the halving count back
    # to the event step.  The counts are not on a rounding edge: a
    # one-ulp change of G leaves them as they are.
    H = np.array([[1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]])
    problem = QpProblem(S=np.array([[1.0]]), G=np.array([-4.0]), H=H,
                        w=np.array([1.0, 8.0, 8.0, 8.0, 8.0, 8.0]),
                        t=0.01, N=1, Nu=1, m_prime=1)
    diag = assert_same_run(problem, FtcndParams(ode_step=ode_step))
    assert diag.converged and diag.projection_events == 1
    assert diag.step_halvings >= diag.iterations


def test_equal_residual_settles_where_stepwise_does():
    # A cold start with every row clamped (w < 0): r = 1/2 in every row,
    # and the dyadic data make every residual component S 0 + G + xi H'r
    # exactly 1, so all 14 components follow the same Li dynamics and
    # stay equal: h'h is nfree max|h|^2 up to rounding, the edge of the
    # h'h gate in front of the convergence test.  With epsilon_h set to
    # max|h| after step k, where the rounded h'h exceeds nfree
    # epsilon_h^2, both solvers must settle at step k.
    H = np.random.default_rng(0).integers(-2, 3, size=(84, 14)) / 2.0
    xi = 4.0
    problem = QpProblem(S=np.diag(np.tile([2.0, 4.0], 7)),
                        G=1.0 - 2.0 * H.sum(axis=0), H=H, w=np.full(84, -0.5),
                        t=0.0, N=2, Nu=2, m_prime=7)
    assert np.all(ftcnd.residual(problem, np.zeros(98), xi)[:14] == 1.0)
    _, ref = ftcnd_stepwise.solve(problem, FtcndParams(xi=xi))
    edges = [k for k, (h_inf, F) in enumerate(zip(ref.h_inf_history,
                                                  ref.f_history))
             if F > 14 * h_inf ** 2]
    assert len(edges) >= 10
    for k in edges:
        params = FtcndParams(xi=xi, epsilon_h=ref.h_inf_history[k])
        diag = assert_same_run(problem, params)
        assert diag.converged and diag.iterations == k
        assert diag.projection_events == diag.release_events == 0


def test_matches_stepwise_on_nominal_warm_starts(nominal_warm_solves):
    for problem, params, warm in nominal_warm_solves:
        assert_same_run(problem, params, warm)


def test_event_free_warm_solve_factors_once(nominal_warm_solves):
    for problem, params, warm in nominal_warm_solves:
        _, diag = ftcnd.solve(problem, params, warm_start=warm)
        assert diag.converged and diag.iterations > 0
        assert diag.projection_events == diag.release_events == 0
        assert diag.factorizations == 1
        assert diag.block_solves <= math.ceil(math.log2(diag.iterations)) + 1
