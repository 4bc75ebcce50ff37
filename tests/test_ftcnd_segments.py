"""The block-sampled FTCND solver against the sample-by-sample loop.

``ftcnd.solve`` samples the exact flow a block at a time, follows each
residual component across events and refines crossings by Newton's
method; ``ftcnd_stepwise.solve`` solves and checks events after every
sample, reads h again at each segment and locates crossings by
``brentq``.  Both must take the same samples and meet the same events;
their iterates differ only by rounding.
"""
import math

import numpy as np
import pytest

import ftcnd_stepwise
from conftest import random_qp, solver_batch_problems
from mmtrack import ftcnd
from mmtrack.ftcnd import FtcndParams
from mmtrack.pomptc import QpProblem

HISTORY_RTOL = 1e-9
Z_ATOL = 1e-12


@pytest.fixture(scope="module")
def perturbed_warm_solves():
    """(problem, params, warm start) of the first 30 QPs of criterion 1,
    each started from its cold answer plus N(0, 0.05^2), where the solve
    still integrates (a start that passes the test takes no step)."""
    params = FtcndParams(ode_step=1e-3)
    rng = np.random.default_rng(0)
    calls = []
    for problem in solver_batch_problems()[:30]:
        z_cold, _ = ftcnd.solve(problem, params)
        warm = z_cold + rng.normal(scale=0.05, size=problem.n_variables)
        if ftcnd.solve(problem, params, warm_start=warm)[1].iterations:
            calls.append((problem, params, warm))
    assert len(calls) >= 20
    # The slacks derived from a warm start zero most of the residual, and
    # neither solver samples those exact zeros: the stepwise loop finds
    # them again in each segment's residual, the solver drops them once.
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
            diag.converged) == \
        (ref.iterations, ref.projection_events, ref.release_events,
         ref.converged)
    assert len(diag.time_history) == len(ref.time_history)
    assert len(diag.h_inf_history) == len(ref.h_inf_history)
    if ref.converged and ref.iterations == 0:
        # The start passes the test: its residual can be rounding alone,
        # left by two different solves for the endpoint.
        assert max(diag.h_inf_history + ref.h_inf_history) \
            <= params.epsilon_h
    else:
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
def test_matches_stepwise_through_an_event(ode_step):
    # min 1/2 |z|^2 - 4 z1 + 1/2 z2  s.t.  z1 - z2 <= 1, z2 <= 1 (the
    # other ten rows are slack), with dyadic data and coarse samples.
    # The cold solve starts at the Newton endpoint (4, -1/2) with the
    # first row clamped; on the way to that row's endpoint the slack of
    # z2 <= 1 hits zero between two samples, so the crossing is refined
    # on the curved path, and the second segment ends at the endpoint of
    # both rows, z = (193, 84) / 82 for xi = 5.
    H = np.vstack([[[1.0, -1.0], [0.0, 1.0]],
                   np.tile(np.vstack([np.eye(2), -np.eye(2)]), (3, 1))[:10]])
    problem = QpProblem(S=np.eye(2), G=np.array([-4.0, 0.5]), H=H,
                        w=np.concatenate([[1.0, 1.0], np.full(10, 8.0)]),
                        t=0.01, N=1, Nu=1, m_prime=2)
    params = FtcndParams(ode_step=ode_step)
    diag = assert_same_run(problem, params)
    assert diag.converged and diag.projection_events == 1
    assert diag.factorizations == 2 and diag.step_halvings == 0
    assert np.all(np.diff(diag.f_history) < 0.0)
    z = diag.final_state.v[:2]
    np.testing.assert_allclose(z, np.array([193.0, 84.0]) / 82.0,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("ode_step", [0.02, 0.05, 0.1])
def test_coarse_samples_keep_the_stepwise_counts(ode_step):
    # Far coarser samples than the default: the sample counts follow the
    # flow, not the rounding of a step, so both solvers take the same
    # samples and events on each of the first 60 criterion-1 QPs.
    params = FtcndParams(ode_step=ode_step)
    for problem in solver_batch_problems()[:60]:
        assert_same_run(problem, params)


def test_equal_residual_settles_where_stepwise_does():
    # Rows z_i <= w_i and 70 zero rows with w = -1/2, which every z
    # violates.  From z = 0 only the zero rows clamp, and they add nothing
    # to S, so both solvers reach the endpoint z_N = -S^-1 G exactly from
    # the dyadic data.  z_N violates each row z_i <= w_i by 1/4: the solve
    # starts there with every row clamped, and every residual component
    # S z_N + G + xi H'r is exactly 1, so all 14 components follow the
    # same path and stay equal.  With epsilon_h set to max|h| at sample
    # k, exactly on the edge of the test max|h| <= epsilon_h, both solvers
    # must end the segment in place of sample k; the samples where the
    # rounded h'h exceeds nfree max|h|^2 are checked.
    xi, S = 4.0, 4.0 * np.eye(14)
    z_n = np.tile([2.0, 3.0], 7)
    problem = QpProblem(S=S, G=-S @ z_n,
                        H=np.vstack([np.eye(14), np.zeros((70, 14))]),
                        w=np.concatenate([z_n - 0.25, np.full(70, -0.5)]),
                        t=0.0, N=2, Nu=2, m_prime=7)
    v_n = np.concatenate([z_n, np.zeros(84)])
    assert np.all(ftcnd.residual(problem, v_n, xi)[:14] == 1.0)
    _, ref = ftcnd_stepwise.solve(problem, FtcndParams(xi=xi))
    assert ref.h_inf_history[0] == 1.0
    edges = [k for k, (h_inf, F) in enumerate(zip(ref.h_inf_history,
                                                  ref.f_history))
             if F > 14 * h_inf ** 2]
    assert len(edges) >= 10
    for k in edges:
        params = FtcndParams(xi=xi, epsilon_h=ref.h_inf_history[k])
        diag = assert_same_run(problem, params)
        assert diag.converged and diag.iterations == k
        assert diag.h_inf_history[-1] == diag.f_history[-1] == 0.0
        assert diag.projection_events == diag.release_events == 0


def test_matches_stepwise_on_perturbed_warm_starts(perturbed_warm_solves):
    for problem, params, warm in perturbed_warm_solves:
        assert_same_run(problem, params, warm)


def test_event_free_warm_solve_factors_once(perturbed_warm_solves):
    # An event-free solve that integrates starts at the endpoint with
    # another clamped set than z0's; its one segment needs one factor.
    event_free = 0
    for problem, params, warm in perturbed_warm_solves:
        _, diag = ftcnd.solve(problem, params, warm_start=warm)
        assert diag.converged and diag.iterations > 0
        if diag.projection_events or diag.release_events:
            continue
        event_free += 1
        assert diag.factorizations == 1
        assert diag.block_solves <= math.ceil(math.log2(diag.iterations)) + 1
    assert event_free >= 5


def test_max_time_stops_where_stepwise_does():
    # No sample is taken past max_time: both solvers stop on the same
    # sample, unconverged, whether a segment is under way or would end.
    params = FtcndParams(ode_step=1e-3, max_time=0.0235)
    stopped = 0
    for problem in solver_batch_problems()[:20]:
        diag = assert_same_run(problem, params)
        stopped += not diag.converged
        assert diag.time_history[-1] <= params.max_time
    assert stopped >= 15
