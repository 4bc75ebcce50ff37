import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

import ftcnd_stepwise
import oracles
from conftest import hand_qp, random_qp, solver_batch_problems
from mmtrack import ftcnd, qp_oracle, sim
from mmtrack.flow import FlowMap
from mmtrack.ftcnd import FtcndParams
from mmtrack.model import load_scenario
from mmtrack.pomptc import QpProblem


def test_params_validation():
    with pytest.raises(ValueError, match="kappa"):
        FtcndParams(kappa=1.0)
    with pytest.raises(ValueError, match="kappa"):
        FtcndParams(kappa=0.0)
    with pytest.raises(ValueError, match="mu"):
        FtcndParams(mu=-1.0)
    with pytest.raises(ValueError, match="ode_step"):
        FtcndParams(ode_step=0.0)
    # Gains whose flow cannot be tabulated fail at construction.
    for gains in ({"kappa": 0.999999999}, {"mu": 1e300}):
        with pytest.raises(ValueError, match="cannot be tabulated"):
            FtcndParams(**gains)


FLOW_GAINS = [(5.0, 1.0, 30.0, 0.8), (5.0, 2.5, 0.1, 0.7),
              (3.0, 0.7, 1.0, 0.6)]
FLOW_LEVELS = np.geomspace(1e-12, 1e6, 37)


def test_li_activation_values():
    # lam = 1, zeta = 30, kappa = 0.8: Li(1) = 0.5*(1+1) + 15 = 16 and
    # Li'(1) = 0.5*(0.8 + 1.25) + 15; Li and Li' are of |h|, and |h| is
    # floored at 1e-300.
    li, dli = ftcnd.flow_map(5.0, 1.0, 30.0, 0.8).li(np.array([1.0, -1.0]))
    assert li.tolist() == [16.0, 16.0]
    assert dli.tolist() == pytest.approx([16.025, 16.025], rel=1e-14)
    li, dli = ftcnd.flow_map(5.0, 2.0, 1.0, 0.5).li(np.array([4.0, 0.0]))
    # Li(4) = 2 + 16 + 2 at lam = 2, zeta = 1, kappa = 0.5.
    assert li[0] == pytest.approx(20.0, rel=1e-14) and 0.0 < li[1] < 1e-149
    assert dli[0] == pytest.approx(0.25 + 8.0 + 0.5, rel=1e-14)
    assert dli[1] == pytest.approx(0.5e150, rel=1e-12)


@pytest.mark.parametrize("gains", FLOW_GAINS)
def test_li_slope_matches_central_differences(gains):
    flow = ftcnd.flow_map(*gains)
    s = np.geomspace(1e-6, 1e3, 28)
    d = 1e-6 * s
    li, dli = flow.li(s)
    fd = (flow.li(s + d)[0] - flow.li(s - d)[0]) / (2 * d)
    np.testing.assert_allclose(dli, fd, rtol=1e-7)
    assert np.all(np.diff(li) > 0.0)


def test_finite_time_bound_values():
    # 2 |h|^(1-kappa) / (lam mu (1-kappa)) with |h| = 1, mu = 5, kappa = 0.8.
    flow = ftcnd.flow_map(5.0, 1.0, 30.0, 0.8)
    assert flow.bound(1.0) == pytest.approx(2.0)
    assert flow.bound(0.0) == 0.0
    assert flow.bound(1.4) == pytest.approx(2.0 ** 0.2 * flow.bound(0.7))
    assert ftcnd.flow_map(5.0, 0.5, 30.0, 0.8).bound(1.0) \
        == pytest.approx(4.0)


def test_scalar_ode_reaches_zero_within_bound():
    # The exact settling time T(|h0|) of hdot = -mu Li(h) never exceeds
    # the printed bound, lam < 1 included.
    for gains in FLOW_GAINS:
        flow = ftcnd.flow_map(*gains)
        assert np.all(flow.bound(FLOW_LEVELS)
                      >= flow.time_to_zero(FLOW_LEVELS)), gains


def test_flow_map_of_extreme_gains_is_finite_and_monotone_or_refused():
    # Each gain set tabulates a finite, monotone flow, or raises
    # ValueError before its tables outgrow the node cap; neither warns,
    # and no build takes 50 MB.
    extremes = [1e-300, 1e-3, 1e3, 1e300]
    s = np.geomspace(1e-300, 1e300, 2001)
    built = refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gains in itertools.product(extremes, extremes, extremes,
                                       [1e-300, 1e-3, 0.5, 1.0 - 1e-9]):
            tracemalloc.start()
            try:
                flow = FlowMap(*gains)
            except ValueError as exc:
                flow = exc
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 50e6, gains
            if isinstance(flow, ValueError):
                assert str(flow).startswith("the flow of mu="), gains
                refused += 1
                continue
            built += 1
            t = flow.time_to_zero(s)
            level = flow.level(np.linspace(0.0, flow.t_inf, 2001))
            for y in (t, level):
                assert np.isfinite(y).all() and np.all(np.diff(y) >= 0.0), \
                    gains
    assert built and refused


def test_small_kappa_tables_build_in_bounded_memory():
    # kappa = 0.01 takes 80 801 T nodes: the quadrature and the table
    # builders take them _CHUNK cells at a time, so the build's peak
    # stays near the 3.9 MB of the T table itself (56 MB at once).
    FlowMap(5.0, 1.0, 30.0, 0.8)    # numpy's lazy imports are not counted
    tracemalloc.start()
    try:
        flow = FlowMap(5.0, 1.0, 30.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flow._t_table[0]) > 80_000
    assert peak < 10e6


def quad_time_to_zero(s, mu, lam, zeta, kappa):
    """T(s), the integral of 1 / (mu omega(u)) over [0, s], by quad in
    x = log u; below x0 the integrand is 2 e^((1 - kappa) x) / (mu lam)
    up to a relative (zeta / lam) e^-40, and is integrated in closed form."""
    x1 = math.log(s)
    x0 = x1 - 40.0 / (1.0 - kappa)
    edges = np.linspace(x0, x1, 41)

    li = ftcnd.flow_map(mu, lam, zeta, kappa).li

    def f(x):
        u = math.exp(x)
        return u / (mu * float(li(u)[0]))
    return (2.0 * math.exp((1.0 - kappa) * x0) / (mu * lam * (1.0 - kappa))
            + sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0]
                  for a, b in zip(edges[:-1], edges[1:])))


@pytest.mark.parametrize("gains", FLOW_GAINS)
def test_flow_map_matches_quadrature(gains):
    # T against quadrature, and Phi at the quadrature's T: both within
    # 1e-10 relative for |h| from 1e-12 to 1e6.
    flow = ftcnd.flow_map(*gains)
    t_ref = np.array([quad_time_to_zero(s, *gains) for s in FLOW_LEVELS])
    np.testing.assert_allclose(flow.time_to_zero(FLOW_LEVELS), t_ref,
                               rtol=1e-10, atol=0)
    np.testing.assert_allclose(flow.level(t_ref), FLOW_LEVELS, rtol=1e-10,
                               atol=0)


@pytest.mark.parametrize("gains", FLOW_GAINS)
def test_level_inverts_time_to_zero_and_is_monotone(gains):
    flow = ftcnd.flow_map(*gains)
    s = np.geomspace(1e-300, 1e30, 20001)
    t = flow.time_to_zero(s)
    np.testing.assert_allclose(flow.level(t[(s > 1e-12) & (s < 1e6)]),
                               s[(s > 1e-12) & (s < 1e6)], rtol=1e-10)
    # T rises strictly while T_inf - T is resolved, then stays at T_inf.
    assert np.all(np.diff(t) >= 0.0) and t[-1] <= flow.t_inf
    assert np.all(np.diff(t[s < 1e6]) > 0.0)
    # Phi on a dense grid of its whole argument range, and 0 from 0 down.
    tau = np.linspace(0.0, flow.t_inf, 200001)[1:-1]
    assert np.all(np.diff(flow.level(tau)) > 0.0)
    zero_or_less = np.array([0.0, -0.0, -1.0, -1e300])
    assert flow.level(zero_or_less).tolist() == [0.0] * 4


def test_lift_structure_hand_instance():
    p = hand_qp()
    N, D, v0 = oracles.lift(p, 5.0)
    assert N.shape == (7, 7)
    # S + xi H'H with H columns summing squared to 6: 2 + 5*6 = 32.
    assert N[0, 0] == pytest.approx(32.0)
    np.testing.assert_allclose(N[0, 1:], 5.0 * p.H[:, 0], atol=1e-15)
    np.testing.assert_allclose(N[1:, 1:], 5.0 * np.eye(6), atol=1e-15)
    np.testing.assert_allclose(D, np.concatenate([[-4.0 - 5.0 * p.H[:, 0] @ p.w],
                                                  -5.0 * p.w]), atol=1e-12)
    np.testing.assert_allclose(v0, np.concatenate([[0.0], p.w]), atol=1e-15)
    with pytest.raises(ValueError):
        oracles.lift(p, 0.0)


@pytest.mark.parametrize("clamp", ["none", "some", "all"])
def test_reduced_solve_matches_dense_lift(clamp):
    # Block elimination against a dense solve of the reduced lift.
    rng = np.random.default_rng(11)
    p = random_qp(rng, N=5, Nu=5, m_prime=7)
    xi, nz, nc = 5.0, p.n_variables, p.n_constraints
    clamped = {"none": np.zeros(nc, bool), "some": rng.random(nc) < 0.3,
               "all": np.ones(nc, bool)}[clamp]
    Hc, Hf = p.H[clamped], p.H[~clamped]
    L = ftcnd._factor(p.S + xi * Hc.T @ Hc)
    N, _, _ = oracles.lift(p, xi)
    free = np.concatenate([np.arange(nz), nz + np.flatnonzero(~clamped)])
    B = rng.normal(size=(free.size, 4))
    x = ftcnd._reduced_solve(L, Hf, B, nz, xi)
    x_ref = np.linalg.solve(N[np.ix_(free, free)], B)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_final_state_matches_lift_residual():
    # final_state.h and equality_residual are read from N v + D, with the
    # clamped slacks (exactly zero at the end) left out: both after an
    # integration and at a start that passes the test at once, as the
    # cold answer does when it is the warm start.
    rng = np.random.default_rng(5)
    params = FtcndParams(ode_step=1e-3)
    events = settled = 0
    for _ in range(20):
        p = random_qp(rng)
        nz = p.n_variables
        z_cold, diag_cold = ftcnd.solve(p, params)
        events += diag_cold.projection_events
        z_warm, diag_warm = ftcnd.solve(p, params, warm_start=z_cold)
        assert diag_warm.converged and diag_warm.iterations == 0
        assert diag_warm.factorizations == diag_warm.block_solves == 0
        for z, diag in ((z_cold, diag_cold), (z_warm, diag_warm)):
            settled += diag.iterations == 0
            assert diag.constraint_violation == \
                qp_oracle.check_kkt(p, z).primal_violation
            v, h = diag.final_state.v, diag.final_state.h
            np.testing.assert_array_equal(v[:nz], z)
            N, D, _ = oracles.lift(p, params.xi)
            full = N @ v + D
            scale = float(np.max(np.abs(N) @ np.abs(v) + np.abs(D)))
            np.testing.assert_allclose(ftcnd.residual(p, v, params.xi),
                                       full, rtol=0, atol=1e-12 * scale)
            free_rows = v[nz:] != 0.0
            assert h.size == nz + np.count_nonzero(free_rows)
            np.testing.assert_allclose(
                h, np.concatenate([full[:nz], full[nz:][free_rows]]),
                rtol=0, atol=1e-12 * scale)
            assert diag.equality_residual == pytest.approx(
                np.max(np.abs(full[nz:][free_rows]), initial=0.0)
                / params.xi, rel=0, abs=1e-12 * scale)
    assert events > 0 and settled >= 20


def test_settled_plan_solves_read_the_start_product(monkeypatch):
    # The QPs of 0.5 s of nominal_circle's plan, whose warm starts clamp
    # no row: each solve settles at its start, where the violation and
    # final_state.h come from the one product H z, bit-equal to forming
    # them anew.
    text = (Path(__file__).resolve().parent.parent / "configs"
            / "nominal_circle.yaml").read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, params, script = load_scenario(text)
    script = dataclasses.replace(script, duration=0.5)
    solves = []
    solve = ftcnd.solve

    def recording(problem, p, warm_start=None):
        solves.append((problem, warm_start))
        return solve(problem, p, warm_start=warm_start)
    monkeypatch.setattr(ftcnd, "solve", recording)
    sim.plan(model, params, script)
    xi = params.ftcnd.xi
    assert len(solves) == 50
    for problem, warm in solves:
        nz = problem.n_variables
        z0 = np.zeros(nz) if warm is None else warm
        assert not (problem.H @ z0 > problem.w).any()
        z, diag = solve(problem, params.ftcnd, warm_start=warm)
        assert diag.converged and diag.iterations == 0
        assert diag.constraint_violation == \
            qp_oracle.check_kkt(problem, z).primal_violation
        v = diag.final_state.v
        resid = ftcnd.residual(problem, v, xi)
        clamped = (v[nz:] <= 0.0) & (resid[nz:] > 0.0)
        assert diag.final_state.h.tobytes() \
            == ftcnd._free_part(resid, clamped).tobytes()


def test_solve_never_forms_the_lift(monkeypatch):
    # The dense lift is defined only here, in oracles.lift.
    def no_lift(problem, xi):
        raise AssertionError("solve formed the lifted matrix N")

    assert not hasattr(ftcnd, "lift")
    monkeypatch.setattr(oracles, "lift", no_lift)
    params = FtcndParams(ode_step=1e-3)
    for p in solver_batch_problems():
        _, diag = ftcnd.solve(p, params)
        assert diag.converged


@pytest.mark.parametrize("solve", [ftcnd.solve, ftcnd_stepwise.solve],
                         ids=["segmented", "stepwise"])
@pytest.mark.parametrize("ode_step", [2.0 ** -6, 2.0 ** -5, 0.02])
def test_coarse_step_converges_with_strict_descent(solve, ode_step):
    # min 1/2 z^2 - 4 z  s.t.  z <= 100 (six copies of the row): no row
    # is active.  Where an Euler step of this size would overshoot h = 0
    # and flip it over and over, the exact flow's samples only shrink h.
    # From z = 200 every row clamps, and the solve starts at their
    # endpoint 3004/31, where none does: it integrates from there (from
    # z = 0 the endpoint z = 4 would take no step).
    problem = QpProblem(S=np.array([[1.0]]), G=np.array([-4.0]),
                        H=np.ones((6, 1)), w=np.full(6, 100.0),
                        t=0.01, N=1, Nu=1, m_prime=1)
    z, diag = solve(problem, FtcndParams(ode_step=ode_step),
                    warm_start=np.array([200.0]))
    assert diag.converged and diag.iterations > 0
    assert np.all(np.diff(diag.f_history) < 0.0)
    assert z[0] == pytest.approx(4.0, abs=1e-8)


def test_solve_hand_instance_matches_penalized_value():
    z, diag = ftcnd.solve(hand_qp(), FtcndParams(ode_step=1e-3))
    assert diag.converged
    assert z[0] == pytest.approx(9.0 / 7.0, abs=1e-7)


def test_solve_matches_penalized_oracle():
    rng = np.random.default_rng(42)
    params = FtcndParams(ode_step=1e-3)
    for _ in range(30):
        p = random_qp(rng)
        z, diag = ftcnd.solve(p, params)
        assert diag.converged
        z_ref = qp_oracle.solve_reference(p, penalized=True, xi=params.xi)
        np.testing.assert_allclose(z, z_ref, atol=1e-6)


def test_residual_norm_monotone_and_within_bound():
    rng = np.random.default_rng(7)
    params = FtcndParams(ode_step=1e-3)
    for _ in range(20):
        p = random_qp(rng)
        _, diag = ftcnd.solve(p, params)
        assert diag.converged
        f = np.asarray(diag.f_history)
        assert np.all(np.diff(f) <= 1e-12)
        assert diag.converge_time <= diag.bound_t_f + 1e-12


def test_slacks_stay_nonnegative():
    rng = np.random.default_rng(19)
    params = FtcndParams(ode_step=1e-3)
    for _ in range(20):
        p = random_qp(rng)
        _, diag = ftcnd.solve(p, params)
        phi = diag.final_state.v[p.n_variables:]
        assert phi.min() >= -1e-12


def test_warm_start_converges_immediately():
    rng = np.random.default_rng(3)
    p = random_qp(rng, N=3, Nu=2, m_prime=2)
    params = FtcndParams(ode_step=1e-3)
    z, _ = ftcnd.solve(p, params)
    z2, diag2 = ftcnd.solve(p, params, warm_start=z)
    assert diag2.converged
    assert diag2.iterations == 0
    assert diag2.converge_time == 0.0


def test_cold_and_warm_starts_converge_to_the_penalized_optimum():
    # Each QP from three starts: cold, an arbitrary z ~ N(0, 1), and the
    # cold answer perturbed by N(0, 0.05^2).  The slacks are derived from
    # the start, so none of them meets the event budget 100 + 10 nc.
    rng = np.random.default_rng(11)
    params = FtcndParams(ode_step=1e-3)
    for p in solver_batch_problems(seed=11):
        z_ref = qp_oracle.solve_reference(p, penalized=True, xi=params.xi)

        def solve(warm=None):
            z, diag = ftcnd.solve(p, params, warm_start=warm)
            assert diag.converged
            assert diag.projection_events + diag.release_events \
                < 100 + 10 * p.n_constraints
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-6)
            return z
        z_cold = solve()
        solve(rng.normal(size=p.n_variables))
        solve(z_cold + rng.normal(scale=0.05, size=p.n_variables))


def test_an_exact_zero_stays_zero_on_the_flow():
    # The solver follows only the non-zero components of h: a component
    # at 0 has zero time 0, and Phi is exactly 0 from there on, as it is
    # for any component past its zero time.
    params = FtcndParams()
    flow = ftcnd.flow_map(params.mu, params.lam, params.zeta, params.kappa)
    assert flow.time_to_zero(np.array([5e-324]))[0] < 1e-60
    assert flow.level(-params.ode_step * np.arange(3.0)).tolist() == [0.0] * 3


def test_start_at_the_solution_takes_no_step():
    # With G = 0 the cold start z = 0 is the optimum and no row binds:
    # every free residual component is exactly zero, none is stepped.
    p = dataclasses.replace(hand_qp(), G=[0.0])
    z, diag = ftcnd.solve(p, FtcndParams())
    assert z.tolist() == [0.0]
    assert diag.converged and diag.iterations == 0
    assert diag.h_inf_history == [0.0]


def test_warm_start_length_checked():
    p = hand_qp()
    with pytest.raises(ValueError, match="warm start"):
        ftcnd.solve(p, FtcndParams(), warm_start=np.zeros(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_warm_start_rejected(value):
    # The start clamps the rows that z0 violates, which no comparison
    # with NaN does: a non-finite z0 would be dropped without a word.
    with pytest.raises(ValueError, match="^warm start must be finite$"):
        ftcnd.solve(hand_qp(), FtcndParams(), warm_start=np.array([value]))


def test_overflowing_residual_raises_integration_error():
    # G = -1e250 puts |h| near 1e250: h'h and the |h|^(1/kappa) term of
    # the Li activation overflow on the first step.
    p = dataclasses.replace(hand_qp(), G=[-1e250])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ftcnd.FtcndIntegrationError, match="non-finite"):
        ftcnd.solve(p, FtcndParams(ode_step=1e-3))


@pytest.mark.parametrize("name,value", [("S", np.nan), ("G", np.nan),
                                        ("H", np.inf), ("w", -np.inf)])
def test_non_finite_problem_rejected(name, value):
    data = np.array(getattr(hand_qp(), name))
    data.flat[0] = value
    p = dataclasses.replace(hand_qp(), **{name: data})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ftcnd.solve(p, FtcndParams())
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        qp_oracle.solve_reference(p)


@functools.lru_cache(maxsize=1)
def start_probes():
    """{start: (problem, params, warm start)}: "warm" a QP of the first
    0.1 s of nominal_circle's plan with its warm start, which settles at
    its start, and "cold" the first criterion-1 QP, which integrates."""
    text = (Path(__file__).resolve().parent.parent / "configs"
            / "nominal_circle.yaml").read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, params, script = load_scenario(text)
    solves = []
    solve = ftcnd.solve

    def recording(problem, p, warm_start=None):
        solves.append((problem, p, warm_start))
        return solve(problem, p, warm_start=warm_start)
    with mock.patch.object(ftcnd, "solve", recording):
        sim.plan(model, params, dataclasses.replace(script, duration=0.1))
    return {"warm": solves[-1],
            "cold": (solver_batch_problems()[0], FtcndParams(), None)}


# (array, entry): S's lower triangle, which the factor reads, its upper
# triangle, which only S z reads, and its diagonal; G, H and w at their
# first, middle and last entries.
START_PROBES = [("S", "lower"), ("S", "upper"), ("S", "diagonal"),
                ("G", "first"), ("G", "last"), ("H", "first"),
                ("H", "middle"), ("H", "last"), ("w", "first"),
                ("w", "middle"), ("w", "last")]


def with_entry(problem, name, where, value):
    """``problem`` with one entry of S, G, H or w set to ``value``."""
    data = np.array(getattr(problem, name))
    n = data.shape[0]
    index = {"lower": (n - 1, 0), "upper": (0, n - 1),
             "diagonal": (n // 2, n // 2), "first": 0,
             "middle": data.size // 2, "last": data.size - 1}[where]
    if isinstance(index, tuple):
        data[index] = value
    else:
        data.flat[index] = value
    return dataclasses.replace(problem, **{name: data})


@pytest.mark.parametrize("start", ["warm", "cold"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,where", START_PROBES,
                         ids=[f"{n}_{w}" for n, w in START_PROBES])
def test_non_finite_entry_is_named_without_a_warning(name, where, value,
                                                     start):
    # The start runs on the unchecked problem: the bad entry fails a
    # factor or reaches N v + D, and check_finite then names it, with no
    # numpy warning on the way.
    problem, params, warm = start_probes()[start]
    bad = with_entry(problem, name, where, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ftcnd.solve(bad, params, warm_start=warm)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            qp_oracle.solve_reference(bad)


def test_check_finite_runs_only_when_the_start_fails(monkeypatch):
    # A finite solve, settled at its start or integrated, makes no
    # finiteness pass over S, G, H and w; a non-finite problem makes one,
    # which names the bad array.
    calls = []
    check_finite = QpProblem.check_finite

    def counting(problem):
        calls.append(1)
        return check_finite(problem)
    monkeypatch.setattr(QpProblem, "check_finite", counting)
    for start, (problem, params, warm) in start_probes().items():
        calls.clear()
        _, diag = ftcnd.solve(problem, params, warm_start=warm)
        assert diag.converged
        assert (diag.iterations == 0) == (start == "warm")
        assert not calls
        with pytest.raises(ValueError, match="^H must be finite$"):
            ftcnd.solve(with_entry(problem, "H", "middle", np.inf), params,
                        warm_start=warm)
        assert len(calls) == 1


def test_non_spd_problem_rejected():
    p = QpProblem(np.array([[-1.0]]), np.zeros(1), hand_qp().H, hand_qp().w,
                  0.01, 1, 1, 1)
    with pytest.raises(ValueError, match="positive definite"):
        ftcnd.solve(p, FtcndParams())



def test_at_most_two_residuals_per_solve(monkeypatch):
    # Solves from the cold answer plus N(0, 0.05^2): one residual at the
    # Newton endpoint (the clamp test, the bound and a first segment
    # share it), final for a solve that settles there, and one more at
    # the end of one that integrates.  A later segment reads none: its
    # components continue on the flow, a released row's is xi r.
    rng = np.random.default_rng(0)
    params = FtcndParams(ode_step=1e-3)
    calls = []
    residual = ftcnd.residual

    def counting(*args):
        calls.append(1)
        return residual(*args)
    integrated = segments = settled = 0
    for p in solver_batch_problems()[:10]:
        z_cold, _ = ftcnd.solve(p, params)
        warm = z_cold + rng.normal(scale=0.05, size=p.n_variables)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(ftcnd, "residual", counting)
            _, diag = ftcnd.solve(p, params, warm_start=warm)
        assert diag.converged
        integrated += diag.iterations > 0
        settled += diag.iterations == 0
        segments += diag.factorizations > 1
        assert len(calls) == (2 if diag.iterations else 1)
    assert integrated >= 5 and segments >= 3 and settled >= 1


def test_cold_and_perturbed_starts_on_the_criterion_batch():
    # Each of the 200 QPs of criterion 1 cold and from its cold answer
    # plus N(0, 0.05^2): the start, the endpoint of z0's first segment,
    # does not change the penalized optimum.
    rng = np.random.default_rng(5)
    params = FtcndParams(ode_step=1e-3)
    for p in solver_batch_problems():
        z_ref = qp_oracle.solve_reference(p, penalized=True, xi=params.xi)
        z_cold, diag = ftcnd.solve(p, params)
        warm = z_cold + rng.normal(scale=0.05, size=p.n_variables)
        z_warm, diag_warm = ftcnd.solve(p, params, warm_start=warm)
        for z, d in ((z_cold, diag), (z_warm, diag_warm)):
            assert d.converged
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-6)


def test_random_warm_starts_release_below_the_tolerance():
    # 400 random QPs, each from z ~ N(0, 1): a clamped row is released
    # mid-segment only once its gradient falls below -max(_EVENT_TOL,
    # epsilon_h), as at a segment's end, so that a released row's slack
    # grows.  Every solve converges to the penalized optimum without
    # spending its event budget 100 + 10 nc.
    rng = np.random.default_rng(400)
    params = FtcndParams(ode_step=1e-3)
    releases = 0
    for _ in range(400):
        p = random_qp(rng)
        z, diag = ftcnd.solve(p, params,
                              warm_start=rng.normal(size=p.n_variables))
        assert diag.converged
        assert diag.projection_events + diag.release_events \
            < 100 + 10 * p.n_constraints
        np.testing.assert_allclose(
            z, qp_oracle.solve_reference(p, penalized=True, xi=params.xi),
            rtol=0, atol=1e-6)
        releases += diag.release_events
    assert releases > 0


@pytest.mark.parametrize("kappa", [0.3, 0.2, 0.1])
def test_small_kappa_converges_at_a_settled_residual(kappa):
    # kappa = 0.3: a released row's component is gone almost at once, and
    # its slack's free path can fall at once; without the rule that a row
    # clamped at an event waits for the next segment's end to be released,
    # some of these solves spent their event budget cycling.
    # kappa = 0.2: a release that took along every clamped row with g <= 0,
    # held rows whose g was already negative included, cycled on QP 17.
    # kappa = 0.1: T(|h|) of a |h| near 40 lies within an ulp of T_inf, so
    # Phi cannot give back the values carried across events, and v may end
    # a segment away from the flow's h = 0; a solve reports convergence
    # only where N v + D itself has max|h| <= epsilon_h.
    params = FtcndParams(kappa=kappa)
    for p in solver_batch_problems():
        z, diag = ftcnd.solve(p, params)
        assert diag.converged
        assert np.abs(diag.final_state.h).max() <= params.epsilon_h
        np.testing.assert_allclose(
            z, qp_oracle.solve_reference(p, penalized=True, xi=params.xi),
            rtol=0, atol=1e-6)
