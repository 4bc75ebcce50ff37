"""End-to-end acceptance suite.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single pass/fail line (through the capture so it is always
visible), then asserts.  Expensive artifacts (the 200-instance solver
comparison, the 10 s nominal run, the disturbance-scenario traces) are
computed once per session in module-scoped fixtures.
"""
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import solver_batch_problems
from mmtrack import dynamics, ftcnd, kinematics as kin, nftsm, pomptc, \
    qp_oracle, sim
from mmtrack.ftcnd import FtcndParams
from mmtrack.model import builtin_panda_on_base, builtin_planar_2link, \
    load_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

Q0_ARM = np.array([0.0, -0.78, 0.0, -2.35, 0.0, 1.57, 0.78])
Q0_FULL = np.concatenate([np.zeros(6), Q0_ARM])


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def load_config(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_scenario((CONFIG_DIR / name).read_text(encoding="utf-8"))


# --- shared artifacts -----------------------------------------------------

@pytest.fixture(scope="module")
def solver_batch():
    """200 random strictly convex QPs with m'Nu in [2, 40]: FTCND
    solution, diagnostics, and the penalized oracle answer."""
    params = FtcndParams(ode_step=1e-3)
    records = []
    elapsed = 0.0
    for problem in solver_batch_problems():
        t0 = time.perf_counter()
        z, diag = ftcnd.solve(problem, params)
        elapsed += time.perf_counter() - t0
        z_ref = qp_oracle.solve_reference(problem, penalized=True,
                                          xi=params.xi)
        records.append((problem, z, diag, z_ref))
    return records, elapsed, params


@pytest.fixture(scope="module")
def nominal_trace():
    model, params, script = load_config("nominal_circle.yaml")
    t0 = time.perf_counter()
    trace = sim.run_closed_loop(model, params, script)
    return model, trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def base_sinusoid_traces():
    model, params, script = load_config("base_sinusoid.yaml")
    plan = sim.plan(model, params, script)
    traces = {c: sim.track(model, params, script, plan, controller=c)
              for c in ("nftsm", "nftsm-no-taub", "pd")}
    return model, traces


@pytest.fixture(scope="module")
def base_tilt_traces():
    model, params, script = load_config("base_tilt.yaml")
    plan = sim.plan(model, params, script)
    traces = {c: sim.track(model, params, script, plan, controller=c)
              for c in ("nftsm", "pd")}
    return model, traces


# --- criteria -------------------------------------------------------------

def test_criterion_1_solver_equivalence(solver_batch, capsys):
    records, elapsed, _ = solver_batch
    worst = 0.0
    for problem, z, diag, z_ref in records:
        tol = 1e-4 * (1.0 + float(np.max(np.abs(z_ref))))
        gap = float(np.max(np.abs(z - z_ref)))
        worst = max(worst, gap / tol)
    ok = worst <= 1.0 and elapsed < 60.0
    report(capsys, 1, "solver equivalence vs penalized oracle", ok,
           f"200 instances, worst gap {worst:.2e} of tolerance, "
           f"solve time {elapsed:.1f} s")


def test_criterion_2_finite_time_bound(solver_batch, capsys):
    records, _, params = solver_batch
    slack = 10.0 * params.ode_step
    violations = sum(
        1 for _, _, diag, _ in records
        if not (diag.converged
                and diag.converge_time <= diag.bound_t_f + slack))
    margin = max(diag.converge_time - diag.bound_t_f
                 for _, _, diag, _ in records)
    ok = violations == 0
    report(capsys, 2, "finite-time convergence bound", ok,
           f"{violations} violations, worst time-minus-bound "
           f"{margin:.2e} vs slack {slack:g}")


def test_criterion_3_lyapunov_monotonicity(solver_batch, capsys):
    records, _, _ = solver_batch
    worst = 0.0
    for _, _, diag, _ in records:
        f = np.asarray(diag.f_history)
        if f.size > 1:
            worst = max(worst, float(np.max(np.diff(f))))
    ok = worst <= 1e-10
    report(capsys, 3, "residual norm non-increasing per accepted step", ok,
           f"worst per-step increase {worst:.2e}")


def test_criterion_4_tracking_reproduction(nominal_trace, capsys):
    model, trace, wall = nominal_trace
    metrics = sim.error_metrics(trace, settle_window=2.0, model=model)
    ok = (metrics["convergence_time_pos"] <= 3.0
          and metrics["convergence_time_ori"] <= 3.0
          and metrics["steady_state_pos_err"] <= 1e-3
          and wall <= 300.0)
    report(capsys, 4, "circular tracking at desk scale", ok,
           f"conv pos {metrics['convergence_time_pos']:.2f} s / "
           f"ori {metrics['convergence_time_ori']:.2f} s, steady pos "
           f"{metrics['steady_state_pos_err']:.2e} m, wall {wall:.0f} s")


def test_criterion_5_constraint_satisfaction(nominal_trace,
                                             base_sinusoid_traces, capsys):
    model, trace, _ = nominal_trace
    _, traces = base_sinusoid_traces
    v1 = sim.error_metrics(trace, 2.0, model=model)[
        "max_constraint_violation"]
    v2 = sim.error_metrics(traces["nftsm"], 2.0, model=model)[
        "max_constraint_violation"]
    worst = max(v1, v2)
    ok = worst <= 1e-6
    report(capsys, 5, "joint angle/velocity/acceleration limits", ok,
           f"worst violation {worst:.2e} (nominal {v1:.2e}, "
           f"base sinusoid {v2:.2e})")


def test_criterion_6_controller_ordering(base_sinusoid_traces,
                                         base_tilt_traces, capsys):
    def steady(model, traces):
        return {c: sim.error_metrics(t, 2.0, model)["steady_state_pos_err"]
                for c, t in traces.items()}

    s, g = steady(*base_sinusoid_traces), steady(*base_tilt_traces)
    ok = (s["nftsm"] < s["pd"]
          and s["nftsm"] < s["nftsm-no-taub"]
          and g["nftsm"] < g["pd"])
    report(capsys, 6, "NFTSM beats PD; base compensation helps", ok,
           f"sinusoid: nftsm {s['nftsm']:.2e} < no-taub "
           f"{s['nftsm-no-taub']:.2e}, pd {s['pd']:.2e}; "
           f"tilt: nftsm {g['nftsm']:.2e} < pd {g['pd']:.2e}")


def test_criterion_7_numerical_kernels(capsys):
    model = builtin_panda_on_base()
    rng = np.random.default_rng(7)

    # Jacobian vs central finite differences, 500 configurations.
    worst_jac = 0.0
    for _ in range(500):
        q = Q0_FULL + rng.uniform(-0.4, 0.4, 13)
        q[4] = np.clip(q[4], -1.2, 1.2)
        J = kin.linearization(model, q)[1]
        eps = 1e-6
        Jfd = np.zeros_like(J)
        for k in range(13):
            qp_, qm_ = q.copy(), q.copy()
            qp_[k] += eps
            qm_[k] -= eps
            d = kin.forward_kinematics(model, qp_).as_vector() \
                - kin.forward_kinematics(model, qm_).as_vector()
            d[3:] = kin.wrap_angle(d[3:])
            Jfd[:, k] = d / (2 * eps)
        worst_jac = max(worst_jac,
                        float(np.max(np.abs(J - Jfd))
                              / max(1.0, np.max(np.abs(J)))))

    # Inertia symmetry/PD and the skew-symmetry identity, 1000 states.
    worst_skew = 0.0
    spd_ok = True
    for _ in range(1000):
        q = rng.uniform(-1.5, 1.5, 7)
        qd = rng.uniform(-2.0, 2.0, 7)
        terms = dynamics.configuration_terms(model, [q]).at(0, qd)
        spd_ok &= bool(np.allclose(terms.M, terms.M.T, atol=1e-12)
                       and np.linalg.eigvalsh(terms.M).min() > 0)
        Mdot = np.einsum("kij,k->ij", oracles.inertia_gradient(model, q), qd)
        C = oracles.coriolis_matrix(model, q, qd)
        worst_skew = max(worst_skew, abs(float(qd @ (Mdot - 2 * C) @ qd)))

    # 2-link dynamics against the analytic Lagrangian oracle.
    two = builtin_planar_2link()
    worst_two = 0.0
    for _ in range(200):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        terms = dynamics.configuration_terms(two, [q]).at(0, qd)
        l1, lc, m1, m2, grav = 0.5, 0.25, 1.0, 1.0, 9.81
        c2 = np.cos(q[1])
        M = np.array([
            [m1 * lc ** 2 + m2 * (l1 ** 2 + lc ** 2 + 2 * l1 * lc * c2),
             m2 * (lc ** 2 + l1 * lc * c2)],
            [m2 * (lc ** 2 + l1 * lc * c2), m2 * lc ** 2]])
        h = m2 * l1 * lc * np.sin(q[1])
        C = np.array([[-h * qd[1], -h * (qd[0] + qd[1])], [h * qd[0], 0.0]])
        G = np.array([(m1 * lc + m2 * l1) * grav * np.cos(q[0])
                      + m2 * lc * grav * np.cos(q[0] + q[1]),
                      m2 * lc * grav * np.cos(q[0] + q[1])])
        worst_two = max(worst_two,
                        float(np.max(np.abs(terms.M - M))),
                        float(np.max(np.abs(
                            oracles.coriolis_matrix(two, q, qd) - C))),
                        float(np.max(np.abs(terms.bias - C @ qd))),
                        float(np.max(np.abs(terms.G - G))))

    # Cost-form equivalence on 100 random instances.
    worst_cost = 0.0
    mp = model.arm_joint_count
    for _ in range(100):
        N = int(rng.integers(1, 5))
        Nu = int(rng.integers(1, N + 1))
        t = float(rng.uniform(0.005, 0.05))
        q = Q0_FULL + rng.uniform(-0.1, 0.1, 13)
        qdp = rng.uniform(-0.2, 0.2, 7)
        refs = kin.forward_kinematics(model, q).as_vector() \
            + rng.uniform(-0.02, 0.02, (N, 6))
        weights = pomptc.PomptcWeights(
            pose=float(rng.uniform(10, 1000)) * np.eye(6),
            velocity=np.eye(mp), accel=20.0 * np.eye(mp))
        args = (model, q, qdp, refs, weights, t, N, Nu)
        prob = pomptc.assemble_qp(*args)
        z0 = np.zeros(prob.n_variables)
        off = oracles.direct_cost(*args, z0)
        for _ in range(3):
            z = rng.normal(scale=0.1, size=prob.n_variables)
            direct = oracles.direct_cost(*args, z) - off
            quad = prob.objective(z) - prob.objective(z0)
            worst_cost = max(worst_cost,
                             abs(quad - direct) / max(1.0, abs(direct)))

    ok = (worst_jac <= 1e-5 and spd_ok and worst_skew <= 1e-6
          and worst_two <= 1e-10 and worst_cost <= 1e-9)
    report(capsys, 7, "numerical kernel properties", ok,
           f"jacobian {worst_jac:.1e}, skew {worst_skew:.1e}, "
           f"2-link {worst_two:.1e}, cost form {worst_cost:.1e}")


def test_criterion_8_nftsm_finite_time_regulation(capsys):
    model = builtin_planar_2link()
    q_des = np.array([0.8, -0.4])

    def settle_time(params, steps=7000, dt=1e-3, tol=1e-3):
        q = np.array([1.0, -0.6])  # 0.2 rad initial joint error
        qd = np.zeros(2)
        err = np.zeros(steps)
        for i in range(steps):
            terms = dynamics.configuration_terms(model, [q]).at(0, qd)
            tau, _ = nftsm.control_torque(terms, q - q_des, qd, np.zeros(2),
                                          params)
            qd = qd + dt * dynamics.forward_dynamics(terms, tau)
            q = q + dt * qd
            err[i] = np.max(np.abs(q - q_des))
        if err[-1] > tol:
            return math.inf
        above = np.flatnonzero(err > tol)
        return (above[-1] + 1) * dt if above.size else 0.0

    details = []
    ok = True
    for r3 in (0.9, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t_base = settle_time(nftsm.NftsmParams(r3=r3, c1=20.0))
            t_fast = settle_time(nftsm.NftsmParams(r3=r3, c1=40.0))
        ok &= math.isfinite(t_base) and math.isfinite(t_fast) \
            and t_fast < t_base
        details.append(f"r3={r3}: c1=20 settles {t_base:.2f} s, "
                       f"c1=40 settles {t_fast:.2f} s")
    report(capsys, 8, "finite-time regulation, faster with doubled c1", ok,
           "; ".join(details))
