"""Workloads of the mmtrack benchmark: two closed loops and a QP batch.

Each workload sets up, then repeats one unit of work (a closed-loop
episode, or one pass over a batch of QPs) for the time it is given,
checks every unit against a reference outside the timed region, and
reports its metrics.  The program is driven only through its public
functions, always looked up on their modules at call time so that the
wrappers of ``spans.Tracer`` see them.
"""
from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

from mmtrack import dynamics, ftcnd, kinematics, nftsm, pomptc, qp_oracle, sim
from mmtrack import model as mm_model
from spans import Tracer, busy_time, self_times
from speed import SpeedReference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (scenario file under configs/, simulated seconds per episode).
# 2 s gives 200 distinct solves, so qp_solve_ms_p95 has 10 beyond it, and
# base_sinusoid's relaxation guard first fires near t = 1.48 s.
CLOSED_LOOPS = {
    "nominal_static": ("nominal_circle.yaml", 2.0),
    "base_sinusoid": ("base_sinusoid.yaml", 2.0),
}
WORKLOADS = (*CLOSED_LOOPS, "qp_batch")

# The seed picks one of VARIANTS stored inputs of a closed loop: the
# config's initial_q (variant 0) or one perturbed by up to VARIANT_SPREAD
# rad per arm joint.  Each variant has a reference trace made by
# make_reference.py.
VARIANTS = 4
VARIANT_SPREAD = 0.01

# Correctness tolerances.  Q_TOL / TAU_TOL bound the absolute difference
# from the reference trace at every control-step boundary; a one-ulp
# change of initial_q moves tau by ~4e-12 and halving ftcnd's epsilon_h
# moves it by ~4e-9.  Z_TOL bounds |z - z_oracle| of a QP solve.
Q_TOL = 1e-9
TAU_TOL = 1e-7
Z_TOL = 1e-6

QP_COUNT = 200
QP_PERIOD = 0.01     # each batch QP stands for one 100 Hz control step
SETUP_SECONDS = 0.25  # set-up repeats before every unit of work

END_TO_END = {
    "setup_s": "s",
    "wall_per_sim_s": "s/s",
    "qp_solve_ms_p50": "ms",
    "qp_solve_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.load_s": "s",
    "setup.import_s": "s",
    "pomptc.assemble_calls": "count",
    "pomptc.assemble_ms_p50": "ms",
    "pomptc.self_s": "s",
    "kinematics.fk_calls": "count",
    "kinematics.jacobian_calls": "count",
    "kinematics.busy_s": "s",
    "ftcnd.solve_calls": "count",
    "ftcnd.cold_solves": "count",
    "ftcnd.solve_ms_p50": "ms",
    "ftcnd.solve_ms_p90": "ms",
    "ftcnd.iterations_p50": "count",
    "ftcnd.iterations_max": "count",
    "ftcnd.us_per_iteration": "us",
    "ftcnd.events": "count",
    "ftcnd.step_halvings": "count",
    "ftcnd.converged_ratio": "ratio",
    "ftcnd.busy_s": "s",
    "dynamics.terms_calls": "count",
    "dynamics.terms_us_p50": "us",
    "dynamics.tau_b_calls": "count",
    "dynamics.tau_b_us_p50": "us",
    "dynamics.tau_b_zero_ratio": "ratio",
    "dynamics.fwd_self_us_p50": "us",
    "dynamics.busy_s": "s",
    "nftsm.torque_calls": "count",
    "nftsm.torque_us_p50": "us",
    "nftsm.busy_s": "s",
    "sim.control_steps": "count",
    "sim.torque_steps": "count",
    "sim.relaxations": "count",
    "sim.self_s": "s",
    "sim.csv_write_s": "s",
    "sim.csv_bytes": "bytes",
    "sim.metrics_s": "s",
    "sim.ss_pos_err_mm": "mm",
    "trace.overhead_wall_per_sim_s": "s/s",
}


def _solve_attrs(args, kwargs, result):
    diag = result[1]
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    return {"cold": warm is None, "iterations": diag.iterations,
            "events": diag.projection_events + diag.release_events,
            "halvings": diag.step_halvings, "converged": diag.converged}


def _tau_b_attrs(args, kwargs, result):
    return {"zero": not np.any(result)}


# Calls followed by a speed probe: one per QP solve, and in a closed
# loop also one per torque step.
PROBED = [(ftcnd, "solve"), (nftsm, "control_torque")]

# The solve clock: the one wrapper an untraced run installs, so that
# qp_solve_ms_* can be read inside a closed loop.
SOLVE_CLOCK = [(ftcnd, "solve", "ftcnd.solve", None)]

TRACE_TARGETS = [
    (ftcnd, "solve", "ftcnd.solve", _solve_attrs),
    (mm_model, "load_scenario", "model.load_scenario", None),
    (pomptc, "assemble_qp", "pomptc.assemble_qp", None),
    (dynamics, "dynamics_terms", "dynamics.terms", None),
    (dynamics, "base_disturbance_torque", "dynamics.tau_b", _tau_b_attrs),
    (dynamics, "forward_dynamics", "dynamics.forward", None),
    (nftsm, "control_torque", "nftsm.control_torque", None),
    (kinematics, "forward_kinematics", "kinematics.fk", None),
    (kinematics, "geometric_jacobian", "kinematics.jacobian", None),
    (sim, "run_closed_loop", "sim.run_closed_loop", None),
    (sim.SimTrace, "to_csv", "sim.to_csv", None),
    (sim, "error_metrics", "sim.error_metrics", None),
]


def pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return pct(values, 50)


def per_index_median(runs):
    """Median over repeats of each solve's time; the repeats of one unit
    of work make the same solves, so this keeps one sample per solve."""
    return np.median(np.array(runs), axis=0) if runs else np.zeros(0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_repeats(fn, seconds, speed):
    """(start, end) of calls of ``fn`` repeated for ``seconds`` (at
    least three calls), each followed by a speed probe, and its last
    result."""
    intervals = []
    start = time.perf_counter()
    while len(intervals) < 3 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = fn()
        intervals.append((t0, time.perf_counter()))
        speed.probe()
    return intervals, out


# --- closed loops ----------------------------------------------------------

def load_closed_loop(text, initial_q, duration):
    """Config parse, model and parameter construction, and the episode's
    scenario: everything a closed loop pays before its first step."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the shipped configs set r3 = 1
        model, params, script = mm_model.load_scenario(text)
    script = dataclasses.replace(script, duration=duration,
                                 initial_q=tuple(initial_q))
    return model, params, script


def variant_inputs(name, variant):
    """initial_q and duration of one stored closed-loop variant."""
    cfg, duration = CLOSED_LOOPS[name]
    text = (ROOT / "configs" / cfg).read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q0 = np.array(mm_model.load_scenario(text)[2].initial_q)
    if variant:
        rng = np.random.default_rng(variant)
        q0 = q0 + rng.uniform(-VARIANT_SPREAD, VARIANT_SPREAD, q0.size)
    return q0, duration


def run_episode(model, params, script, out_dir, tracer):
    """The simulate path after setup: run, then write trace.csv and
    metrics.json as ``mmtrack simulate`` does."""
    with tracer.region("bench.episode"):
        trace = sim.run_closed_loop(model, params, script)
        trace.to_csv(out_dir / "trace.csv")
        metrics = sim.error_metrics(trace, min(2.0, script.duration / 2.0),
                                    model=model)
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return trace, metrics


def check_episode(trace, ref_q, ref_tau, spc, csv_path):
    """None if the episode matches its reference, else the reason."""
    q, tau = trace.q[::spc], trace.tau[::spc]
    if q.shape != ref_q.shape or tau.shape != ref_tau.shape:
        return f"trace shape {q.shape} differs from reference {ref_q.shape}"
    dq = float(np.max(np.abs(q - ref_q)))
    dtau = float(np.max(np.abs(tau - ref_tau)))
    if not (dq <= Q_TOL and dtau <= TAU_TOL):
        return (f"|q - q_ref| = {dq:.3g} (tol {Q_TOL:g}), "
                f"|tau - tau_ref| = {dtau:.3g} (tol {TAU_TOL:g})")
    with open(csv_path, "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != len(trace.time) + 1:
        return f"trace.csv has {lines} lines, expected {len(trace.time) + 1}"
    return None


def _measure(budget, step):
    """Call ``step()`` until another call would overrun ``budget``
    seconds (at least once); ``step`` returns its wall time."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(step())
        if time.perf_counter() - start + median(walls) > budget:
            return walls


def _run_phases(tracer, speed, seconds, traced, unit, untraced_targets):
    """Run ``unit(label)`` with ``untraced_targets`` wrapped for
    ``seconds`` or, when ``traced``, for half of them and then under all
    trace targets for the other half; every FTCND solve and NFTSM
    torque is followed by a speed probe.  Returns the untraced and the
    traced labels."""
    def phase(prefix, budget, targets):
        labels = []

        def step():
            labels.append(f"{prefix}{len(labels)}")
            return unit(labels[-1])
        with tracer.patched(targets), \
                speed.after_calls(PROBED,
                                  lambda: tracer.region("bench.probe")):
            _measure(budget, step)
        return labels

    if not traced:
        return phase("u", seconds, untraced_targets), []
    return (phase("u", seconds / 2.0, untraced_targets),
            phase("t", seconds / 2.0, TRACE_TARGETS))


def _timed_setup(tracer, speed, build, intervals):
    """Set up repeatedly for SETUP_SECONDS under the "setup" run label,
    adding each (start, end) to ``intervals``; returns the last build.
    One set-up call takes 2-25 ms and says little; a median over a
    quarter second before every unit of work is steady."""
    run, tracer.run = tracer.run, "setup"
    new, built = timed_repeats(build, SETUP_SECONDS, speed)
    tracer.run = run
    intervals.extend(new)
    return built


def _scaled_all(speed, intervals) -> list[float]:
    return [speed.scaled(a, b) for a, b in intervals]


def closed_loop(name, seed, seconds, traced, out_dir, import_s):
    cfg, _ = CLOSED_LOOPS[name]
    ref = np.load(HERE / "reference" / f"{name}.npz")
    variant = seed % VARIANTS
    initial_q, duration = ref["initial_q"][variant], float(ref["duration"])
    ref_q, ref_tau = ref["q"][variant], ref["tau"][variant]
    config = ROOT / "configs" / cfg
    tracer = Tracer()
    speed = SpeedReference()
    setup_spans = []
    tally = {"attempted": 0, "failed": 0, "samples": {}}
    episodes = {}           # run label -> facts of a checked episode

    def build():
        return load_closed_loop(config.read_text(encoding="utf-8"),
                                initial_q, duration)

    def episode(label):
        model, params, script = _timed_setup(tracer, speed, build,
                                             setup_spans)
        tracer.run = label
        tally["attempted"] += 1
        t0 = time.perf_counter()
        try:
            trace, metrics = run_episode(model, params, script, out_dir,
                                         tracer)
        except Exception:
            traceback.print_exc()
            tally["failed"] += 1
            return time.perf_counter() - t0
        t1 = time.perf_counter()
        csv_path = out_dir / "trace.csv"
        spc = round(script.control_period / script.torque_period)
        problem = check_episode(trace, ref_q, ref_tau, spc, csv_path)
        if problem:
            print(f"perfbench: {name} episode {label}: {problem}",
                  file=sys.stderr)
            tally["failed"] += 1
        else:
            episodes[label] = {
                "span": (t0, t1),
                "control_steps": round(script.duration
                                       / script.control_period),
                "torque_steps": len(trace.time) - 1,
                "csv_bytes": csv_path.stat().st_size,
                "ss_pos_err_mm": 1e3 * metrics["steady_state_pos_err"],
            }
        return t1 - t0

    plain, traced_labels = _run_phases(tracer, speed, seconds, traced,
                                       episode, SOLVE_CLOCK)
    plain = [label for label in plain if label in episodes]
    traced_labels = [label for label in traced_labels if label in episodes]
    setup_times = _scaled_all(speed, setup_spans)
    tally["samples"].update(setup_s=setup_times, **speed_samples(speed))

    def wall_per_sim(labels):
        return median(_scaled_all(speed, [episodes[label]["span"]
                                          for label in labels])) / duration

    if not traced:
        solves = [[speed.scaled(s.start, s.end)
                   for s in map(tracer.spans.__getitem__,
                                tracer.of_run(label))
                   if s.name == "ftcnd.solve"]
                  for label in plain]
        per_solve = per_index_median(solves)
        tally["samples"].update(
            episode_s=[speed.scaled(*episodes[label]["span"])
                       for label in plain],
            solve_s=solves)
        return tally, {
            "setup_s": median(setup_times),
            "wall_per_sim_s": wall_per_sim(plain),
            "qp_solve_ms_p50": 1e3 * pct(per_solve, 50),
            "qp_solve_ms_p95": 1e3 * pct(per_solve, 95),
            "peak_rss_mb": peak_rss_mb(),
        }, tracer

    selfs = self_times(tracer.spans)
    rows = []
    for label in traced_labels:
        facts = episodes[label]
        row = layer_metrics(tracer, selfs, label)
        row.update({
            "sim.control_steps": facts["control_steps"],
            "sim.torque_steps": facts["torque_steps"],
            "sim.relaxations": row["ftcnd.solve_calls"]
            - facts["control_steps"],
            "sim.csv_bytes": facts["csv_bytes"],
            "sim.ss_pos_err_mm": facts["ss_pos_err_mm"],
        })
        rows.append(row)
    loads = [tracer.spans[i].duration for i in tracer.of_run("setup")
             if tracer.spans[i].name == "model.load_scenario"]
    extra = {"model.load_s": median(loads), "setup.import_s": import_s,
             "trace.overhead_wall_per_sim_s":
             wall_per_sim(traced_labels) - wall_per_sim(plain)}
    return tally, merge_rows(rows, extra), tracer


# --- QP batch ----------------------------------------------------------------

def qp_shapes(count=QP_COUNT):
    """Fixed (m', Nu, N) schedule: m'Nu from 2 to 40, every tenth QP at
    the panda size (7, 5, 5): 35 variables, 210 rows."""
    shapes = []
    for i in range(count):
        if i % 10 == 0:
            shapes.append((7, 5, 5))
            continue
        mp = 1 + i % 8
        nu = 1 + (i // 8) % 5
        n = nu + (i // 40) % (6 - nu)
        if mp * nu < 2:
            nu, n = 2, max(n, 2)
        shapes.append((mp, nu, n))
    return shapes


def random_qp(rng, mp, nu, n, t=QP_PERIOD):
    """Strictly convex QP with the pomptc row structure, feasible by
    construction: the bounds sit at non-negative margins from a point
    offset from the unconstrained minimizer, so some rows are active."""
    nz = mp * nu
    nc = (2 * n + 4 * nu) * mp
    a = rng.normal(size=(nz, nz))
    S = a @ a.T + nz * np.eye(nz)
    G = 2.0 * rng.normal(size=nz)
    H = rng.normal(size=(nc, nz))
    anchor = np.linalg.solve(S, -G) + rng.normal(scale=0.5, size=nz)
    w = H @ anchor + rng.uniform(0.0, 0.8, nc)
    return pomptc.QpProblem(S, G, H, w, t, n, nu, mp)


def make_batch(seed):
    rng = np.random.default_rng(seed)
    return ([random_qp(rng, *shape) for shape in qp_shapes()],
            ftcnd.FtcndParams(ode_step=1e-3))


def qp_batch(seed, seconds, traced, out_dir, import_s):
    tracer = Tracer()
    speed = SpeedReference()
    setup_spans = []
    problems, params = make_batch(seed)
    refs = [qp_oracle.solve_reference(p, penalized=True, xi=params.xi)
            for p in problems]
    tally = {"attempted": 0, "failed": 0, "samples": {}}
    passes = {}             # run label -> per-problem (start, end)

    def one_pass(label):
        # The rebuilt batch equals the one the oracle solved: same seed.
        batch, ft_params = _timed_setup(tracer, speed,
                                        lambda: make_batch(seed),
                                        setup_spans)
        tracer.run = label
        spans, results = [], []
        t_pass = time.perf_counter()
        with tracer.region("bench.pass"):
            for p in batch:
                # the interval also holds the probe after the solve;
                # speed.scaled leaves it out
                t0 = time.perf_counter()
                results.append(ftcnd.solve(p, ft_params))
                spans.append((t0, time.perf_counter()))
        wall = time.perf_counter() - t_pass
        for i, ((z, diag), z_ref) in enumerate(zip(results, refs)):
            tally["attempted"] += 1
            err = float(np.max(np.abs(z - z_ref)))
            if not (diag.converged and err <= Z_TOL):
                tally["failed"] += 1
                print(f"perfbench: qp {i}: converged {diag.converged}, "
                      f"|z - z_oracle| = {err:.3g} (tol {Z_TOL:g})",
                      file=sys.stderr)
        passes[label] = spans
        return wall

    plain, traced_labels = _run_phases(tracer, speed, seconds, traced,
                                       one_pass, [])
    setup_times = _scaled_all(speed, setup_spans)
    tally["samples"].update(setup_s=setup_times, **speed_samples(speed))
    scaled = {label: _scaled_all(speed, spans)
              for label, spans in passes.items()}

    def wall_per_sim(labels):
        per_qp = per_index_median([scaled[label] for label in labels])
        return float(np.sum(per_qp)) / (len(problems) * QP_PERIOD)

    if not traced:
        runs = [scaled[label] for label in plain]
        per_qp = per_index_median(runs)
        tally["samples"]["solve_s"] = runs
        return tally, {
            "setup_s": median(setup_times),
            "wall_per_sim_s": wall_per_sim(plain),
            "qp_solve_ms_p50": 1e3 * pct(per_qp, 50),
            "qp_solve_ms_p95": 1e3 * pct(per_qp, 95),
            "peak_rss_mb": peak_rss_mb(),
        }, tracer

    selfs = self_times(tracer.spans)
    rows = [layer_metrics(tracer, selfs, label) for label in traced_labels]
    extra = {"model.load_s": 0.0, "setup.import_s": import_s,
             "trace.overhead_wall_per_sim_s":
             wall_per_sim(traced_labels) - wall_per_sim(plain)}
    return tally, merge_rows(rows, extra), tracer


def speed_samples(speed) -> dict:
    """The probe times and the speed factors made of them, for
    result.json."""
    return {"probe_s": speed.durations().tolist(),
            "speed_factor": speed.factors().tolist()}


# --- per-layer metrics -------------------------------------------------------

def layer_metrics(tracer, selfs, run) -> dict:
    """Per-layer numbers of one traced episode or pass."""
    spans = tracer.spans
    idx = tracer.of_run(run)
    by_name = defaultdict(list)
    for i in idx:
        by_name[spans[i].name].append(i)

    def durs(name):
        return [spans[i].duration for i in by_name[name]]

    def self_sum(name):
        return float(sum(selfs[i] for i in by_name[name]))

    solve_attrs = [spans[i].attrs for i in by_name["ftcnd.solve"]]
    iters = [a["iterations"] for a in solve_attrs]
    solve_s = sum(durs("ftcnd.solve"))
    tau_b = [spans[i].attrs["zero"] for i in by_name["dynamics.tau_b"]]
    return {
        "pomptc.assemble_calls": len(by_name["pomptc.assemble_qp"]),
        "pomptc.assemble_ms_p50": 1e3 * median(durs("pomptc.assemble_qp")),
        "pomptc.self_s": self_sum("pomptc.assemble_qp"),
        "kinematics.fk_calls": len(by_name["kinematics.fk"]),
        "kinematics.jacobian_calls": len(by_name["kinematics.jacobian"]),
        "kinematics.busy_s": busy_time(spans, idx, "kinematics"),
        "ftcnd.solve_calls": len(solve_attrs),
        "ftcnd.cold_solves": sum(a["cold"] for a in solve_attrs),
        "ftcnd.solve_ms_p50": 1e3 * median(durs("ftcnd.solve")),
        "ftcnd.solve_ms_p90": 1e3 * pct(durs("ftcnd.solve"), 90),
        "ftcnd.iterations_p50": median(iters),
        "ftcnd.iterations_max": max(iters, default=0),
        "ftcnd.us_per_iteration": 1e6 * solve_s / sum(iters)
        if sum(iters) else 0.0,
        "ftcnd.events": sum(a["events"] for a in solve_attrs),
        "ftcnd.step_halvings": sum(a["halvings"] for a in solve_attrs),
        "ftcnd.converged_ratio": float(np.mean([a["converged"]
                                                for a in solve_attrs]))
        if solve_attrs else 0.0,
        "ftcnd.busy_s": busy_time(spans, idx, "ftcnd"),
        "dynamics.terms_calls": len(by_name["dynamics.terms"]),
        "dynamics.terms_us_p50": 1e6 * median(durs("dynamics.terms")),
        "dynamics.tau_b_calls": len(tau_b),
        "dynamics.tau_b_us_p50": 1e6 * median(durs("dynamics.tau_b")),
        "dynamics.tau_b_zero_ratio": float(np.mean(tau_b)) if tau_b else 0.0,
        "dynamics.fwd_self_us_p50": 1e6 * median(
            [selfs[i] for i in by_name["dynamics.forward"]]),
        "dynamics.busy_s": busy_time(spans, idx, "dynamics"),
        "nftsm.torque_calls": len(by_name["nftsm.control_torque"]),
        "nftsm.torque_us_p50": 1e6 * median(durs("nftsm.control_torque")),
        "nftsm.busy_s": busy_time(spans, idx, "nftsm"),
        "sim.self_s": self_sum("sim.run_closed_loop"),
        "sim.csv_write_s": sum(durs("sim.to_csv")),
        "sim.metrics_s": sum(durs("sim.error_metrics")),
    }


def merge_rows(rows, extra) -> dict:
    """Median over traced units of each metric (counts agree exactly,
    since every unit repeats the same deterministic work); a metric no
    unit reports, such as sim.* on qp_batch, reads 0."""
    out = dict.fromkeys(PER_LAYER, 0)
    for key in rows[0] if rows else ():
        values = [r[key] for r in rows]
        out[key] = values[0] if len(set(values)) == 1 else median(values)
    out.update(extra)
    return {key: out[key] for key in PER_LAYER}
