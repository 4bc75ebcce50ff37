"""Command-line entry point: run scenarios, solve standalone QPs,
compare controllers.

Exit codes: 0 success, 1 configuration/usage error, 2 solver failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import ftcnd, pomptc, qp_oracle, sim
from .model import ConfigError, load_scenario

# Exit 2: a valid input that a solver or the plant cannot carry through.
_SOLVER_FAILURES = (sim.SimulationError, ftcnd.FtcndIntegrationError,
                    np.linalg.LinAlgError, qp_oracle.InfeasibleProblem,
                    qp_oracle.NotConverged)

_PANELS = {
    "path": (["pose_x", "pose_y", "pose_z", "ref_x", "ref_y", "ref_z"],
             "end-effector path vs reference (x-y projection)"),
    "position_error": (["err_pos_x", "err_pos_y", "err_pos_z"],
                       "position error components [m]"),
    "joint_angles": (["q_"], "joint angles [rad]"),
    "joint_velocities": (["qdot_"], "joint velocities [rad/s]"),
    "torques": (["tau_"], "joint torques [N m]"),
    "orientation": (["pose_yaw", "pose_pitch", "pose_roll",
                     "ref_yaw", "ref_pitch", "ref_roll"],
                    "orientation vs reference [rad]"),
    "orientation_error": (["err_ori_yaw", "err_ori_pitch", "err_ori_roll"],
                          "orientation error components [rad]"),
}

_PLOT_TEMPLATE = '''\
"""Plot {title} from trace.csv (run from the output directory)."""
import csv

import matplotlib.pyplot as plt

with open("trace.csv") as fh:
    reader = csv.reader(fh)
    header = next(reader)
    rows = [[float(x) for x in r] for r in reader]

cols = {{name: [r[i] for r in rows] for i, name in enumerate(header)}}
wanted = {columns!r}
names = [n for n in header
         for w in wanted if (n == w or (w.endswith("_") and n.startswith(w)
                                        and n[len(w):].isdigit()))]
t = cols["time"]
for name in dict.fromkeys(names):
    plt.plot(t, cols[name], label=name)
plt.xlabel("time [s]")
plt.title({title!r})
plt.legend(fontsize=7)
plt.tight_layout()
plt.savefig({png!r}, dpi=150)
print("wrote", {png!r})
'''


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    # Route parameter warnings (e.g. r3 = 1) to stdout: warnings on a
    # success path must not land on the error stream.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = load_scenario(text)
    for item in caught:
        print(f"warning: {item.message}")
    return result


def _write_outputs(out_dir: Path, plan, trace, model, script):
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_csv(out_dir / "steps.csv", sim.STEP_COLUMNS, [plan.steps])
    trace.to_csv(out_dir / "trace.csv")
    settle = min(2.0, script.duration / 2.0)
    metrics = sim.error_metrics(trace, settle, model=model) \
        | sim.plan_metrics(plan)
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    for panel, (columns, title) in _PANELS.items():
        script_text = _PLOT_TEMPLATE.format(columns=columns, title=title,
                                            png=f"{panel}.png")
        (out_dir / f"plot_{panel}.py").write_text(script_text,
                                                  encoding="utf-8")
    return metrics


def cmd_simulate(args) -> int:
    model, params, script = _load_config(args.config)
    plan = sim.plan(model, params, script)
    trace = sim.track(model, params, script, plan, controller=args.controller)
    metrics = _write_outputs(Path(args.out), plan, trace, model, script)
    print(f"wrote {args.out}/trace.csv ({len(trace.time)} rows)")
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_solve_qp(args) -> int:
    try:
        problem = pomptc.problem_from_text(
            Path(args.problem).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"problem file {args.problem}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError) as exc:
        print(f"malformed problem file: {exc}", file=sys.stderr)
        return 1

    results = {}
    if args.solver in ("ftcnd", "both"):
        params = ftcnd.FtcndParams()
        try:
            z, diag = ftcnd.solve(problem, params)
        except ValueError as exc:
            print(f"invalid problem: {exc}", file=sys.stderr)
            return 1
        if not diag.converged:
            print("ftcnd did not converge within max_time", file=sys.stderr)
            return 2
        results["ftcnd"] = z
        print(f"ftcnd z* = {np.array2string(z, precision=10)}")
        print(f"ftcnd objective = {problem.objective(z):.12g}")
        print(f"ftcnd converge_time = {diag.converge_time:.6g} "
              f"(bound {diag.bound_t_f:.6g})")
    if args.solver in ("oracle", "both"):
        try:
            z = qp_oracle.solve_reference(problem)
        except ValueError as exc:
            print(f"invalid problem: {exc}", file=sys.stderr)
            return 1
        results["oracle"] = z
        print(f"oracle z* = {np.array2string(z, precision=10)}")
        print(f"oracle objective = {problem.objective(z):.12g}")
    for name, z in results.items():
        rep = qp_oracle.check_kkt(problem, z, tol=1e-6)
        print(f"{name} KKT: stationarity {rep.stationarity_residual:.3g}, "
              f"primal {rep.primal_violation:.3g}, "
              f"complementarity {rep.complementarity_residual:.3g}, "
              f"pass {rep.passed}")
    if args.solver == "both":
        # FTCND solves the xi-penalized lift: compare it with the oracle's
        # solution of that same problem, and report the penalty bias apart.
        z_pen = qp_oracle.solve_reference(problem, penalized=True,
                                          xi=params.xi)
        gap = float(np.max(np.abs(results["ftcnd"] - z_pen)))
        bias = float(np.max(np.abs(results["oracle"] - z_pen)))
        print(f"|z_ftcnd - z_penalized|_inf = {gap:.6g}")
        print(f"penalty gap |z_oracle - z_penalized|_inf = {bias:.6g}")
    return 0


def cmd_compare(args) -> int:
    controllers = [c.strip() for c in args.controllers.split(",") if c.strip()]
    if len(controllers) < 2:
        print("compare needs at least two controllers", file=sys.stderr)
        return 1
    unknown = [c for c in controllers if c not in sim.CONTROLLERS]
    if unknown:
        print(f"unknown controller(s): {', '.join(unknown)}; choose from "
              f"{', '.join(sim.CONTROLLERS)}", file=sys.stderr)
        return 1
    repeated = [c for c in sim.CONTROLLERS if controllers.count(c) > 1]
    if repeated:
        print("repeated controller(s):", ", ".join(repeated), file=sys.stderr)
        return 1
    model, params, script = _load_config(args.config)

    # Write only after every track has run: a failed compare writes nothing.
    plan = sim.plan(model, params, script)
    traces = {name: sim.track(model, params, script, plan, controller=name)
              for name in controllers}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_csv(out_dir / "steps.csv", sim.STEP_COLUMNS, [plan.steps])

    settle = min(2.0, script.duration / 2.0)
    summary = {}
    for name, trace in traces.items():
        trace.to_csv(out_dir / f"trace_{name}.csv")
        summary[name] = sim.error_metrics(trace, settle, model=model) \
            | sim.plan_metrics(plan)

    head = ["time"] + [f"{c}_pos_err" for c in controllers] \
        + [f"{c}_ori_err" for c in controllers]
    cols = [traces[controllers[0]].time] \
        + [np.max(np.abs(traces[c].err_pos), axis=1) for c in controllers] \
        + [np.max(np.abs(traces[c].err_ori), axis=1) for c in controllers]
    sim.write_csv(out_dir / "errors.csv", head, cols)

    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    width = max(len(c) for c in controllers)
    print(f"{'controller':<{width}}  steady_pos_err  steady_ori_err")
    for name in controllers:
        s = summary[name]
        print(f"{name:<{width}}  {s['steady_state_pos_err']:<14.6g}  "
              f"{s['steady_state_ori_err']:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtrack",
        description="Mobile-manipulator tracking: predictive QP layer "
                    "solved by finite-time neural dynamics, cascaded into "
                    "a terminal sliding-mode torque controller.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("--config", required=True, help="scenario YAML file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--controller", default="nftsm", choices=sim.CONTROLLERS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve-qp", help="solve a standalone QP file")
    p.add_argument("--problem", required=True,
                   help="problem in the text matrix format")
    p.add_argument("--solver", default="both",
                   choices=("ftcnd", "oracle", "both"))
    p.set_defaults(func=cmd_solve_qp)

    p = sub.add_parser("compare", help="run several controllers on one scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--controllers", required=True,
                   help="comma-separated list, e.g. nftsm,pd")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _SOLVER_FAILURES as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
