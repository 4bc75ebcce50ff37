"""Golden closed-loop traces: the cases, how to run one, and how to
regenerate the stored file.

    PYTHONPATH=src python tests/golden.py --diff

prints, for every case, the largest |dq| and |dtau| of the current code
against ``tests/data/golden_traces.npz`` and the total FTCND iterations
of its config's plan, and writes nothing.  Each config is planned once,
and each of its controllers tracks that plan.  It exits 1 when a case
has another shape or exceeds Q_TOL or TAU_TOL, else 0; the iterations
only inform.

    PYTHONPATH=src python tests/golden.py

rewrites that file from the current code.  Do that only for a change
that is meant to alter closed-loop outputs, and justify the move in
CHANGES.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from mmtrack import ftcnd, sim
from mmtrack.model import load_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_traces.npz"
DURATION = 0.5
# Largest |dq| and |dtau| against the stored traces that still passes.
Q_TOL = 1e-9
TAU_TOL = 1e-8

# (config under configs/, controller)
CASES = (
    ("nominal_circle", "nftsm"),
    ("nominal_circle", "pd"),
    ("base_sinusoid", "nftsm"),
    ("base_sinusoid", "nftsm-no-taub"),
    ("base_sinusoid", "pd"),
    ("base_tilt", "nftsm"),
    ("base_tilt", "pd"),
)


@functools.cache
def plan_case(config):
    """The model, parameters and DURATION-second script of ``config``,
    its plan, and the plan's total FTCND iterations."""
    text = (ROOT / "configs" / f"{config}.yaml").read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the shipped configs set r3 = 1
        model, params, script = load_scenario(text)
    script = dataclasses.replace(script, duration=DURATION)
    iterations, solve = [], ftcnd.solve

    def counting(*args, **kwargs):
        z, diag = solve(*args, **kwargs)
        iterations.append(diag.iterations)
        return z, diag
    with mock.patch.object(ftcnd, "solve", counting):
        plan = sim.plan(model, params, script)
    return model, params, script, plan, sum(iterations)


def run_case(config, controller):
    """q and tau at every control-step row of the config's plan tracked
    by ``controller``, and the plan's total FTCND iterations."""
    model, params, script, plan, iterations = plan_case(config)
    trace = sim.track(model, params, script, plan, controller=controller)
    spc = round(script.control_period / script.torque_period)
    return trace.q[::spc], trace.tau[::spc], iterations


def key(config, controller, column):
    return f"{config}:{controller}:{column}"


def diff(cases=CASES):
    """Print the largest |dq| and |dtau| of each case against the stored
    traces, and its FTCND iterations; return 1 if any case has another
    shape or exceeds Q_TOL or TAU_TOL, else 0."""
    with np.load(GOLDEN_PATH) as data:
        golden = dict(data)
    status = 0
    for config, controller in cases:
        q, tau, iterations = run_case(config, controller)
        q_ref = golden[key(config, controller, "q")]
        tau_ref = golden[key(config, controller, "tau")]
        if q.shape != q_ref.shape or tau.shape != tau_ref.shape:
            print(f"{config} / {controller}: shape {q.shape} against "
                  f"stored {q_ref.shape}", flush=True)
            status = 1
            continue
        dq = np.max(np.abs(q - q_ref))
        dtau = np.max(np.abs(tau - tau_ref))
        print(f"{config} / {controller}: max |dq| = {dq:.3g}, "
              f"max |dtau| = {dtau:.3g}, FTCND iterations = {iterations}",
              flush=True)
        if not (dq <= Q_TOL and dtau <= TAU_TOL):
            status = 1
    return status


def regenerate():
    arrays = {}
    for config, controller in CASES:
        q, tau, _ = run_case(config, controller)
        arrays[key(config, controller, "q")] = q
        arrays[key(config, controller, "tau")] = tau
        print(f"{config} / {controller}: {len(q)} rows", flush=True)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, **arrays)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare with the stored traces; write nothing")
    if parser.parse_args().diff:
        sys.exit(diff())
    else:
        regenerate()
