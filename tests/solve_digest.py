"""SHA-256 digests of 720 cold FTCND solves and of the plans of the
three shipped configs, to show that a change to the solver, its scalar
law or the QP assembly leaves every solve bit-identical.

Run on two checkouts and compare the printed lines:

    PYTHONPATH=src python tests/solve_digest.py

The cold solves are the 200 criterion-1 QPs at the default gains, the
200 QPs of each of the benchmark's ``qp_batch`` seeds 0 and 7, and 60
criterion-1 QPs each at kappa = 0.3 with ode_step = 0.05 and at
kappa = 0.1.  A cold digest covers z, bound_t_f, the three histories,
the event counts, ``converged``, ``constraint_violation``,
``equality_residual`` and ``final_state.h`` of every solve in its set.
A plan digest covers ``q_md``, ``qd_md``, ``qdd_md`` and ``steps`` (the
diagnostics of every warm solve, each settling at its start) of
``sim.plan`` at the config's own duration.
"""
from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import solver_batch_problems  # noqa: E402
from mmtrack import ftcnd, sim  # noqa: E402
from mmtrack.model import load_scenario  # noqa: E402
from workloads import make_batch  # noqa: E402

CONFIGS = ("nominal_circle", "base_sinusoid", "base_tilt")


def solve_sets():
    criterion = solver_batch_problems()
    yield "criterion_1", criterion, ftcnd.FtcndParams()
    for seed in (0, 7):
        yield (f"qp_batch_seed_{seed}", *make_batch(seed))
    yield ("kappa_0.3_step_0.05", criterion[:60],
           ftcnd.FtcndParams(kappa=0.3, ode_step=0.05))
    yield "kappa_0.1", criterion[:60], ftcnd.FtcndParams(kappa=0.1)


def digest(problems, params) -> str:
    sha = hashlib.sha256()
    for problem in problems:
        z, diag = ftcnd.solve(problem, params)
        for values in (z, [diag.bound_t_f], diag.h_inf_history,
                       diag.f_history, diag.time_history,
                       [diag.projection_events, diag.release_events,
                        diag.converged, diag.constraint_violation,
                        diag.equality_residual], diag.final_state.h):
            sha.update(np.asarray(values, float).tobytes())
    return sha.hexdigest()


def plan_of(name):
    """``sim.plan`` of the shipped config ``name``."""
    text = (ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sim.plan(*load_scenario(text))


def plan_digest(plan) -> str:
    sha = hashlib.sha256()
    for values in (plan.q_md, plan.qd_md, plan.qdd_md, plan.steps):
        sha.update(np.ascontiguousarray(values, float).tobytes())
    return sha.hexdigest()


if __name__ == "__main__":
    for name, problems, params in solve_sets():
        print(f"{name:22s} {len(problems):4d} {digest(problems, params)}")
    for name in CONFIGS:
        plan = plan_of(name)
        print(f"{'plan_' + name:22s} {len(plan.steps):4d} "
              f"{plan_digest(plan)}")
