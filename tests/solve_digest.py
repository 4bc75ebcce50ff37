"""SHA-256 digests of 720 FTCND solves, to show that a change to the
solver or its scalar law leaves every solve bit-identical.

Run on two checkouts and compare the printed lines:

    PYTHONPATH=src python tests/solve_digest.py

The solves are the 200 criterion-1 QPs at the default gains, the 200
QPs of each of the benchmark's ``qp_batch`` seeds 0 and 7, and 60
criterion-1 QPs each at kappa = 0.3 with ode_step = 0.05 and at
kappa = 0.1.  A digest covers z, bound_t_f, the three histories, the
event counts and ``converged`` of every solve in its set.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import solver_batch_problems  # noqa: E402
from mmtrack import ftcnd  # noqa: E402
from workloads import make_batch  # noqa: E402


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
                        diag.converged]):
            sha.update(np.asarray(values, float).tobytes())
    return sha.hexdigest()


if __name__ == "__main__":
    for name, problems, params in solve_sets():
        print(f"{name:22s} {len(problems):4d} {digest(problems, params)}")
