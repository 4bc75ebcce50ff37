"""Closed loops against the stored golden traces (see golden.py)."""
import re

import numpy as np
import pytest

from golden import CASES, GOLDEN_PATH, Q_TOL, TAU_TOL, diff, key, run_case


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return dict(data)


@pytest.mark.parametrize("config,controller", CASES)
def test_closed_loop_matches_golden_trace(golden, config, controller):
    q, tau, _ = run_case(config, controller)
    q_ref = golden[key(config, controller, "q")]
    tau_ref = golden[key(config, controller, "tau")]
    assert q.shape == q_ref.shape and tau.shape == tau_ref.shape
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=Q_TOL)
    np.testing.assert_allclose(tau, tau_ref, rtol=0, atol=TAU_TOL)


def test_diff_prints_each_case_and_writes_nothing(capsys):
    stamp = GOLDEN_PATH.stat().st_mtime_ns
    assert diff(CASES[:1]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(r"nominal_circle / nftsm: max \|dq\| = (\S+), "
                         r"max \|dtau\| = (\S+), FTCND iterations = (\d+)",
                         lines[0])
    assert match, lines[0]
    assert float(match[1]) <= Q_TOL and float(match[2]) <= TAU_TOL
    # Every plan solve passes the test at the endpoint of its first
    # segment, so the plan takes no FTCND step.
    assert int(match[3]) == 0
    assert GOLDEN_PATH.stat().st_mtime_ns == stamp
