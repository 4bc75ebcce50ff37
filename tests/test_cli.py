import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import hand_qp
import mmtrack
from mmtrack import cli, ftcnd, pomptc

SHORT_CONFIG = """
robot:
  builtin: planar_2link
scenario:
  duration: 0.2
  reference:
    radius: 0.0
  initial_q: [0.3, 1.0]
"""

# The solver gets 1e-4 s of virtual time per solve: every control step
# fails to converge, so the fourth one exhausts the failure budget.
NON_CONVERGING_CONFIG = """
robot:
  builtin: planar_2link
scenario:
  duration: 0.1
  reference:
    radius: 0.05
    angular_rate: 3.0
  initial_q: [0.3, 1.0]
ftcnd:
  max_time: 1.0e-4
"""

BAD_LIMITS_CONFIG = """
robot:
  builtin: planar_2link
  limits:
    q_lower: [2.0, -1.0]
    q_upper: [1.0, 1.0]
"""


@pytest.fixture
def short_config(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SHORT_CONFIG, encoding="utf-8")
    return path


def test_simulate_success(tmp_path, short_config, capsys):
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(short_config),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    # The r3 = 1 default warns; warnings on a success run go to stdout.
    assert "warning:" in captured.out
    assert "201 rows" in captured.out
    assert (out / "trace.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert "steady_state_pos_err" in metrics
    plots = sorted(p.name for p in out.glob("plot_*.py"))
    assert len(plots) == 7
    assert "plot_position_error.py" in plots


def test_simulate_missing_config(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "nope.yaml" in captured.err


def test_simulate_invalid_config_names_key(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(BAD_LIMITS_CONFIG, encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "index 0" in captured.err


@pytest.mark.parametrize("scenario, key", [
    ("disturbance: {kind: step, value: [1, 2]}", "disturbance.value"),
    ("disturbance: {kind: sinusoid, amplitude: [1, 2]}",
     "disturbance.amplitude"),
    ("base_motion: {kind: sinusoid, axis: 9}", "base_motion.axis"),
    ("base_motion: {kind: sinusoid, amplitude: x}", "base_motion.amplitude"),
    ("reference: {angular_rate: [1]}", "reference.angular_rate"),
    ("disturbance: {kind: step, time: soon}", "disturbance.time"),
])
def test_simulate_malformed_scenario_value_exits_1(tmp_path, capsys,
                                                   scenario, key):
    path = tmp_path / "bad.yaml"
    path.write_text("robot:\n  builtin: panda_on_base\nscenario:\n"
                    f"  {scenario}\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


ARM = "robot: {builtin: planar_2link}\n"
SHORT = "scenario: {duration: 0.02}\n"


@pytest.mark.parametrize("doc, controller, key", [
    (ARM + SHORT + "ftcnd: {xii: 3}", "nftsm", "ftcnd.xii"),
    (ARM + SHORT + "nftsm: {compensate_bse: false}", "nftsm",
     "nftsm.compensate_bse"),
    (ARM + "scenario: {duration: 0.02, durration: 3}", "nftsm",
     "scenario.durration"),
    ("robot: {builtin: planar_2link, limitz: {}}\n" + SHORT, "nftsm",
     "robot.limitz"),
    (ARM + SHORT + "pomptc: {horizn: 3}", "nftsm", "pomptc.horizn"),
    (ARM + SHORT + "foo: 1", "nftsm", "foo: unknown key"),
    (ARM + SHORT + "ftcnd: {mu: .nan}", "nftsm", "mu"),
    (ARM + SHORT + "nftsm: {delta: .inf}", "nftsm", "delta"),
    (ARM + SHORT + "pd: {kp: 0}", "pd", "pd.kp"),
    (ARM + SHORT + "nftsm: {compensate_base: 'false'}", "nftsm",
     "nftsm.compensate_base"),
], ids=["ftcnd_key", "nftsm_key", "scenario_key", "robot_key",
        "pomptc_key", "top_key", "ftcnd_nan", "nftsm_inf", "pd_zero",
        "compensate_base_string"])
def test_simulate_config_probe_exits_1(tmp_path, capsys, doc, controller,
                                       key):
    path = tmp_path / "bad.yaml"
    path.write_text(doc + "\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path), "--controller",
                   controller, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()


def run_cli(*args):
    """``python -m mmtrack.cli args`` in a fresh process."""
    src = str(Path(mmtrack.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mmtrack.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_simulate_malformed_value_exits_without_traceback(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("robot:\n  builtin: planar_2link\nscenario:\n"
                    "  initial_q: 3\n", encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "initial_q" in proc.stderr


def test_simulate_all_false_mpc_mask_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("robot:\n  builtin: planar_2link\n"
                    "  actuated_by_mpc: [false, false]\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "actuated_by_mpc" in capsys.readouterr().err


@pytest.mark.parametrize("duration", [".inf", ".nan", "1.0e+9"])
def test_simulate_unbounded_duration_exits_1_without_traceback(tmp_path,
                                                               duration):
    path = tmp_path / "long.yaml"
    path.write_text("robot:\n  builtin: planar_2link\nscenario:\n"
                    f"  duration: {duration}\n", encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "duration" in proc.stderr


@pytest.mark.parametrize("command", [["simulate"],
                                     ["compare", "--controllers", "nftsm,pd"]])
def test_run_without_a_control_step_exits_1_without_traceback(tmp_path,
                                                              command):
    text = (Path(__file__).resolve().parent.parent / "configs"
            / "nominal_circle.yaml").read_text(encoding="utf-8")
    assert "  duration: 10.0\n" in text
    path = tmp_path / "short.yaml"
    path.write_text(text.replace("  duration: 10.0\n", "  duration: 0.004\n"),
                    encoding="utf-8")
    proc = run_cli(*command, "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "duration" in proc.stderr


def test_simulate_solver_failure_exits_2_without_traceback(tmp_path):
    path = tmp_path / "slow.yaml"
    path.write_text(NON_CONVERGING_CONFIG, encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "solver failure" in proc.stderr
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_simulate_diverging_plant_exits_2_without_traceback(tmp_path):
    # A finite but huge disturbance drives the plant until its inertia
    # matrix no longer factors.
    path = tmp_path / "huge.yaml"
    path.write_text("robot:\n  builtin: panda_on_base\nscenario:\n"
                    "  duration: 0.03\n"
                    "  disturbance: {kind: step, value: 1.0e+300}\n",
                    encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "solver failure" in proc.stderr
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_solve_qp_both_solvers(tmp_path, capsys):
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(hand_qp()), encoding="utf-8")
    rc = cli.main(["solve-qp", "--problem", str(path), "--solver", "both"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "ftcnd z*" in captured.out
    assert "oracle z*" in captured.out
    values = {line.rsplit("=", 1)[0].strip(): float(line.rsplit("=", 1)[1])
              for line in captured.out.splitlines() if "_inf =" in line}
    # FTCND against the oracle on the same xi-penalized problem.
    assert values["|z_ftcnd - z_penalized|_inf"] <= 1e-6
    # Exact optimum 1, penalized fixed point 9/7: the bias of the penalty.
    assert values["penalty gap |z_oracle - z_penalized|_inf"] == \
        pytest.approx(2.0 / 7.0, abs=1e-6)


def test_solve_qp_oracle_only(tmp_path, capsys):
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(hand_qp()), encoding="utf-8")
    rc = cli.main(["solve-qp", "--problem", str(path), "--solver", "oracle"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "pass True" in captured.out


@pytest.mark.parametrize("solver", ["ftcnd", "oracle"])
def test_solve_qp_non_convex_problem_exits_1(tmp_path, capsys, solver):
    problem = dataclasses.replace(hand_qp(), S=[[-2.0]])
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(problem), encoding="utf-8")
    rc = cli.main(["solve-qp", "--problem", str(path), "--solver", solver])
    captured = capsys.readouterr()
    assert rc == 1
    assert "strictly convex" in captured.err


@pytest.mark.parametrize("solver", ["ftcnd", "oracle"])
def test_solve_qp_non_finite_problem_exits_1(tmp_path, capsys, solver):
    lines = pomptc.problem_to_text(hand_qp()).splitlines()
    lines[2] = "nan"                  # G of the one-variable hand QP
    path = tmp_path / "problem.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["solve-qp", "--problem", str(path), "--solver", solver])
    captured = capsys.readouterr()
    assert rc == 1
    assert "G must be finite" in captured.err


def test_solve_qp_overflowing_problem_exits_2(tmp_path, capsys):
    problem = dataclasses.replace(hand_qp(), G=[-1e250])
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(problem), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["solve-qp", "--problem", str(path),
                       "--solver", "ftcnd"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "solver failure: non-finite neural state" in captured.err


def test_solve_qp_malformed_file(tmp_path, capsys):
    path = tmp_path / "problem.txt"
    path.write_text("not a problem\n", encoding="utf-8")
    rc = cli.main(["solve-qp", "--problem", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "malformed" in captured.err


def test_solve_qp_missing_file(tmp_path, capsys):
    rc = cli.main(["solve-qp", "--problem", str(tmp_path / "none.txt")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "not found" in captured.err


def test_compare_needs_two_controllers(short_config, tmp_path, capsys):
    rc = cli.main(["compare", "--config", str(short_config),
                   "--controllers", "nftsm", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "at least two" in captured.err


def test_compare_rejects_unknown_controller(short_config, tmp_path, capsys):
    rc = cli.main(["compare", "--config", str(short_config),
                   "--controllers", "nftsm,lqr", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "lqr" in captured.err


def test_compare_writes_side_by_side(short_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(short_config),
                   "--controllers", "nftsm,pd", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out / "trace_nftsm.csv").exists()
    assert (out / "trace_pd.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"nftsm", "pd"}
    head = (out / "errors.csv").read_text().splitlines()[0]
    assert head == "time,nftsm_pos_err,pd_pos_err,nftsm_ori_err,pd_ori_err"
    assert "steady_pos_err" in captured.out


def test_compare_plans_once_for_all_controllers(short_config, tmp_path,
                                                monkeypatch):
    solves, solve = [], ftcnd.solve

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(ftcnd, "solve", counting)
    rc = cli.main(["compare", "--config", str(short_config),
                   "--controllers", "nftsm,pd", "--out", str(tmp_path / "o")])
    assert rc == 0
    # 0.2 s at the default control period of 0.01 s: one solve per step.
    assert len(solves) == 20
