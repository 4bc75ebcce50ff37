import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import hand_qp, solver_batch_problems
import mmtrack
from mmtrack import cli, ftcnd, pomptc, qp_oracle, sim

SHORT_CONFIG = """
robot:
  builtin: planar_2link
scenario:
  duration: 0.2
  reference:
    radius: 0.0
  initial_q: [0.3, 1.0]
"""

# The solver gets 1e-4 s of virtual time per solve, and no start passes
# epsilon_h = 1e-300: every control step fails to converge, so the
# fourth one exhausts the failure budget.
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
  epsilon_h: 1.0e-300
"""

NOMINAL_CIRCLE = (Path(__file__).resolve().parent.parent / "configs"
                  / "nominal_circle.yaml").read_text(encoding="utf-8")

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
    # The r3 = 1 default is noted on stdout, not on the error stream.
    assert captured.out.startswith(
        "warning: r3 = 1 leaves the fast-terminal range (0, 1); the reaching "
        "law degenerates to a linear term\n")
    assert "201 rows" in captured.out
    assert (out / "trace.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert "steady_state_pos_err" in metrics
    plots = sorted(p.name for p in out.glob("plot_*.py"))
    assert len(plots) == 7
    assert "plot_position_error.py" in plots


def test_simulate_twice_writes_identical_records(tmp_path, short_config):
    # trace.csv has one row per torque step and steps.csv one per control
    # step; both are deterministic to the byte.
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["simulate", "--config", str(short_config),
                         "--out", str(out)]) == 0
    for name in ("trace.csv", "steps.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    lines = (outs[0] / "steps.csv").read_text().splitlines()
    assert lines[0] == ",".join(sim.STEP_COLUMNS)
    assert len(lines) == 1 + 20     # 0.2 s of 0.01 s control steps


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
    (ARM + SHORT + "nftsm: {compensate_base: true}", "nftsm",
     "nftsm.compensate_base: unknown key"),
    (ARM + "ftcnd: {xi: yes}", "nftsm",
     "ftcnd: xi: expected a finite number, got True"),
    (ARM + "pomptc: {pose_weight: yes}", "nftsm",
     "pomptc: pose_weight: expected a finite number, got True"),
    # 10^12 reference rows per control step: refused before any is made.
    (ARM + "pomptc: {horizon: 1.0e+12, control_horizon: 1}", "nftsm",
     "pomptc: horizon: 1000000000000 rows per control step over 1000 "
     "steps exceed the cap of 1000000 rows"),
    # A fixed-base arm has no base to tilt.
    (ARM + "scenario: {base_motion: {kind: static, "
     "pose: [0, 0, 0, 0, 0.21, 0]}}", "nftsm",
     "scenario: base_motion: model has no base DOFs to move"),
    ("", "nftsm", "robot: section is required"),
    ("- " + ARM, "nftsm", "top level: expected a mapping"),
    # nominal_circle at N = Nu = 1 000: an H of 2.35 GB per step.
    (NOMINAL_CIRCLE.replace("  horizon: 5\n  control_horizon: 5\n",
                            "  horizon: 1000\n  control_horizon: 1000\n"),
     "nftsm", "pomptc: horizon: each step's H of 294000000 entries "
     "exceeds the cap of 84000000 entries"),
], ids=["ftcnd_key", "nftsm_key", "scenario_key", "robot_key",
        "pomptc_key", "top_key", "ftcnd_nan", "nftsm_inf", "pd_zero",
        "compensate_base_removed", "bool_gain", "bool_weight",
        "huge_horizon", "static_pose", "empty", "sequence", "huge_qp"])
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


def test_simulate_deeply_nested_config_exits_1_without_traceback(tmp_path):
    # libyaml's C composer crashes the interpreter at this depth; the
    # Python composer that the loader uses ends in RecursionError.
    path = tmp_path / "deep.yaml"
    path.write_text("robot: " + "[" * 200_000 + "]" * 200_000 + "\n",
                    encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: parse failure")


@pytest.mark.parametrize("content, message", [
    (b"robot: \xff\n", "config error: config file"),
    (b"robot: 1" + b"0" * 5000 + b"\n", "config error: parse failure"),
], ids=["non_utf8", "integer_past_digit_limit"])
def test_simulate_unreadable_config_exits_1_without_traceback(
        tmp_path, content, message):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


def test_simulate_removed_mpc_mask_key_exits_1(tmp_path, capsys):
    # The planner plans the arm, so the MPC mask key is gone: a config
    # that still sets it is a config error naming the key.
    path = tmp_path / "bad.yaml"
    path.write_text("robot:\n  builtin: planar_2link\n"
                    "  actuated_by_mpc: [false, false]\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "config error: robot.actuated_by_mpc: unknown key")


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


@pytest.mark.parametrize("args, rc, message", [
    (["simulate", "--config", "{config}", "--out", "{out}",
      "--controller", "bogus"], 1,
     "mmtrack simulate: error: argument --controller: invalid choice: "
     "'bogus'"),
    (["simulate", "--out", "{out}"], 1, "mmtrack simulate: error: the "
     "following arguments are required: --config"),
    (["simulate", "--config", "{config}", "--out", "{file}"], 1,
     "output error: [Errno 17] File exists: '{file}'"),
    (["compare", "--config", "{config}", "--controllers", "nftsm,pd",
      "--out", "{file}/sub"], 1,
     "output error: [Errno 20] Not a directory: '{file}/sub'"),
    (["-h"], 0, ""),
], ids=["bad_choice", "missing_option", "out_is_file", "out_below_file",
        "help"])
def test_usage_and_output_errors_exit_1_without_traceback(tmp_path, args, rc,
                                                          message):
    # Exit 1 for any usage error, argparse's own too; an --out that
    # cannot be a directory is one line naming the path, not a traceback.
    config = tmp_path / "scenario.yaml"
    config.write_text(SHORT_CONFIG, encoding="utf-8")
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    names = {"config": config, "out": tmp_path / "out",
             "file": tmp_path / "file"}
    proc = run_cli(*(a.format(**names) for a in args))
    assert proc.returncode == rc
    assert "Traceback" not in proc.stderr
    assert (proc.stderr.splitlines() or [""])[-1].startswith(
        message.format(**names))
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


def test_simulate_at_the_base_gimbal_lock_exits_0(tmp_path, capsys):
    # A base pitched to pi/2 is the base's own Euler singularity, not
    # the planner's: the plan moves the arm columns, which keep their rank.
    text = NOMINAL_CIRCLE
    for old, new in (("  duration: 10.0\n", "  duration: 0.05\n"),
                     ("    kind: static\n",
                      "    kind: tilt\n    angle: 1.5707963267948966\n")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "gimbal.yaml"
    path.write_text(text, encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "trace.csv").exists()


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
    # matrix no longer factors.  The arm starts at the shipped initial_q,
    # since its zero configuration is an arm singularity that the plan
    # refuses before the plant runs.
    path = tmp_path / "huge.yaml"
    path.write_text("robot:\n  builtin: panda_on_base\nscenario:\n"
                    "  duration: 0.03\n"
                    "  initial_q: [0.0, -0.78, 0.0, -2.35, 0.0, 1.57, 0.78]\n"
                    "  disturbance: {kind: step, value: 1.0e+300}\n",
                    encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "plant diverged" in proc.stderr
    assert not (tmp_path / "out" / "trace.csv").exists()


UNTABULATED = ("config error: ftcnd: the flow of mu={}, lam=1.0, zeta=30.0, "
               "kappa={} cannot be tabulated: it overflows or needs over "
               "100000 nodes")


@pytest.mark.parametrize("line, rc, first_line", [
    ("  kappa: 0.999999999", 1, UNTABULATED.format(5.0, 0.999999999)),
    ("  kappa: 1.0e-300", 1, UNTABULATED.format(5.0, 1e-300)),
    ("  mu: 1.0e+300", 1, UNTABULATED.format(1e300, 0.8)),
    ("  pose_weight: 1.0e+300", 2, "solver failure: control step at t = "
     "0.000 s: QP must be strictly convex (S positive definite)"),
    ("  xi: 1.0e+300", 2, "solver failure: control step at t = 0.000 s: "
     "non-finite neural state"),
], ids=["kappa_edge", "kappa_tiny", "huge_mu", "huge_pose_weight",
        "huge_xi"])
def test_simulate_extreme_gain_exits_without_traceback_or_warning(
        tmp_path, line, rc, first_line):
    # nominal_circle for 0.05 s with one gain set to an extreme: a flow
    # that cannot be tabulated is a config error, a control step that
    # cannot be solved a solver failure naming its time.
    lines = (Path(__file__).resolve().parent.parent / "configs"
             / "nominal_circle.yaml").read_text(encoding="utf-8").split("\n")
    key = line.split(":")[0] + ":"
    assert "  duration: 10.0" in lines
    assert sum(x.startswith(key) for x in lines) == 1
    text = "\n".join("  duration: 0.05" if x == "  duration: 10.0"
                     else line if x.startswith(key) else x for x in lines)
    path = tmp_path / "extreme.yaml"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("simulate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == rc
    assert proc.stderr.splitlines()[0] == first_line
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def unstable_config(tmp_path):
    """nominal_circle for 0.3 s with gains under which RK4 at 1 ms goes
    unstable: the first overflow of an NFTSM torque step ends the run,
    before M stops factoring."""
    text = NOMINAL_CIRCLE
    for old, new in (("  duration: 10.0\n", "  duration: 0.3\n"),
                     ("  c1: 20.0\n", "  c1: 3260\n"),
                     ("    radius: 0.1\n", "    radius: 64.3\n")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "unstable.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_simulate_unstable_plant_names_the_time(tmp_path):
    proc = run_cli("simulate", "--config", str(unstable_config(tmp_path)),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("solver failure: plant diverged at t = ")
    for stream in (proc.stdout, proc.stderr):
        assert "RuntimeWarning" not in stream
        assert "Traceback" not in stream
    assert not (tmp_path / "out").exists()


def test_failed_compare_leaves_no_output_directory(tmp_path, capsys):
    # pd tracks the unstable plan to its end, then nftsm diverges: the
    # run fails as a whole, and writes neither steps.csv nor pd's trace.
    out = tmp_path / "out"
    rc = cli.main(["compare", "--config", str(unstable_config(tmp_path)),
                   "--controllers", "pd,nftsm", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "solver failure: plant diverged at t = ")
    assert not out.exists()


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


def test_solve_qp_infinite_h_entry_exits_1_without_warning(tmp_path):
    # One infinite entry of a criterion-1 QP's H: ftcnd.solve finds it
    # through its start's residual and names it, an invalid problem with
    # no numpy warning.
    problem = solver_batch_problems()[0]
    H = np.array(problem.H)
    H.flat[H.size // 2] = np.inf
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(dataclasses.replace(problem, H=H)),
                    encoding="utf-8")
    proc = run_cli("solve-qp", "--problem", str(path), "--solver", "both")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[0] == "invalid problem: H must be finite"
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


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


def test_solve_qp_unconverged_exits_2(tmp_path, capsys, monkeypatch):
    # 1e-4 s of virtual time is too little for the cold hand QP.
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(hand_qp()), encoding="utf-8")
    params = ftcnd.FtcndParams(max_time=1e-4)
    monkeypatch.setattr(cli.ftcnd, "FtcndParams", lambda: params)
    rc = cli.main(["solve-qp", "--problem", str(path), "--solver", "ftcnd"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ftcnd did not converge within max_time" in captured.err
    assert "ftcnd z*" not in captured.out


def test_solve_qp_oracle_at_its_iteration_cap_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    def capped(*args):
        raise qp_oracle.NotConverged("active-set iteration did not converge")
    monkeypatch.setattr(qp_oracle, "_solve_exact", capped)
    path = tmp_path / "problem.txt"
    path.write_text(pomptc.problem_to_text(hand_qp()), encoding="utf-8")
    rc = cli.main(["solve-qp", "--problem", str(path), "--solver", "oracle"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("solver failure:")


def test_solve_qp_malformed_file(tmp_path, capsys):
    # A header that is not one, a file without its last row (w), and a
    # header whose m' Nu disagrees with the rows.
    path = tmp_path / "problem.txt"
    hand = pomptc.problem_to_text(hand_qp())
    assert hand.startswith("1 6 1 1 1 ")
    for text, match in (
            ("not a problem\n", "malformed header"),
            (hand.rsplit("\n", 2)[0] + "\n", "expected 9 data rows, got 8"),
            ("1 6 1 1 2 " + hand[10:], "S must be 2x2")):
        path.write_text(text, encoding="utf-8")
        rc = cli.main(["solve-qp", "--problem", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"malformed problem file: {match}" in captured.err


def test_solve_qp_missing_file(tmp_path, capsys):
    path = tmp_path / "none.txt"
    rc = cli.main(["solve-qp", "--problem", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"problem file {path}: ")
    assert "No such file or directory" in captured.err


def test_solve_qp_on_a_directory_exits_1_without_traceback(tmp_path):
    # An OSError other than a missing file is a problem-file error too.
    proc = run_cli("solve-qp", "--problem", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"problem file {tmp_path}: ")
    assert "Traceback" not in proc.stderr


def test_compare_needs_two_controllers(short_config, tmp_path, capsys):
    # One controller, or one named twice, is refused before the plan.
    for controllers, message in (
            ("nftsm", "compare needs at least two controllers"),
            ("nftsm,nftsm", "repeated controller(s): nftsm"),
            ("pd,nftsm,pd,nftsm-no-taub,nftsm",
             "repeated controller(s): nftsm, pd")):
        rc = cli.main(["compare", "--config", str(short_config),
                       "--controllers", controllers,
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "o").exists()


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
    # One plan serves both controllers: one steps.csv.
    assert sorted(p.name for p in out.glob("steps*.csv")) == ["steps.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"nftsm", "pd"}
    assert summary["nftsm"]["solver_bound_violations"] == 0
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
