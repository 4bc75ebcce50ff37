import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from mmtrack import cli, dynamics, ftcnd, kinematics as kin, nftsm, sim
from test_chain_kernel import MODELS
from mmtrack.kinematics import Pose
from mmtrack.model import (ConfigError, builtin_panda_on_base,
                           builtin_planar_2link, load_scenario)
from mmtrack.sim import ScenarioScript, SimTrace

TWOLINK_REG = """
robot:
  builtin: planar_2link
scenario:
  duration: 0.5
  reference:
    radius: 0.0
  initial_q: [0.3, 1.0]
"""


def test_script_validation():
    with pytest.raises(ValueError, match="duration"):
        ScenarioScript(duration=0.0)
    with pytest.raises(ValueError, match="torque_period"):
        ScenarioScript(control_period=0.001, torque_period=0.01)
    with pytest.raises(ValueError, match="integer multiple"):
        ScenarioScript(control_period=0.01, torque_period=0.003)
    with pytest.raises(ValueError, match="radius"):
        ScenarioScript(reference={"kind": "circle", "radius": -0.1})
    with pytest.raises(ValueError, match="unknown kind"):
        ScenarioScript(reference={"kind": "spiral"})
    with pytest.raises(ValueError, match="increase"):
        ScenarioScript(reference={"kind": "waypoints", "points": [
            {"time": 0.0, "pose": [0] * 6}, {"time": 0.0, "pose": [0] * 6}]})
    with pytest.raises(ValueError, match="unknown kind"):
        ScenarioScript(base_motion={"kind": "orbit"})
    with pytest.raises(ValueError, match="unknown axis"):
        ScenarioScript(base_motion={"kind": "sinusoid", "axis": "w"})
    with pytest.raises(ValueError, match="unknown kind"):
        ScenarioScript(disturbance={"kind": "impulse"})


def test_load_scenario_checks_model_compatibility():
    # The script does not know the model: the loader checks it against
    # the robot, naming the scenario key.  A fixed base holds the zero
    # base state, so a static tilted pose is refused like the tilt.
    robot = "robot: {builtin: planar_2link}\n"
    doc = robot + "scenario: {base_motion: %s}\n"
    for motion in ("{kind: sinusoid}", "{kind: tilt, angle: 0.21}",
                   "{kind: static, pose: [0, 0, 0, 0, 0.21, 0]}"):
        with pytest.raises(ConfigError, match="^scenario: base_motion: model "
                                              "has no base DOFs to move$"):
            load_scenario(doc % motion)
    for motion in ("{kind: static}", "{kind: static, pose: 0}"):
        assert not np.any(load_scenario(doc % motion)[2].base_state(0.0))
    with pytest.raises(ConfigError, match="^scenario: initial_q: expected "
                                          "the 2 arm angles, got 3 entries$"):
        load_scenario(robot + "scenario: {initial_q: [0.1, 0.2, 0.3]}\n")


def test_script_stores_numpy_floats_as_floats():
    # perfbench replaces initial_q by a tuple of numpy float64 values.
    q = np.array([0.1, -0.2])
    built = ScenarioScript(*np.array([1.0, 0.01, 0.001]), initial_q=tuple(q))
    plain = ScenarioScript(1.0, 0.01, 0.001, initial_q=(0.1, -0.2))
    assert built == plain
    numbers = (built.duration, built.control_period, built.torque_period,
               *built.initial_q)
    assert {type(x) for x in numbers} == {float}


def test_base_state_sinusoid_and_tilt():
    s = ScenarioScript(base_motion={"kind": "sinusoid", "axis": "y",
                                    "amplitude": 0.08, "frequency": 0.5})
    om = 2 * math.pi * 0.5
    t = 0.37
    q, v, a = s.base_state(t)
    assert q[1] == pytest.approx(0.08 * math.sin(om * t))
    assert v[1] == pytest.approx(0.08 * om * math.cos(om * t))
    assert a[1] == pytest.approx(-0.08 * om * om * math.sin(om * t))
    assert q[[0, 2, 3, 4, 5]].max() == 0.0

    shifted = ScenarioScript(base_motion={"kind": "sinusoid", "axis": "x",
                                          "amplitude": 0.08, "frequency": 0.5,
                                          "phase": math.pi / 2})
    q, v, a = shifted.base_state(0.0)
    assert q[0] == pytest.approx(0.08)
    assert v[0] == pytest.approx(0.0, abs=1e-15)
    assert a[0] == pytest.approx(-0.08 * om * om)

    tilt = ScenarioScript(base_motion={"kind": "tilt", "angle": 0.21})
    q, v, a = tilt.base_state(1.0)
    assert q[4] == 0.21
    assert np.all(v == 0) and np.all(a == 0)


def test_reference_pose_auto_circle():
    s = ScenarioScript()
    p0 = Pose([0.5, 0.2, 0.4], [0.1, 0.0, -0.2])
    ref0 = oracles.reference_pose(s, 0.0, p0)
    np.testing.assert_allclose(ref0.position, p0.position, atol=1e-15)
    np.testing.assert_allclose(ref0.orientation, p0.orientation, atol=1e-15)
    # Quarter revolution at rate 2 pi / 10.
    ref = oracles.reference_pose(s, 2.5, p0)
    center = p0.position - [0.1, 0.0, 0.0]
    np.testing.assert_allclose(ref.position, center + [0.0, 0.1, 0.0],
                               atol=1e-12)


def test_disturbance_torque_kinds():
    s = ScenarioScript(disturbance={"kind": "step", "time": 1.0,
                                    "value": [1.0, -2.0]})
    np.testing.assert_allclose(s.disturbance_torque(0.5, 2), [0.0, 0.0])
    np.testing.assert_allclose(s.disturbance_torque(1.5, 2), [1.0, -2.0])
    s2 = ScenarioScript(disturbance={"kind": "sinusoid", "amplitude": 0.5,
                                     "frequency": 1.0})
    assert s2.disturbance_torque(0.25, 3) == pytest.approx(
        [0.5, 0.5, 0.5], abs=1e-12)
    assert np.all(ScenarioScript().disturbance_torque(1.0, 4) == 0.0)


@pytest.mark.parametrize("spec", [
    {"kind": "static", "pose": [0.1, -0.2, 0.0, 0.3, -0.4, 0.5]},
    {"kind": "tilt", "angle": -0.21},
    {"kind": "sinusoid", "axis": "yaw", "amplitude": -0.08,
     "frequency": 0.7, "phase": 0.4}])
def test_base_state_rows_are_the_scalar_calls(spec):
    s = ScenarioScript(duration=2.0, base_motion=spec)
    assert s.base_moves == (spec["kind"] == "sinusoid")
    times = np.arange(2001) * 1e-3
    batch = s.base_state(times)
    for got in batch:
        assert got.shape == (len(times), 6)
    for i, t in enumerate(times):
        for got, want in zip(batch, s.base_state(t)):
            assert np.array_equal(got[i].view(np.uint64),
                                  want.view(np.uint64))


@pytest.mark.parametrize("spec", [
    {"kind": "circle", "radius": 0.1, "angular_rate": 0.7},
    {"kind": "circle", "radius": 0.05, "angular_rate": -1.3,
     "center": [0.4, -0.1, 0.6], "orientation": [0.2, -0.3, 1.0]},
    {"kind": "waypoints", "points": [
        {"time": 0.1, "pose": [0.5, 0.0, 0.4, 0.1, 0.0, 0.0]},
        {"time": 0.9, "pose": [0.4, 0.2, 0.5, -0.2, 0.3, 3.0]}]}])
def test_reference_rows_are_the_scalar_calls(spec):
    # sim.plan reads every control step's window at once, as a
    # (steps, horizon) array of times.
    s = ScenarioScript(duration=2.0, reference=spec)
    p0 = Pose([0.5, 0.2, 0.4], [0.1, 0.0, -0.2])
    times = (np.arange(200) * 0.01)[:, None] + np.arange(1, 6) * 0.01
    batch = s.reference_path(times, p0)
    assert batch.shape == times.shape + (6,)
    for j, row in enumerate(times):
        assert np.array_equal(batch[j].view(np.uint64),
                              s.reference_path(row, p0).view(np.uint64))


@pytest.mark.parametrize("spec", [
    {"kind": "none"},
    {"kind": "step", "time": 0.2, "value": [-1.0, 2.0, 0.0]},
    {"kind": "sinusoid", "amplitude": [0.5, -1.0, 0.0], "frequency": 2.0,
     "phase": 0.3}])
def test_disturbance_rows_are_the_scalar_calls(spec):
    s = ScenarioScript(duration=2.0, disturbance=spec)
    times = np.arange(2001) * 1e-3
    batch = s.disturbance_torque(times, 3)
    assert batch.shape == (len(times), 3)
    for i, t in enumerate(times):
        assert np.array_equal(batch[i].view(np.uint64),
                              s.disturbance_torque(t, 3).view(np.uint64))
    if spec["kind"] == "step":
        # Before t_on every entry is +0, the negative one included.
        before = batch[times < 0.2]
        assert np.all(before == 0.0) and not np.signbit(before).any()


def extrapolate(past, order):
    """The order-``order`` extrapolation of the next row after ``past``
    (newest first), from the polynomial through its last order + 1
    rows: the oracle of sim.warm_start."""
    x = -np.arange(order + 1.0)
    fit = np.polyfit(x, past[:order + 1], order)
    return np.polyval(fit, 1.0) if order else past[0]


@pytest.mark.parametrize("degree", range(4))
def test_warm_start_continues_a_polynomial(degree):
    # From the last k = 1 to 4 points the warm start is their order-(k - 1)
    # extrapolation; once that order reaches the degree, it is the next
    # point to rounding.
    rng = np.random.default_rng(degree)
    coef = rng.normal(size=(degree + 1, 7))
    points = np.array([np.polyval(coef, k) for k in np.arange(12.0)])
    for n in range(4, len(points)):
        for k in range(1, 5):
            past = points[n - 1::-1][:k]
            atol = 1e-9 * np.abs(past).max()
            np.testing.assert_allclose(sim.warm_start(past),
                                       extrapolate(past, k - 1),
                                       rtol=0, atol=atol)
            if k > degree:
                np.testing.assert_allclose(sim.warm_start(past), points[n],
                                           rtol=0, atol=atol)


def test_run_raises_once_failure_budget_is_exceeded(monkeypatch):
    doc = TWOLINK_REG.replace("radius: 0.0", "radius: 0.05\n    angular_rate: 3.0") \
        + "ftcnd:\n  max_time: 1.0e-4\n  epsilon_h: 1.0e-300\n"
    model, params, script = load_scenario(doc)
    script = dataclasses.replace(script, duration=0.1)
    # Every solve fails to converge: no start passes epsilon_h = 1e-300,
    # and max_time stops the steps.  The fourth consecutive failure
    # exceeds the budget of three, a budget of ten is never hit.
    # The whole plan comes first: the plant never takes a step.
    with monkeypatch.context() as mp:
        mp.setattr(dynamics, "configuration_terms",
                   lambda *a, **k: pytest.fail("the plant ran before the "
                                               "plan failed"))
        with pytest.raises(sim.SimulationError, match="4 consecutive"):
            sim.run_closed_loop(model, params, script)
    monkeypatch.setattr(sim, "FAILURE_BUDGET", 10)
    steps = sim.plan(model, params, script).steps
    assert not steps[:, sim.STEP_COLUMNS.index("converged")].any()
    assert np.isinf(steps[:, sim.STEP_COLUMNS.index("converge_time")]).all()


def counted(fn, name, calls):
    """``fn``, appending ``name`` to ``calls`` at each call."""
    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counting


def test_one_plan_tracked_by_each_controller_is_the_closed_loop(
        monkeypatch):
    model, params, script = load_config("base_sinusoid")
    script = dataclasses.replace(script, duration=0.2)
    expect = {c: sim.run_closed_loop(model, params, script, controller=c)
              for c in sim.CONTROLLERS}
    calls = []
    monkeypatch.setattr(ftcnd, "solve", counted(ftcnd.solve, "solve", calls))
    # The script's time functions, counted on this (frozen) instance.
    for name in ("base_state", "reference_path", "disturbance_torque"):
        object.__setattr__(script, name,
                           counted(getattr(script, name), name, calls))
    plan = sim.plan(model, params, script)
    planned = len(calls)
    traces = {c: sim.track(model, params, script, plan, controller=c)
              for c in sim.CONTROLLERS}
    for c in sim.CONTROLLERS:
        assert np.array_equal(oracles.trace_matrix(traces[c]),
                              oracles.trace_matrix(expect[c]))
    control_steps = round(script.duration / script.control_period)
    # The plan reads the base and every reference window once.
    assert calls[:planned] == (["base_state", "reference_path"]
                               + ["solve"] * control_steps)
    # Each track reads the base twice (row ends and step starts) and the
    # disturbance once, whatever the number of torque steps, and the
    # reference once per POSE_BLOCK_ROWS rows (here one block).
    assert len(traces["pd"].time) <= sim.POSE_BLOCK_ROWS
    assert calls[planned:] == ["base_state", "disturbance_torque",
                               "base_state", "reference_path"] \
        * len(sim.CONTROLLERS)


def test_run_rejects_unknown_controller():
    model, params, script = load_scenario(TWOLINK_REG)
    with pytest.raises(ValueError, match="unknown controller"):
        sim.run_closed_loop(model, params, script, controller="lqr")


def test_run_is_deterministic():
    model, params, script = load_scenario(TWOLINK_REG)
    t1 = sim.run_closed_loop(model, params, script)
    t2 = sim.run_closed_loop(model, params, script)
    assert np.array_equal(oracles.trace_matrix(t1), oracles.trace_matrix(t2))


def test_zero_radius_regulation_holds_pose():
    model, params, script = load_scenario(TWOLINK_REG)
    plan = sim.plan(model, params, script)
    trace = sim.track(model, params, script, plan)
    assert len(trace.time) == round(script.duration / script.torque_period) + 1
    metrics = sim.error_metrics(trace, 0.2, model=model)
    assert metrics["steady_state_pos_err"] <= 1e-6
    assert metrics["steady_state_ori_err"] <= 1e-6
    assert metrics["max_constraint_violation"] <= 1e-9
    assert sim.plan_metrics(plan) == {
        "solver_bound_violations": 0, "max_iterations": 0,
        "settled_solves": 50, "max_qp_violation": 0.0}


def test_plan_metrics_count_solves_past_their_bound():
    # One row per control step: a solve counts once, not once per
    # torque step, and only past its bound plus THRESHOLD.  The same
    # rows give the most iterations, the settled (0-iteration) solves
    # and the largest QP violation.
    steps = np.zeros((4, len(sim.STEP_COLUMNS)))
    steps[:, sim.STEP_COLUMNS.index("bound_t_f")] = 1.0
    steps[:, sim.STEP_COLUMNS.index("converge_time")] = [
        0.5, 1.0 + sim.THRESHOLD, 1.0 + 2 * sim.THRESHOLD, math.inf]
    steps[:, sim.STEP_COLUMNS.index("iterations")] = [0, 3, 0, 7]
    steps[:, sim.STEP_COLUMNS.index("constraint_violation")] = [
        0.0, 0.25, 0.5, 0.0]
    plan = sim.Plan(None, None, None, None, steps)
    assert sim.plan_metrics(plan) == {
        "solver_bound_violations": 2, "max_iterations": 7,
        "settled_solves": 2, "max_qp_violation": 0.5}


def test_trace_csv_round_trip(tmp_path):
    model, params, script = load_scenario(TWOLINK_REG.replace("0.5", "0.1"))
    trace = sim.run_closed_loop(model, params, script)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = oracles.trace_from_csv(path)
    # 17 significant digits round-trips doubles exactly.
    assert np.array_equal(oracles.trace_matrix(trace),
                          oracles.trace_matrix(back))
    assert back.q.shape == trace.q.shape
    assert back.tau.shape == trace.tau.shape


def random_trace(rng, rows, model):
    """A trace of ``model`` with ``rows`` rows of random entries, its
    times increasing by random steps of 5 to 15 ms."""
    m, n = model.total_dof, model.arm_joint_count
    trace = SimTrace(**{
        name: rng.standard_normal(rows if width is None else (rows, width))
        for name, _, width in SimTrace.layout(m, n)})
    trace.time = np.cumsum(rng.uniform(0.005, 0.015, rows))
    return trace


def test_trace_csv_bytes_are_savetxt_of_the_stacked_fields(tmp_path):
    # 64-row blocks of the fields give np.savetxt's bytes, here with a
    # last block of 3 rows.
    model = builtin_panda_on_base()
    trace = random_trace(np.random.default_rng(7), 3 * 64 + 3, model)
    trace.tau[5] = [0.0, -0.0, 1e300, -1e-300, 2.5, np.pi, 1.0]
    header = ",".join(c for _, cols, _ in SimTrace.layout(
        model.total_dof, model.arm_joint_count) for c in cols)
    trace.to_csv(tmp_path / "trace.csv")
    np.savetxt(tmp_path / "expect.csv", oracles.trace_matrix(trace),
               fmt="%.17g", delimiter=",", header=header, comments="")
    assert (tmp_path / "trace.csv").read_bytes() \
        == (tmp_path / "expect.csv").read_bytes()


def elementwise_violation(trace, lim):
    """max_constraint_violation written out entry by entry."""
    acc = np.diff(trace.qdot, axis=0) / np.diff(trace.time)[:, None]
    return max(float(np.max(excess, initial=0.0)) for excess in (
        trace.q - lim.q_upper, lim.q_lower - trace.q,
        trace.qdot - lim.qdot_upper, lim.qdot_lower - trace.qdot,
        acc - lim.qddot_upper, lim.qddot_lower - acc))


@pytest.mark.parametrize("crossed", range(6), ids=[
    "q_upper", "q_lower", "qdot_upper", "qdot_lower", "qddot_upper",
    "qddot_lower"])
def test_error_metrics_violation_is_the_elementwise_max(crossed):
    # Inside the limits the trace reads 0; crossing one limit at one
    # joint, the metric is that excess, bit for bit the elementwise max.
    model = builtin_panda_on_base()
    lim = model.limits
    rng = np.random.default_rng(crossed)
    trace = random_trace(rng, 300, model)

    def inside(kind, scale):
        lo, hi = getattr(lim, f"{kind}_lower"), getattr(lim, f"{kind}_upper")
        return (lo + hi) / 2 + scale * (hi - lo) / 2 * rng.uniform(
            -1, 1, trace.q.shape)
    trace.q, trace.qdot = inside("q", 0.5), inside("qdot", 1e-6)
    assert sim.error_metrics(trace, 0.5, model)["max_constraint_violation"] \
        == elementwise_violation(trace, lim) == 0.0
    row, joint, delta = 100, 6 + crossed, rng.uniform(0.01, 0.1)
    sign = 1 if crossed % 2 == 0 else -1
    bound = getattr(lim, ("q", "qdot", "qddot")[crossed // 2]
                    + ("_upper" if sign > 0 else "_lower"))[joint]
    if crossed < 2:
        trace.q[row, joint] = bound + sign * delta
    elif crossed < 4:
        trace.qdot[:, joint] = bound + sign * delta
    else:
        trace.qdot[row + 1:, joint] += (bound + sign * delta) * (
            trace.time[row + 1] - trace.time[row])
    violation = sim.error_metrics(trace, 0.5, model)[
        "max_constraint_violation"]
    assert violation == elementwise_violation(trace, lim)
    assert violation == pytest.approx(delta, abs=1e-3)


def synthetic_trace(err_fn, duration=8.0, dt=0.01):
    t = np.arange(0.0, duration + dt / 2, dt)
    T = len(t)
    err = np.array([err_fn(tk) for tk in t])
    zeros3 = np.zeros((T, 3))
    zeros2 = np.zeros((T, 2))
    return SimTrace(
        time=t, q=zeros2.copy(), qdot=zeros2.copy(), qddot=zeros2.copy(),
        tau=zeros2.copy(), tau_b=zeros2.copy(), tau_d=zeros2.copy(),
        pose=np.zeros((T, 6)), pose_ref=np.zeros((T, 6)),
        err_pos=np.column_stack([err, np.zeros(T), np.zeros(T)]),
        err_ori=zeros3.copy(), err_rotvec=zeros3.copy(),
        sliding_V=np.zeros(T), sliding_Vdot=np.zeros(T))


def test_error_metrics_convergence_time():
    # err = exp(-t) crosses the 0.01 threshold at t = ln(100) = 4.605.
    trace = synthetic_trace(lambda t: math.exp(-t))
    metrics = sim.error_metrics(trace, 1.0, builtin_planar_2link())
    assert metrics["convergence_time_pos"] == pytest.approx(
        math.log(100.0), abs=0.02)
    assert metrics["convergence_time_ori"] == 0.0
    assert metrics["steady_state_pos_err"] == pytest.approx(math.exp(-7.0),
                                                            rel=1e-10)


def test_error_metrics_never_settling_is_inf():
    trace = synthetic_trace(lambda t: 0.02)
    metrics = sim.error_metrics(trace, 1.0, builtin_planar_2link())
    assert metrics["convergence_time_pos"] == math.inf


def test_error_metrics_settle_window_validation():
    trace = synthetic_trace(lambda t: 0.0, duration=1.0)
    with pytest.raises(ValueError, match="settle_window"):
        sim.error_metrics(trace, 2.0, builtin_planar_2link())


def per_row_pose_columns(model, script, initial_pose, time, q):
    """pose, pose_ref, err_pos, err_ori, err_rotvec row by row from the
    scalar kinematics: the oracle of the batched derivation."""
    rows = []
    for t, q_row in zip(time, q):
        pose = kin.forward_kinematics(model, q_row)
        ref = oracles.reference_pose(script, t, initial_pose)
        R = kin.rotation_rpy(pose.orientation[::-1])
        R_ref = kin.rotation_rpy(ref.orientation[::-1])
        rows.append(np.concatenate([
            pose.as_vector(), ref.as_vector(), kin.pose_error(pose, ref),
            kin.rotation_vector(R_ref.T @ R)]))
    return np.array(rows)


def config_text(name):
    return (Path(__file__).resolve().parent.parent / "configs"
            / f"{name}.yaml").read_text(encoding="utf-8")


def load_config(name):
    return load_scenario(config_text(name))


def test_pose_columns_match_per_row_calls_on_tilt_trace(monkeypatch):
    model, params, script = load_config("base_tilt")
    script = dataclasses.replace(script, duration=0.05)
    # Small blocks, so that the run spans several and a partial last one.
    monkeypatch.setattr(sim, "POSE_BLOCK_ROWS", 16)
    trace = sim.run_closed_loop(model, params, script)
    initial_pose = kin.forward_kinematics(model, trace.q[0])
    expect = per_row_pose_columns(model, script, initial_pose, trace.time,
                                  trace.q)
    got = np.column_stack([trace.pose, trace.pose_ref, trace.err_pos,
                           trace.err_ori, trace.err_rotvec])
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)
    assert np.abs(trace.err_rotvec).max() > 0.0


def test_a_still_base_tracks_as_a_moving_one():
    # A base that does not move gets one state and one frame, broadcast
    # over the run; taking it as moving (one frame per torque step) gives
    # the same trace, bit for bit.
    model, params, script = load_config("base_tilt")
    script = dataclasses.replace(script, duration=0.05)
    assert not script.base_moves
    plan = sim.plan(model, params, script)
    still = sim.track(model, params, script, plan)
    object.__setattr__(script, "base_moves", True)
    moving = sim.track(model, params, script, plan)
    assert oracles.trace_matrix(still).tobytes() \
        == oracles.trace_matrix(moving).tobytes()


def branch_rows(model, q, ref_orientations):
    """pose_columns of hand-built rows against the per-row oracle, with a
    waypoint reference through the given orientations; no warnings."""
    times = np.arange(len(q), dtype=float)
    points = [{"time": t, "pose": [0.5, 0.4, 0.0, *ori]}
              for t, ori in zip(times, ref_orientations)]
    script = ScenarioScript(reference={"kind": "waypoints",
                                       "points": points})
    initial_pose = kin.forward_kinematics(model, q[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.column_stack(sim.pose_columns(model, script, initial_pose,
                                               times, q))
    expect = per_row_pose_columns(model, script, initial_pose, times, q)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)
    return got


def test_pose_columns_match_per_row_calls_at_branch_edges():
    # The reference yaw sits 0, just under pi and exactly pi away from
    # the planar arm's yaw q0 + q1: rotation_vector's zero and near-pi
    # branches.
    q = np.array([[0.3, 1.0], [0.3, 1.0], [-0.2, 0.5], [1.0, -1.0]])
    offsets = np.array([0.0, np.pi - 1e-8, np.pi, 0.25])
    rotvec = branch_rows(builtin_planar_2link(), q,
                         [[qk.sum() + d, 0.0, 0.0]
                          for qk, d in zip(q, offsets)])[:, -3:]
    assert np.all(rotvec[0] == 0.0)
    np.testing.assert_allclose(np.abs(rotvec[1:3, 2]), offsets[1:3],
                               rtol=0, atol=1e-6)
    # The same arm turning about y reaches pitch +-pi/2 exactly (R[2, 0]
    # is -sin q0): euler_zyx's gimbal branch, which an exact pi/2 proves
    # (arcsin of the next double below 1 is 1.5e-8 short of it).
    model = builtin_planar_2link()
    y_axis = [dataclasses.replace(j, axis=(0.0, 1.0, 0.0))
              for j in model.joints]
    pose = branch_rows(dataclasses.replace(model, joints=y_axis),
                       np.array([[np.pi / 2, 0.0], [-np.pi / 2, 0.0],
                                 [0.3, 0.2]]),
                       [[0.25, 0.1, 0.0]] * 3)[:, :6]
    np.testing.assert_array_equal(np.abs(pose[:2, 4]), np.pi / 2)
    np.testing.assert_array_equal(pose[:2, 5], 0.0)


def test_waypoint_reference_closed_loop():
    # Waypoints on the planar arm's path through three joint vectors,
    # so that position and yaw can be tracked together.
    model = builtin_planar_2link()
    times = [0.0, 0.1, 0.3]
    poses = np.array([kin.forward_kinematics(model, q).as_vector()
                      for q in ([0.3, 1.0], [0.33, 0.98], [0.36, 0.9])])
    doc = TWOLINK_REG.replace(
        "  reference:\n    radius: 0.0\n",
        "  reference:\n    kind: waypoints\n    points:\n" + "".join(
            f"      - {{time: {t}, pose: {p.tolist()}}}\n"
            for t, p in zip(times, poses)))
    model, params, script = load_scenario(doc)
    script = dataclasses.replace(script, duration=0.3)
    trace = sim.run_closed_loop(model, params, script)
    expect = np.column_stack([np.interp(trace.time, times, poses[:, k])
                              for k in range(6)])
    expect[:, 3:] = kin.wrap_angle(expect[:, 3:])
    np.testing.assert_array_equal(trace.pose_ref, expect)
    # The arm follows the moving reference.
    assert np.abs(trace.err_pos).max() < 2e-3
    assert trace.pose[-1, 1] > trace.pose[0, 1] + 0.02


def test_planar_waypoints_weight_only_task_rows():
    # A 1 cm move whose waypoint yaw (1.3 -> 1.2) does not match the
    # arm's yaw at those positions: only the task rows x, y are weighted,
    # so the yaw does not pull the arm off the path (3 cm off in 0.3 s
    # when all six pose rows were weighted).
    model = builtin_planar_2link()
    start = kin.forward_kinematics(model, [0.3, 1.0]).as_vector()
    end = start + [0.0, 0.01, 0.0, -0.1, 0.0, 0.0]
    doc = TWOLINK_REG.replace(
        "  reference:\n    radius: 0.0\n",
        "  reference:\n    kind: waypoints\n    points:\n"
        f"      - {{time: 0.0, pose: {start.tolist()}}}\n"
        f"      - {{time: 0.3, pose: {end.tolist()}}}\n")
    model, params, script = load_scenario(doc)
    trace = sim.run_closed_loop(model, params,
                                dataclasses.replace(script, duration=0.3))
    assert np.abs(trace.err_pos).max() < 2e-3
    assert abs(trace.pose[-1, 1] - end[1]) < 1e-3


PANDA_TRACE_HEADER = (
    "time,q_0,q_1,q_2,q_3,q_4,q_5,q_6,q_7,q_8,q_9,q_10,q_11,q_12,"
    "qdot_0,qdot_1,qdot_2,qdot_3,qdot_4,qdot_5,qdot_6,qdot_7,qdot_8,qdot_9,"
    "qdot_10,qdot_11,qdot_12,"
    "qddot_0,qddot_1,qddot_2,qddot_3,qddot_4,qddot_5,qddot_6,qddot_7,"
    "qddot_8,qddot_9,qddot_10,qddot_11,qddot_12,"
    "tau_0,tau_1,tau_2,tau_3,tau_4,tau_5,tau_6,"
    "tau_b_0,tau_b_1,tau_b_2,tau_b_3,tau_b_4,tau_b_5,tau_b_6,"
    "tau_d_0,tau_d_1,tau_d_2,tau_d_3,tau_d_4,tau_d_5,tau_d_6,"
    "pose_x,pose_y,pose_z,pose_yaw,pose_pitch,pose_roll,"
    "ref_x,ref_y,ref_z,ref_yaw,ref_pitch,ref_roll,"
    "err_pos_x,err_pos_y,err_pos_z,err_ori_yaw,err_ori_pitch,err_ori_roll,"
    "err_rotvec_x,err_rotvec_y,err_rotvec_z,sliding_V,sliding_Vdot")


def test_call_contract_of_the_closed_loop(monkeypatch, tmp_path):
    # Module attributes that tools wrap to time the layers: the loop
    # must reach them through their modules, one torque law, two
    # configuration passes (RK4 stages 1-2 and 3-4) and four inertia
    # solves (one per RK4 stage) per torque step and one solve per
    # control step.
    model, params, script = load_config("nominal_circle")
    script = dataclasses.replace(script, duration=0.05)
    calls = {}
    for module, name in ((nftsm, "control_torque"), (ftcnd, "solve"),
                         (dynamics, "configuration_terms"),
                         (dynamics, "solve_inertia")):
        def counting(*args, _fn=getattr(module, name), _name=name,
                     **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    trace = sim.run_closed_loop(model, params, script)
    control_steps = round(script.duration / script.control_period)
    torque_steps = len(trace.time) - 1
    assert calls == {"solve": control_steps,
                     "control_torque": torque_steps,
                     "configuration_terms": 2 * torque_steps,
                     "solve_inertia": 4 * torque_steps}
    # A static base leaves tau_b exactly +0, never -0 in trace.csv.
    assert not np.any(trace.tau_b) and not np.signbit(trace.tau_b).any()
    trace.to_csv(tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
        names = fh.readline().rstrip("\n").split(",")
        cells = [row.rstrip("\n").split(",") for row in fh]
    columns = [i for i, h in enumerate(names) if h.startswith("tau_b_")]
    assert {row[i] for row in cells for i in columns} == {"0"}


@pytest.mark.parametrize("controller", sim.CONTROLLERS)
@pytest.mark.parametrize("make_model", MODELS)
def test_paired_torque_steps_match_four_call_rk4(make_model, controller):
    # Three torque steps of track, each with two configuration passes,
    # against the RK4 step written out with one configuration pass per
    # stage, under each torque law written out: the NFTSM law with and
    # without the tau_b feed-forward, and the gravity-compensated PD
    # (its gains are validated once, at load).  A base that moves along
    # x (none for a fixed arm) makes tau_b non-zero.  The first step
    # starts at rest, the later ones with joint rates.
    model = make_model()
    n, b = model.arm_joint_count, model.base_dof_count
    _, params, _ = load_config("nominal_circle")
    base = {"kind": "sinusoid", "axis": "x", "amplitude": 0.2,
            "frequency": 2.0} if b else {}
    script = ScenarioScript(duration=0.003, control_period=0.003,
                            torque_period=0.001, base_motion=base)
    rng = np.random.default_rng(28)
    q0 = rng.uniform(-1.0, 1.0, n)
    q_b0 = script.base_state(0.0)[0][:b]
    plan = sim.Plan(kin.forward_kinematics(model, np.concatenate([q_b0, q0])),
                    np.array([q0, q0]), rng.uniform(-1, 1, (1, n)),
                    rng.uniform(-1, 1, (1, n)),
                    np.zeros((1, len(sim.STEP_COLUMNS))))
    trace = sim.track(model, params, script, plan, controller)

    h = script.torque_period
    q, qd = q0, np.zeros(n)
    for i in range(3):
        a_b = script.base_state(i * h)[2][:3] if b else None
        e1 = q - (plan.q_md[0] + i * h * plan.qd_md[0])
        e2 = qd - plan.qd_md[0]

        def terms_at(x, v):
            return dynamics.configuration_terms(model, [x], a_b=a_b).at(0, v)
        terms = terms_at(q, qd)
        if controller == "pd":
            tau_in = terms.G - params.pd_kp * e1 - params.pd_kd * e2
        else:
            tau_in, _ = nftsm.control_torque(terms, e1, e2, plan.qdd_md[0],
                                             params.nftsm)
        if controller == "nftsm":
            tau_in = tau_in + terms.tau_b

        def accel(t):
            return dynamics.forward_dynamics(t, tau_in - t.tau_b)
        k1 = accel(terms)
        k2 = accel(terms_at(q + h / 2 * qd, qd + h / 2 * k1))
        k3 = accel(terms_at(q + h / 2 * (qd + h / 2 * k1), qd + h / 2 * k2))
        k4 = accel(terms_at(q + h * (qd + h / 2 * k2), qd + h * k3))
        q, qd = (q + h / 6 * (qd + 2 * (qd + h / 2 * k1)
                              + 2 * (qd + h / 2 * k2) + (qd + h * k3)),
                 qd + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
        for got, want in ((trace.q[i + 1, b:], q), (trace.qdot[i + 1, b:], qd),
                          (trace.qddot[i + 1, b:], k1),
                          (trace.tau[i + 1], tau_in),
                          (trace.tau_b[i + 1], terms.tau_b)):
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))
    assert np.any(trace.tau_b) == bool(b)


def test_panda_trace_header_is_pinned(tmp_path):
    model, params, script = load_config("nominal_circle")
    script = dataclasses.replace(script, duration=0.01)
    trace = sim.run_closed_loop(model, params, script)
    trace.to_csv(tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    assert header == PANDA_TRACE_HEADER
    # The emitted plot scripts select their columns by these names.
    names = header.split(",")
    for columns, _ in cli._PANELS.values():
        for want in columns:
            if want.endswith("_"):
                assert any(h.startswith(want) and h[len(want):].isdigit()
                           for h in names), want
            else:
                assert want in names, want


def test_from_csv_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,q_0,tau_0\n0,1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        oracles.trace_from_csv(path)


def test_forward_kinematics_once_per_run(monkeypatch):
    calls = []
    fk = kin.forward_kinematics

    def counting(model, q):
        calls.append(np.shape(q))
        return fk(model, q)
    monkeypatch.setattr(kin, "forward_kinematics", counting)
    model, params, script = load_scenario(TWOLINK_REG)
    script = dataclasses.replace(script, duration=0.1)
    trace = sim.run_closed_loop(model, params, script)
    # The initial pose, and the trace's pose columns in one batch call:
    # assemble_qp takes the pose from its own chain pass.
    assert calls == [(model.total_dof,), trace.q.shape]


def test_replace_resolves_the_time_functions_again():
    s = ScenarioScript()
    tilted = dataclasses.replace(s, base_motion={"kind": "tilt",
                                                 "angle": 0.3})
    assert tilted.base_state(0.5)[0][4] == 0.3
    assert s.base_state(0.5)[0][4] == 0.0
    stepped = dataclasses.replace(s, disturbance={"kind": "step",
                                                  "value": 2.0})
    np.testing.assert_array_equal(stepped.disturbance_torque(0.0, 3),
                                  [2.0, 2.0, 2.0])


@pytest.mark.parametrize("section, spec", [
    ("reference", {"kind": "circle", "radius": 0.2}),
    ("reference", {"angular_rate": -1.0}),
    ("base_motion", {"kind": "sinusoid"}),
    ("base_motion", {"kind": "tilt"}),
    ("disturbance", {"kind": "step", "value": 1.0}),
    ("disturbance", {"kind": "sinusoid", "amplitude": 0.5})],
    ids=["circle_radius", "circle_rate", "base_sinusoid", "tilt", "step",
         "disturbance_sinusoid"])
def test_partial_specs_mean_the_same_to_loader_and_script(section, spec):
    # Each kind declares its defaults once: a partial spec gives the same
    # time functions through load_scenario as through ScenarioScript.
    _, _, loaded = load_scenario("robot: {builtin: panda_on_base}\n"
                                 + yaml.safe_dump({"scenario": {section: spec}}))
    direct = ScenarioScript(**{section: spec})
    times = np.arange(1001) * 0.01
    p0 = Pose([0.5, 0.2, 0.4], [0.1, 0.0, -0.2])
    for got, want in [
            (loaded.reference_path(times, p0),
             direct.reference_path(times, p0)),
            *zip(loaded.base_state(times), direct.base_state(times)),
            (loaded.disturbance_torque(times, 7),
             direct.disturbance_torque(times, 7))]:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_script_circle_defaults_are_the_documented_ones():
    # A circle of radius 0.1 m about the start's -x side, one turn in 10 s.
    p0 = Pose([0.5, 0.2, 0.4], [0.1, 0.0, -0.2])
    s = ScenarioScript(reference={"kind": "circle"})
    np.testing.assert_allclose(s.reference_path(2.5, p0)[:3],
                               [0.4, 0.3, 0.4], atol=1e-12)


# The arm joint whose lower limit the pinned-limit run sets just below
# its start (-0.78 rad in nominal_circle).
PINNED_JOINT = 1


def nominal_variant(edit, duration=1.0):
    """nominal_circle, shortened to ``duration`` and changed by
    ``edit(doc, model, script)`` on its parsed YAML document."""
    doc = yaml.safe_load(config_text("nominal_circle"))
    doc["scenario"]["duration"] = duration
    model, _, script = load_scenario(yaml.safe_dump(doc))
    edit(doc, model, script)
    return load_scenario(yaml.safe_dump(doc))


def pin_lower_limit(doc, model, script):
    # The lower angle limit of arm joint 1 sits 0.01 rad below its start,
    # so that the QP's angle rows bind within the first steps.
    q_lower = model.limits.q_lower.copy()
    q_lower[model.base_dof_count + PINNED_JOINT] = \
        script.initial_q[PINNED_JOINT] - 0.01
    doc["robot"]["limits"] = {"q_lower": q_lower.tolist()}


def offset_center(doc, model, script):
    # An explicit circle centre 2 cm off the auto centre in x and y: the
    # run starts with a tracking error.
    q0 = np.zeros(model.total_dof)
    q0[model.arm_slice] = script.initial_q
    radius = script.reference["radius"]
    center = kin.forward_kinematics(model, q0).position \
        + [0.02 - radius, 0.02, 0.0]
    doc["scenario"]["reference"]["center"] = center.tolist()


def counted_run(model, params, script):
    """The plan and the trace of one run, and the diagnostics of every
    ftcnd.solve call it made."""
    diags, solve = [], ftcnd.solve

    def counting(*args, **kwargs):
        z, diag = solve(*args, **kwargs)
        diags.append(diag)
        return z, diag
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ftcnd, "solve", counting)
        plan = sim.plan(model, params, script)
    return plan, sim.track(model, params, script, plan), diags


@pytest.fixture(scope="module")
def pinned_run():
    model, params, script = nominal_variant(pin_lower_limit)
    return (model, script) + counted_run(model, params, script)


@pytest.fixture(scope="module")
def offset_run():
    model, params, script = nominal_variant(offset_center)
    return (model, script) + counted_run(model, params, script)


def test_one_warm_solve_per_control_step_on_a_pinned_limit(pinned_run):
    model, script, _, trace, diags = pinned_run
    assert len(diags) == round(script.duration / script.control_period)
    assert all(d.converged for d in diags)
    # The angle rows bind: the warm solves violate them.
    assert max(d.constraint_violation for d in diags) > 1e-3


def test_max_constraint_violation_is_the_excess_past_the_pinned_limit(
        pinned_run):
    model, _, _, trace, _ = pinned_run
    j = model.base_dof_count + PINNED_JOINT
    excess = np.max(model.limits.q_lower[j] - trace.q[:, j])
    assert excess > 0.0
    metrics = sim.error_metrics(trace, 0.5, model=model)
    assert metrics["max_constraint_violation"] == excess


@pytest.mark.xfail(strict=True, reason=(
    "FTCND solves the xi-penalized QP; with xi = 5 against a pose weight "
    "of 5e4 a binding angle limit does not hold (the plant runs 0.036 rad "
    "past it in 1 s)"))
def test_plant_angle_holds_a_pinned_limit(pinned_run):
    model, _, _, trace, _ = pinned_run
    j = model.base_dof_count + PINNED_JOINT
    assert trace.q[:, j].min() >= model.limits.q_lower[j] - 1e-3


@pytest.mark.parametrize("run", ["pinned_run", "offset_run"])
def test_predicted_warm_starts_keep_the_solves_short(run, request):
    # Each solve starts at the Newton endpoint of the rows that the cubic
    # extrapolation of the last four solutions violates; most settle
    # there, for a median of 0 iterations on both runs.
    *_, diags = request.getfixturevalue(run)
    assert np.median([d.iterations for d in diags]) <= 90


def test_every_nominal_plan_solve_starts_at_the_endpoint(monkeypatch):
    # Each solve of 2 s of nominal_circle settles at its start, the
    # endpoint of its first segment, one Newton step from the warm start.
    model, params, script = load_config("nominal_circle")
    script = dataclasses.replace(script, duration=2.0)
    diags, solve = [], ftcnd.solve

    def recording(*args, **kwargs):
        z, diag = solve(*args, **kwargs)
        diags.append(diag)
        return z, diag
    monkeypatch.setattr(ftcnd, "solve", recording)
    sim.plan(model, params, script)
    assert len(diags) == round(script.duration / script.control_period)
    assert all(d.converged and d.iterations == 0 for d in diags)


def test_offset_start_converges_in_finite_time(offset_run):
    model, script, _, trace, diags = offset_run
    assert len(diags) == round(script.duration / script.control_period)
    assert np.max(np.abs(trace.err_pos[0])) == pytest.approx(0.02, abs=1e-12)
    metrics = sim.error_metrics(trace, 0.5, model=model)
    assert 0.0 < metrics["convergence_time_pos"] < 0.2


def test_sliding_Vdot_is_the_backward_difference_of_V(offset_run):
    _, script, _, trace, _ = offset_run
    assert np.all(trace.sliding_Vdot[:2] == 0.0)
    np.testing.assert_array_equal(
        trace.sliding_Vdot[2:],
        np.diff(trace.sliding_V[1:]) / script.torque_period)
    assert np.any(trace.sliding_Vdot != 0.0)


def test_plan_steps_record_each_solve(offset_run):
    # The offset start integrates some solves, so the counters differ
    # from step to step; each row is that step's diagnostics.
    _, script, plan, _, diags = offset_run
    assert plan.steps.shape == (len(diags), len(sim.STEP_COLUMNS))
    assert max(d.iterations for d in diags) > 0
    for j, (row, diag) in enumerate(zip(plan.steps, diags)):
        want = {name: getattr(diag, name, None) for name in sim.STEP_COLUMNS}
        want.update(time=j * script.control_period,
                    h_inf=diag.h_inf_history[-1])
        assert dict(zip(sim.STEP_COLUMNS, row.tolist())) == want


@pytest.mark.parametrize("how", ["direct", "replace"])
def test_plan_names_initial_q_of_the_wrong_length(how):
    # A script does not know the model, so plan checks the arm angles.
    model, params, script = load_config("nominal_circle")
    wrong = dict(duration=0.01, initial_q=(0.0,) * model.total_dof)
    script = ScenarioScript(**wrong) if how == "direct" \
        else dataclasses.replace(script, **wrong)
    with pytest.raises(ValueError, match=r"^initial_q: expected the 7 arm "
                       r"angles, got 13 entries$"):
        sim.plan(model, params, script)
