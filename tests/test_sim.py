import dataclasses
import math
import warnings

import numpy as np
import pytest

from mmtrack import dynamics, sim
from mmtrack.kinematics import Pose
from mmtrack.model import builtin_planar_2link, load_scenario
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


def load_quiet(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_scenario(doc)


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


def test_from_config_checks_model_compatibility():
    model = builtin_planar_2link()
    sec = ScenarioScript().to_config()
    sec["base_motion"] = {"kind": "sinusoid", "axis": "x"}
    with pytest.raises(ValueError, match="base DOFs"):
        ScenarioScript.from_config(sec, model)
    sec = ScenarioScript().to_config()
    sec["initial_q"] = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError, match="initial_q"):
        ScenarioScript.from_config(sec, model)


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
    ref0 = s.reference_pose(0.0, p0)
    np.testing.assert_allclose(ref0.position, p0.position, atol=1e-15)
    np.testing.assert_allclose(ref0.orientation, p0.orientation, atol=1e-15)
    # Quarter revolution at rate 2 pi / 10.
    ref = s.reference_pose(2.5, p0)
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


def test_pd_baseline_formula_and_validation():
    model = builtin_planar_2link()
    q = np.array([0.3, 1.0])
    qd = np.array([0.1, -0.2])
    desired = {"q_md": np.array([0.4, 0.9]), "qd_md": np.array([0.0, 0.1]),
               "qdd_md": np.zeros(2)}
    tau = sim.pd_baseline_torque(model, q, qd, desired, 60.0, 25.0)
    terms = dynamics.dynamics_terms(model, q, qd)
    expect = terms.G - 60.0 * (q - desired["q_md"]) \
        - 25.0 * (qd - desired["qd_md"])
    np.testing.assert_allclose(tau, expect, atol=1e-12)
    with pytest.raises(ValueError):
        sim.pd_baseline_torque(model, q, qd, desired, 0.0, 25.0)


def test_run_raises_once_failure_budget_is_exceeded():
    doc = TWOLINK_REG.replace("radius: 0.0", "radius: 0.05\n    angular_rate: 3.0") \
        + "ftcnd:\n  max_time: 1.0e-4\n"
    model, params, script = load_quiet(doc)
    script = dataclasses.replace(script, duration=0.1)
    # Every solve fails to converge: the fourth consecutive failure
    # exceeds the default budget of three, a budget of ten is never hit.
    with pytest.raises(sim.SimulationError, match="4 consecutive"):
        sim.run_closed_loop(model, params, script)
    trace = sim.run_closed_loop(model, params, script, failure_budget=10)
    assert np.isinf(trace.solver_converge_time[1:]).all()


def test_run_rejects_unknown_controller():
    model, params, script = load_quiet(TWOLINK_REG)
    with pytest.raises(ValueError, match="unknown controller"):
        sim.run_closed_loop(model, params, script, controller="lqr")


def test_run_is_deterministic():
    model, params, script = load_quiet(TWOLINK_REG)
    t1 = sim.run_closed_loop(model, params, script)
    t2 = sim.run_closed_loop(model, params, script)
    assert np.array_equal(t1.as_matrix(), t2.as_matrix())


def test_zero_radius_regulation_holds_pose():
    model, params, script = load_quiet(TWOLINK_REG)
    trace = sim.run_closed_loop(model, params, script)
    assert len(trace.time) == round(script.duration / script.torque_period) + 1
    metrics = sim.error_metrics(trace, 0.2, model=model)
    assert metrics["steady_state_pos_err"] <= 1e-6
    assert metrics["steady_state_ori_err"] <= 1e-6
    assert metrics["max_constraint_violation"] <= 1e-9
    assert metrics["solver_bound_violations"] == 0


def test_trace_csv_round_trip(tmp_path):
    model, params, script = load_quiet(TWOLINK_REG.replace("0.5", "0.1"))
    trace = sim.run_closed_loop(model, params, script)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = SimTrace.from_csv(path)
    # 17 significant digits round-trips doubles exactly.
    assert np.array_equal(trace.as_matrix(), back.as_matrix())
    assert back.q.shape == trace.q.shape
    assert back.tau.shape == trace.tau.shape


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
        solver_h_inf=np.zeros(T), solver_converge_time=np.zeros(T),
        solver_bound=np.zeros(T), sliding_V=np.zeros(T),
        sliding_Vdot=np.zeros(T))


def test_error_metrics_convergence_time():
    # err = exp(-t) crosses the 0.01 threshold at t = ln(100) = 4.605.
    trace = synthetic_trace(lambda t: math.exp(-t))
    metrics = sim.error_metrics(trace, 1.0)
    assert metrics["convergence_time_pos"] == pytest.approx(
        math.log(100.0), abs=0.02)
    assert metrics["convergence_time_ori"] == 0.0
    assert metrics["steady_state_pos_err"] == pytest.approx(math.exp(-7.0),
                                                            rel=1e-10)


def test_error_metrics_never_settling_is_inf():
    trace = synthetic_trace(lambda t: 0.02)
    metrics = sim.error_metrics(trace, 1.0)
    assert metrics["convergence_time_pos"] == math.inf


def test_error_metrics_settle_window_validation():
    trace = synthetic_trace(lambda t: 0.0, duration=1.0)
    with pytest.raises(ValueError, match="settle_window"):
        sim.error_metrics(trace, 2.0)
