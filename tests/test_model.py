import copy
import dataclasses
import functools
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import serialize_scenario
from mmtrack import pomptc
from mmtrack.ftcnd import FtcndParams
from mmtrack.kinematics import Pose
from mmtrack.model import (ConfigError, JointLimits, JointSpec,
                           _Loader, builtin_panda_on_base,
                           builtin_planar_2link, load_scenario)
from mmtrack.nftsm import NftsmParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
robot:
  builtin: panda_on_base
"""
# A YAML integer that no float holds.
BIG_INT = "1" + "0" * 400


def test_joint_spec_rejects_non_unit_axis():
    with pytest.raises(ConfigError):
        JointSpec("revolute", (1, 1, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ConfigError):
        JointSpec("helical", (0, 0, 1), (0, 0, 0), (0, 0, 0))


def test_limits_ordering_message_names_index():
    with pytest.raises(ConfigError, match="index 1"):
        JointLimits([0.0, 2.0], [1.0, 1.0], [-1, -1], [1, 1], [-1, -1], [1, 1])


def test_limits_velocity_must_straddle_zero():
    with pytest.raises(ConfigError, match="qdot"):
        JointLimits([-1, -1], [1, 1], [0.5, -1], [1, 1], [-1, -1], [1, 1])


def test_builtin_panda_shape():
    m = builtin_panda_on_base()
    assert m.total_dof == 13
    assert m.arm_joint_count == 7
    # Spot checks on the limit vectors.
    assert m.limits.q_upper[6 + 3] == -0.07
    assert m.limits.q_lower[6 + 5] == -0.01
    assert m.limits.qdot_upper[6 + 4] == 2.5
    assert m.limits.qddot_upper[6 + 1] == 7


def test_builtin_planar_2link_shape():
    m = builtin_planar_2link()
    assert m.total_dof == 2
    assert m.base_dof_count == 0
    assert m.task_rows == (0, 1)


def test_load_scenario_defaults():
    model, params, script = load_scenario(MINIMAL)
    assert model.name == "panda_on_base"
    assert params.horizon == 5
    assert params.control_horizon == 5
    assert params.ftcnd.xi == 5.0
    assert params.nftsm.c1 == 20.0
    assert np.allclose(params.weights.pose, 50000.0 * np.eye(6))
    assert script.duration == 10.0
    assert script.control_period == 0.01
    # One default per parameter: the loader's are the dataclasses' own.
    assert params.ftcnd == FtcndParams()
    assert params.nftsm == NftsmParams()


def test_load_scenario_rejects_bad_horizon():
    doc = MINIMAL + "\npomptc:\n  horizon: 2\n  control_horizon: 4\n"
    with pytest.raises(ConfigError, match="horizon"):
        load_scenario(doc)


def test_load_scenario_rejects_bad_kappa():
    doc = MINIMAL + "\nftcnd:\n  kappa: 1.5\n"
    with pytest.raises(ConfigError, match="kappa"):
        load_scenario(doc)


@pytest.mark.parametrize("section, match", [
    ("pomptc:\n  horizon: x\n",
     "^pomptc: horizon: expected a finite number, got 'x'$"),
    ("pomptc:\n  horizon: 5.9\n", "^pomptc: horizon: expected an integer"),
    ("pomptc:\n  control_horizon: 2.5\n",
     "^pomptc: control_horizon: expected an integer"),
    ("scenario:\n  reference:\n    kind: waypoints\n    points:\n"
     "      - pose: [0, 0, 0, 0, 0, 0]\n", "reference.points"),
    ("scenario:\n  initial_q: 3\n", "initial_q"),
    ("scenario:\n  base_motion: [1]\n", "base_motion"),
    ("scenario:\n  reference:\n    kind: waypoints\n    points:\n"
     "      - {time: 0, pose: 3}\n", "poses"),
    ("scenario:\n  duration: .inf\n", "duration"),
    ("scenario:\n  duration: .nan\n", "duration"),
    ("scenario:\n  duration: 1.0e+9\n", "duration"),
    ("scenario:\n  duration: 0.004\n  control_period: 0.01\n",
     "scenario: duration must be at least half a control_period"),
    ("scenario:\n  control_period: .nan\n", "control_period"),
    ("scenario:\n  torque_period: .inf\n", "torque_period"),
    ("scenario:\n  torque_period: 1.0e-9\n  control_period: 1.0e-9\n",
     "duration"),
    ("scenario:\n  reference:\n    center: [0, 0]\n", "reference.center"),
    ("scenario:\n  reference:\n    center: [.nan, 0, 0]\n",
     "reference.center"),
    ("scenario:\n  reference:\n    radius: .inf\n", "reference.radius"),
    ("scenario:\n  reference:\n    angular_rate: [1]\n",
     "reference.angular_rate"),
    ("scenario:\n  reference:\n    kind: waypoints\n    points:\n"
     "      - {time: 0, pose: [0, 0, .nan, 0, 0, 0]}\n",
     "^scenario: reference.points.pose: expected a finite number, got nan$"),
    ("scenario:\n  initial_q: [0, .nan, 0, -2.35, 0, 1.57, 0.78]\n",
     "initial_q"),
    ("scenario:\n  base_motion: {kind: sinusoid, axis: 9}\n",
     "base_motion.axis"),
    ("scenario:\n  base_motion: {kind: sinusoid, amplitude: x}\n",
     "base_motion.amplitude"),
    ("scenario:\n  base_motion: {kind: static, pose: [1, 2]}\n",
     "base_motion.pose"),
    ("scenario:\n  disturbance: {kind: step, time: soon}\n",
     "disturbance.time"),
    ("scenario:\n  disturbance: {kind: step, value: [1, 2]}\n",
     "disturbance.value"),
    ("scenario:\n  disturbance: {kind: sinusoid, amplitude: [1, 2, 3]}\n",
     "disturbance.amplitude"),
    ("scenario:\n  base_motion: {kind: sinusoid, frequency: 1.0e+308}\n",
     "base_motion.frequency"),
    ("scenario:\n  disturbance: {kind: sinusoid, frequency: 1.0e+308}\n",
     "disturbance.frequency"),
    ("scenario:\n  reference: {angular_rate: 1.0e+308}\n",
     "reference.angular_rate"),
    ("scenario:\n  reference: {radius: 1.5e+308}\n", "reference.radius"),
    ("ftcnd: {xii: 3}\n", "^ftcnd.xii: unknown key$"),
    ("nftsm: {compensate_bse: false}\n",
     "^nftsm.compensate_bse: unknown key$"),
    ("scenario: {durration: 3}\n", "^scenario.durration: unknown key$"),
    ("pomptc: {horizn: 3}\n", "^pomptc.horizn: unknown key$"),
    ("pd: {kq: 3}\n", "^pd.kq: unknown key$"),
    ("foo: 1\n", "^foo: unknown key$"),
    ("ftcnd: {mu: .nan}\n", "^ftcnd: mu: expected a finite number, got nan$"),
    ("ftcnd: {max_time: .inf}\n",
     "^ftcnd: max_time: expected a finite number, got inf$"),
    ("ftcnd: {kappa: .nan}\n",
     "^ftcnd: kappa: expected a finite number, got nan$"),
    ("nftsm: {delta: .inf}\n",
     "^nftsm: delta: expected a finite number, got inf$"),
    ("nftsm: {r2: .nan}\n", "^nftsm: r2: expected a finite number, got nan$"),
    ("nftsm: {c2: -.inf}\n",
     "^nftsm: c2: expected a finite number, got -inf$"),
    (f"ftcnd: {{xi: {BIG_INT}}}\n",
     f"^ftcnd: xi: expected a finite number, got {BIG_INT}$"),
    ("pd: {kp: 0}\n", "pd.kp: expected a finite positive number"),
    ("pd: {kd: -25}\n", "pd.kd: expected a finite positive number"),
    ("pd: {kp: .inf}\n", "^pd: kp: expected a finite number, got inf$"),
    ("pd: {kd: .nan}\n", "^pd: kd: expected a finite number, got nan$"),
    ("nftsm: {compensate_base: true}\n",
     "^nftsm.compensate_base: unknown key$"),
    (f"scenario: {{duration: {BIG_INT}}}\n",
     f"^scenario: duration: expected a finite number, got {BIG_INT}$"),
    (f"pomptc: {{pose_weight: {BIG_INT}}}\n",
     f"^pomptc: pose_weight: expected a finite number, got {BIG_INT}$"),
    (f"scenario: {{reference: {{radius: {BIG_INT}}}}}\n",
     "reference.radius: expected a finite number"),
    (f"scenario: {{initial_q: [{BIG_INT}]}}\n",
     "initial_q: expected a finite number"),
    ("scenario:\n  initial_q: [0.5, 0.3, 0.2, 0.1, 0.1, 0.1,"
     " 0.0, -0.78, 0.0, -2.35, 0.0, 1.57, 0.78]\n",
     "^scenario: initial_q: expected the 7 arm angles, got 13 entries$"),
    ("robot: {builtin: planar_2link}\n",
     r"^robot: repeated key \(line 4\)$"),
    ("ftcnd: {mu: 3.0, mu: 7.0}\n",
     r"^ftcnd.mu: repeated key \(line 4\)$"),
    ("ftcnd: {<<: {mu: 3.0, mu: 7.0}}\n",
     r"^ftcnd.mu: repeated key \(line 4\)$"),
    ("scenario:\n  reference: {radius: 0.2, radius: 0.3}\n",
     r"^scenario.reference.radius: repeated key \(line 5\)$"),
    ("scenario:\n  reference: {kind: circle, radus: 0.2}\n",
     "^scenario: reference.radus: unknown key$"),
    ("scenario:\n  reference:\n    kind: waypoints\n    radius: 0.2\n"
     "    points:\n      - {time: 0, pose: [0, 0, 0, 0, 0, 0]}\n",
     "^scenario: reference.radius: unknown key$"),
    ("scenario:\n  reference:\n    kind: waypoints\n    points:\n"
     "      - {time: 0, pose: [0, 0, 0, 0, 0, 0], speed: 1}\n",
     "^scenario: reference.points.speed: unknown key$"),
    ("scenario:\n  base_motion: {kind: sinusoid, amplitdue: 0.1}\n",
     "^scenario: base_motion.amplitdue: unknown key$"),
    ("scenario:\n  disturbance: {kind: step, valu: 1.0}\n",
     "^scenario: disturbance.valu: unknown key$"),
    ("scenario:\n  base_motion: {kind: tilt, amplitude: 0.1}\n",
     "^scenario: base_motion.amplitude: unknown key$"),
    # int() refuses more than 4 300 digits; libyaml reads UTF-8, in which
    # a lone surrogate has no encoding.
    ("scenario: {duration: 1" + "0" * 5000 + "}\n",
     "^parse failure: .*5001 digits"),
    ("scenario: {reference: {kind: \ud800}}\n",
     "^parse failure: .*surrogates not allowed$"),
    # A number is a YAML int or float: never a bool, never a string.
    ("ftcnd: {xi: yes}\n", "^ftcnd: xi: expected a finite number, got True$"),
    ("pomptc: {horizon: on}\n",
     "^pomptc: horizon: expected a finite number, got True$"),
    ("scenario: {duration: '2'}\n",
     "^scenario: duration: expected a finite number, got '2'$"),
    ("scenario: {reference: {radius: yes}}\n",
     "^scenario: reference.radius: expected a finite number, got True$"),
    ("pd: {kp: x}\n", "^pd: kp: expected a finite number, got 'x'$"),
    ("scenario: {control_period: [1]}\n",
     r"^scenario: control_period: expected a finite number, got \[1\]$"),
    ("scenario: {reference: {kind: waypoints, points: []}}\n",
     "^scenario: reference.points must be a non-empty list$"),
    ("pomptc: {pose_weight: [1, 1, 1, 1, 1, -1]}\n",
     "^pomptc: pose weight must be positive semidefinite$"),
], ids=["horizon", "horizon_fraction", "control_horizon_fraction",
        "waypoint_time", "initial_q", "base_motion", "pose",
        "duration_inf", "duration_nan", "duration_huge",
        "duration_no_control_step", "control_period_nan",
        "torque_period_inf", "rows_over_cap", "circle_center",
        "circle_center_nan", "radius_inf", "angular_rate_list",
        "waypoint_pose_nan", "initial_q_nan", "base_axis_range",
        "base_amplitude_word", "base_pose_length", "disturbance_time_word",
        "disturbance_value_length", "disturbance_amplitude_length",
        "base_frequency_overflow", "disturbance_frequency_overflow",
        "angular_rate_overflow", "radius_overflow", "ftcnd_key",
        "nftsm_key", "scenario_key", "pomptc_key", "pd_key", "top_key",
        "ftcnd_nan", "ftcnd_inf", "kappa_nan", "nftsm_inf", "nftsm_nan",
        "nftsm_minus_inf", "ftcnd_int_overflow", "pd_zero", "pd_negative",
        "pd_inf", "pd_nan", "compensate_base_removed",
        "duration_int_overflow", "pose_weight_int_overflow",
        "radius_int_overflow", "initial_q_int_overflow",
        "initial_q_full_length", "repeated_robot", "repeated_ftcnd_key",
        "repeated_merged_key",
        "repeated_reference_key", "reference_misspelled_key",
        "waypoints_circle_key", "waypoint_point_key",
        "base_motion_misspelled_key", "disturbance_misspelled_key",
        "tilt_sinusoid_key", "integer_past_digit_limit", "lone_surrogate",
        "bool_gain", "bool_horizon", "string_duration", "bool_radius",
        "word_gain", "list_period", "waypoints_empty",
        "pose_weight_not_psd"])
def test_load_scenario_rejects_malformed_values(section, match):
    with pytest.raises(ConfigError, match=match):
        load_scenario(MINIMAL + section)


@pytest.mark.parametrize("doc, match", [
    (MINIMAL + "pomptc: {pose_weight: yes}\n",
     "^pomptc: pose_weight: expected a finite number, got True$"),
    (MINIMAL + "scenario: {disturbance: {kind: step, value: '1.5'}}\n",
     "^scenario: disturbance.value: expected a finite number, got '1.5'$"),
    (MINIMAL + "scenario: {base_motion: {kind: static, pose: yes}}\n",
     "^scenario: base_motion.pose: expected a finite number, got True$"),
    ("robot: {builtin: planar_2link, limits: {q_upper: ['60', '60']}}\n",
     "^robot.limits: q_upper: expected a finite number, got '60'$"),
    (MINIMAL + "scenario: {reference: {center: [0, 'x', 0]}}\n",
     "^scenario: reference.center: expected a finite number, got 'x'$"),
    (MINIMAL + "scenario: {reference: {orientation: here}}\n",
     "^scenario: reference.orientation: expected a finite number, "
     "got 'here'$"),
    (MINIMAL + "scenario:\n  reference:\n    kind: waypoints\n"
     "    points:\n      - {time: 0, pose: [0, 0, 0, 0, no, 0]}\n",
     "^scenario: reference.points.pose: expected a finite number, "
     "got False$"),
    (MINIMAL + "pomptc: {accel_weight: [[1, 2], [3]]}\n",
     r"^pomptc: accel_weight: expected a finite number, got \[1, 2\]$"),
    (MINIMAL + "pomptc: {accel_weight: [[[1]]]}\n",
     "^pomptc: accel_weight: expected scalar, length-7 diagonal, or 7x7 "
     "matrix$"),
], ids=["bool_pose_weight", "string_disturbance", "bool_base_pose",
        "string_limits", "string_center", "word_orientation",
        "bool_waypoint_pose", "ragged_weight", "deep_weight"])
def test_vector_entries_follow_the_number_rule(doc, match):
    # Each entry of a vector or matrix is a YAML int or float, never a
    # bool or a string, and the error names the key.
    with pytest.raises(ConfigError, match=match):
        load_scenario(doc)


def test_load_scenario_bounds_the_reference_window():
    # The plan reads horizon reference rows per control step at once:
    # 10 s at 0.01 s allows a horizon of 1 000 rows, not 1 001.
    doc = "robot: {builtin: planar_2link}\npomptc: {horizon: %s}\n"
    assert load_scenario(doc % 1000)[1].horizon == 1000
    for horizon in ("1001", "1.0e+12"):
        with pytest.raises(ConfigError, match=r"^pomptc: horizon: .* exceed "
                           r"the cap of 1000000 rows$"):
            load_scenario(doc % horizon)
    # Each step's H, (2N + 4Nu) n x Nu n, is held to pomptc.MAX_H_ENTRIES
    # on every robot.  On panda_on_base N = Nu = 100 gives 4 200 x 700
    # entries, N = Nu = 1 000 gives 42 000 x 7 000.
    text = (CONFIG_DIR / "nominal_circle.yaml").read_text(encoding="utf-8")
    pair = "  horizon: 5\n  control_horizon: 5\n"
    assert pair in text
    params = load_scenario(text.replace(pair, pair.replace("5", "100")))[1]
    assert (params.horizon, params.control_horizon) == (100, 100)
    with pytest.raises(ConfigError, match=r"^pomptc: horizon: each step's H "
                       r"of 294000000 entries exceeds the cap of 84000000 "
                       r"entries$"):
        load_scenario(text.replace(pair, pair.replace("5", "1000")))
    # On planar_2link (n = 2) over 1 s, N = 4 000 and Nu = 1 500 give
    # 28 000 x 3 000 entries, the cap itself; N = 4 001 gives 12 000 more.
    doc = ("robot: {builtin: planar_2link}\nscenario: {duration: 1.0}\n"
           "pomptc: {horizon: %d, control_horizon: 1500}\n")
    assert pomptc.MAX_H_ENTRIES == 84_000_000
    assert load_scenario(doc % 4000)[1].horizon == 4000
    with pytest.raises(ConfigError, match=r"^pomptc: horizon: each step's H "
                       r"of 84012000 entries exceeds the cap of 84000000 "
                       r"entries$"):
        load_scenario(doc % 4001)


@pytest.mark.parametrize("robot, match", [
    ("{builtin: panda_on_base, limitz: {}}", "robot.limitz: unknown key"),
    ("{builtin: planar_2link, limits: {q_lowr: [-1, -1]}}",
     "robot.limits.q_lowr: unknown key"),
    # The planner plans the arm; the base follows scenario.base_motion.
    ("{builtin: planar_2link, actuated_by_mpc: [true, true]}",
     "robot.actuated_by_mpc: unknown key"),
], ids=["robot", "robot_limits", "mpc_mask"])
def test_load_scenario_rejects_unknown_robot_keys(robot, match):
    with pytest.raises(ConfigError, match=f"^{match}$"):
        load_scenario(f"robot: {robot}\n")


def test_load_scenario_merges_a_mapping():
    # A merge key supplies the keys that its mapping does not set.
    _, params, _ = load_scenario(
        MINIMAL + "ftcnd: {<<: {mu: 3.0, xi: 2.0}, mu: 4.0}\n")
    assert (params.ftcnd.mu, params.ftcnd.xi) == (4.0, 2.0)


@pytest.mark.parametrize("doc, same", [
    ("pomptc: {velocity_weight: [2, 2, 2, 2, 2, 2, 2]}\n",
     "pomptc: {velocity_weight: 2}\n"),
    ("pd: {kp: &k 60.0, kd: *k}\n", "pd: {kp: 60.0, kd: 60.0}\n"),
], ids=["diagonal_weight", "alias"])
def test_equivalent_spellings_load_the_same_scenario(doc, same):
    assert serialize_scenario(*load_scenario(MINIMAL + doc)) \
        == serialize_scenario(*load_scenario(MINIMAL + same))


def test_shipped_configs_load_without_a_warning():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert [p.stem for p in paths] == ["base_sinusoid", "base_tilt",
                                       "nominal_circle"]
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_scenario(path.read_text(encoding="utf-8"))


def test_load_scenario_rejects_deep_nesting():
    # PyYAML's Python composer recurses per level, so the depth ends in
    # RecursionError; test_cli runs a depth that crashes libyaml's C
    # composer in a subprocess.
    with pytest.raises(ConfigError, match="^parse failure: .* too deeply$"):
        load_scenario("robot: " + "[" * 5000 + "]" * 5000)


def test_load_scenario_rejects_missing_robot():
    with pytest.raises(ConfigError, match="robot"):
        load_scenario("pomptc: {}")


def test_load_scenario_rejects_unknown_builtin():
    with pytest.raises(ConfigError, match="unknown model"):
        load_scenario("robot:\n  builtin: ur5\n")


@pytest.mark.parametrize("robot, match", [
    ("3", "robot: expected a mapping"),
    ("[builtin]", "robot: expected a mapping"),
    ("{builtin: [panda_on_base]}",
     r"robot.builtin: unknown model \['panda_on_base'\]"),
    ("{builtin: {a: 1}}", "robot.builtin: unknown model {'a': 1}"),
    ("{builtin: 3}", "robot.builtin: unknown model 3"),
    ("{builtin: null}", "robot.builtin: unknown model None"),
    ("{builtin: panda_on_base, limits: {q_upper: [1, 2]}}",
     "robot.limits: limits.q_upper: expected length 13, got 2"),
    ("{builtin: panda_on_base, limits: {q_upper: [[1, 2]]}}",
     "robot.limits: limits.q_upper: expected a vector of finite numbers"),
    ("{builtin: panda_on_base, limits: [1]}",
     "robot.limits: expected a mapping"),
], ids=["scalar", "list", "name_list", "name_dict", "name_int", "name_null",
        "limits_length", "limits_matrix", "limits_list"])
def test_load_scenario_rejects_malformed_robot(robot, match):
    with pytest.raises(ConfigError, match=f"^{match}$"):
        load_scenario(f"robot: {robot}\n")


def test_load_scenario_limit_override_validated():
    doc = """
robot:
  builtin: planar_2link
  limits:
    q_lower: [2.0, -1.0]
    q_upper: [1.0, 1.0]
"""
    with pytest.raises(ConfigError, match="index 0"):
        load_scenario(doc)


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_load_scenario_rejects_non_finite_limits(value):
    doc = f"""
robot:
  builtin: planar_2link
  limits:
    q_lower: [-1.0, {value}]
"""
    with pytest.raises(ConfigError, match="^robot.limits: q_lower: expected "
                       "a finite number, got -?(nan|inf)$"):
        load_scenario(doc)


def test_serialize_round_trip():
    doc = MINIMAL + """
scenario:
  duration: 2.0
  initial_q: [0.0, -0.78, 0.0, -2.35, 0.0, 1.57, 0.78]
  base_motion:
    kind: sinusoid
    axis: x
    amplitude: 0.05
    frequency: 0.5
"""
    model, params, script = load_scenario(doc)
    text = serialize_scenario(model, params, script)
    model2, params2, script2 = load_scenario(text)
    assert model2.name == model.name
    np.testing.assert_allclose(model2.limits.q_upper, model.limits.q_upper)
    assert params2.horizon == params.horizon
    assert params2.ftcnd == params.ftcnd
    assert params2.nftsm == params.nftsm
    assert script2 == script


def test_waypoints_reference_carries_only_its_own_keys():
    # The default reference is a circle: its keys are not merged into a
    # reference of another kind, and a round trip keeps the waypoints.
    points = [{"time": 0.0, "pose": [0.3, 0.0, 0.5, 0.0, 0.0, 0.0]},
              {"time": 1.0, "pose": [0.4, 0.1, 0.5, 0.0, 0.0, 0.0]}]
    doc = MINIMAL + """
scenario:
  duration: 1.0
  reference:
    kind: waypoints
    points:
      - {time: 0.0, pose: [0.3, 0.0, 0.5, 0.0, 0.0, 0.0]}
      - {time: 1.0, pose: [0.4, 0.1, 0.5, 0.0, 0.0, 0.0]}
"""
    model, params, script = load_scenario(doc)
    assert script.reference == {"kind": "waypoints", "points": points}
    text = serialize_scenario(model, params, script)
    assert load_scenario(text)[2] == script
    assert yaml.safe_load(text)["scenario"]["reference"] == script.reference


@functools.lru_cache(maxsize=None)
def _fuzz_seeds():
    """The shipped configs as written and with every default spelled out
    (serialize_scenario), so that a mutation can reach every key."""
    docs = {}
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        full = serialize_scenario(*load_scenario(text))
        docs[path.stem] = yaml.safe_load(text)
        docs[path.stem + "_full"] = yaml.safe_load(full)
    return docs


def _loader_cases():
    cases = {path.stem: path.read_text(encoding="utf-8")
             for path in sorted(CONFIG_DIR.glob("*.yaml"))}
    cases.update({f"seed_{name}": yaml.safe_dump(doc)
                  for name, doc in _fuzz_seeds().items()})
    return cases


@pytest.mark.parametrize("name", sorted(_loader_cases()))
def test_loader_reads_what_the_python_loader_reads(name):
    # libyaml's events, composed and constructed in Python, give the
    # document that PyYAML's pure-Python loader gives.
    text = _loader_cases()[name]
    assert yaml.load(text, Loader=_Loader) == yaml.load(
        text, Loader=yaml.SafeLoader)


def _keys(node):
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _keys(child)
    elif isinstance(node, list):
        for child in node:
            yield from _keys(child)


# Values a mutation puts into a config: wrong types, non-finite and
# extreme numbers, the configs' own keys and keywords, nested containers.
_WORDS = st.sampled_from(sorted(
    {"", "auto", "circle", "waypoints", "sinusoid", "tilt", "static",
     "none", "x", "panda_on_base", "planar_2link"}
    | {key for doc in _fuzz_seeds().values() for key in _keys(doc)}))
_LEAVES = st.one_of(st.none(), st.booleans(), _WORDS,
                    st.integers(-10 ** 4, 10 ** 4), st.floats(),
                    st.sampled_from([0, 1e-12, 1e9, 1e300, -1.0]),
                    st.lists(st.floats(-10.0, 10.0), max_size=14))
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_WORDS, inner, max_size=3)),
    max_leaves=8)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_load_scenario_fuzz_raises_only_config_error(data):
    # Up to three times, walk down a shipped config to a random depth and
    # replace, delete or add an entry there; loading must then succeed
    # or raise ConfigError.
    seeds = _fuzz_seeds()
    doc = copy.deepcopy(seeds[data.draw(st.sampled_from(sorted(seeds)))])
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or data.draw(st.booleans())):
            parent, key = node, data.draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        if parent is None:
            break
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del parent[key]
        elif action == "add" and isinstance(parent, dict):
            parent[data.draw(_WORDS)] = data.draw(_VALUES)
        else:
            parent[key] = data.draw(_VALUES)
    # A mutated config loads or raises ConfigError, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model, params, script = load_scenario(yaml.safe_dump(doc))
        except ConfigError:
            return
    # Every gain that loads is finite.
    gains = [*dataclasses.asdict(params.ftcnd).values(),
             *dataclasses.asdict(params.nftsm).values(),
             params.pd_kp, params.pd_kd]
    assert np.isfinite(gains).all()
    # A scenario that loads runs its time functions without error, and
    # they stay finite up to the end of the run.
    start = Pose(np.zeros(3), np.zeros(3))
    for t in (0.0, script.duration):
        assert all(np.isfinite(x).all() for x in script.base_state(t))
        assert np.isfinite(script.reference_path(np.array([t]), start)).all()
        assert np.isfinite(
            script.disturbance_torque(t, model.arm_joint_count)).all()
