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

from mmtrack.ftcnd import FtcndParams
from mmtrack.kinematics import Pose
from mmtrack.model import (ConfigError, JointLimits, JointSpec,
                           builtin_panda_on_base, builtin_planar_2link,
                           load_scenario, serialize_scenario)
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
    assert m.mpc_dof == 7
    assert not m.actuated_by_mpc[:6].any()
    assert m.actuated_by_mpc[6:].all()
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
    with pytest.warns(UserWarning, match="r3"):
        assert params.nftsm == NftsmParams()
    assert params.compensate_base is True


def test_load_scenario_rejects_bad_horizon():
    doc = MINIMAL + "\npomptc:\n  horizon: 2\n  control_horizon: 4\n"
    with pytest.raises(ConfigError, match="horizon"):
        load_scenario(doc)


def test_load_scenario_rejects_bad_kappa():
    doc = MINIMAL + "\nftcnd:\n  kappa: 1.5\n"
    with pytest.raises(ConfigError, match="kappa"):
        load_scenario(doc)


@pytest.mark.parametrize("section, match", [
    ("pomptc:\n  horizon: x\n", "pomptc.horizon"),
    ("pomptc:\n  horizon: 5.9\n", "pomptc.horizon"),
    ("pomptc:\n  control_horizon: 2.5\n", "pomptc.control_horizon"),
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
     "      - {time: 0, pose: [0, 0, .nan, 0, 0, 0]}\n", "poses"),
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
    ("ftcnd: {mu: .nan}\n", "ftcnd: mu must be positive and finite"),
    ("ftcnd: {max_time: .inf}\n",
     "ftcnd: max_time must be positive and finite"),
    ("ftcnd: {kappa: .nan}\n", "ftcnd: kappa must be positive and finite"),
    ("nftsm: {delta: .inf}\n", "nftsm: delta must be positive and finite"),
    ("nftsm: {r2: .nan}\n", "nftsm: r2 must be positive and finite"),
    ("nftsm: {c2: -.inf}\n", "nftsm: c2 must be positive and finite"),
    (f"ftcnd: {{xi: {BIG_INT}}}\n", "ftcnd: int too large"),
    ("pd: {kp: 0}\n", "pd.kp: expected a finite positive number"),
    ("pd: {kd: -25}\n", "pd.kd: expected a finite positive number"),
    ("pd: {kp: .inf}\n", "pd.kp: expected a finite positive number"),
    ("pd: {kd: .nan}\n", "pd.kd: expected a finite positive number"),
    ("nftsm: {compensate_base: 'false'}\n",
     "nftsm.compensate_base: expected true or false"),
    ("nftsm: {compensate_base: 0}\n",
     "nftsm.compensate_base: expected true or false"),
    (f"scenario: {{duration: {BIG_INT}}}\n", "scenario: int too large"),
    (f"pomptc: {{pose_weight: {BIG_INT}}}\n", "pomptc: int too large"),
    (f"scenario: {{reference: {{radius: {BIG_INT}}}}}\n",
     "reference.radius: expected a finite number"),
    (f"scenario: {{initial_q: [{BIG_INT}]}}\n",
     "initial_q: expected a finite number"),
    ("robot: {builtin: planar_2link}\n",
     r"^robot: repeated key \(line 4\)$"),
    ("ftcnd: {mu: 3.0, mu: 7.0}\n", r"^mu: repeated key \(line 4\)$"),
    ("scenario:\n  base_motion: {kind: sinusoid, amplitdue: 0.1}\n",
     "^scenario: base_motion.amplitdue: unknown key$"),
    ("scenario:\n  disturbance: {kind: step, valu: 1.0}\n",
     "^scenario: disturbance.valu: unknown key$"),
    ("scenario:\n  base_motion: {kind: tilt, amplitude: 0.1}\n",
     "^scenario: base_motion.amplitude: unknown key$"),
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
        "pd_inf", "pd_nan", "compensate_base_string",
        "compensate_base_int", "duration_int_overflow",
        "pose_weight_int_overflow", "radius_int_overflow",
        "initial_q_int_overflow", "repeated_robot", "repeated_ftcnd_key",
        "base_motion_misspelled_key", "disturbance_misspelled_key",
        "tilt_sinusoid_key"])
def test_load_scenario_rejects_malformed_values(section, match):
    with pytest.raises(ConfigError, match=match):
        load_scenario(MINIMAL + section)


@pytest.mark.parametrize("robot, match", [
    ("{builtin: panda_on_base, limitz: {}}", "robot.limitz: unknown key"),
    ("{builtin: planar_2link, limits: {q_lowr: [-1, -1]}}",
     "robot.limits.q_lowr: unknown key"),
], ids=["robot", "robot_limits"])
def test_load_scenario_rejects_unknown_robot_keys(robot, match):
    with pytest.raises(ConfigError, match=f"^{match}$"):
        load_scenario(f"robot: {robot}\n")


def test_load_scenario_rejects_all_false_mpc_mask():
    text = (CONFIG_DIR / "nominal_circle.yaml").read_text(encoding="utf-8")
    text = text.replace("  builtin: panda_on_base\n",
                        "  builtin: panda_on_base\n  actuated_by_mpc: "
                        + str([False] * 13).lower() + "\n")
    with pytest.raises(ConfigError,
                       match="robot.actuated_by_mpc: .* no true entry"):
        load_scenario(text)


def test_load_scenario_rejects_missing_robot():
    with pytest.raises(ConfigError, match="robot"):
        load_scenario("pomptc: {}")


def test_load_scenario_rejects_unknown_builtin():
    with pytest.raises(ConfigError, match="unknown model"):
        load_scenario("robot:\n  builtin: ur5\n")


@pytest.mark.parametrize("robot", [
    "3", "[builtin]", "{builtin: [panda_on_base]}", "{builtin: {a: 1}}",
    "{builtin: 3}", "{builtin: null}",
], ids=["scalar", "list", "name_list", "name_dict", "name_int", "name_null"])
def test_load_scenario_rejects_malformed_robot(robot):
    with pytest.raises(ConfigError, match="robot"):
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
    with pytest.raises(ConfigError, match="q_lower: expected a vector of finite"):
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


@functools.lru_cache(maxsize=None)
def _fuzz_seeds():
    """The shipped configs as written and with every default spelled out
    (serialize_scenario), so that a mutation can reach every key."""
    docs = {}
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # nominal_circle sets r3 = 1
            full = serialize_scenario(*load_scenario(text))
        docs[path.stem] = yaml.safe_load(text)
        docs[path.stem + "_full"] = yaml.safe_load(full)
    return docs


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
