"""Robot description, joint-limit tables, and scenario configuration loading.

A mobile manipulator is modelled as a single serial chain: six virtual
base joints (three prismatic x/y/z, then three revolute yaw/pitch/roll)
followed by the arm joints.  All types are immutable after construction.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property

import numpy as np
import yaml


class ConfigError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


if yaml.__with_libyaml__:
    class _Events(yaml.composer.Composer, yaml.CSafeLoader):
        def __init__(self, stream):
            yaml.CSafeLoader.__init__(self, stream)
            yaml.composer.Composer.__init__(self)
else:
    _Events = yaml.SafeLoader


class _Loader(_Events):
    """libyaml's parser (when PyYAML has it) under PyYAML's Python composer;
    rejects a repeated key, naming its path, instead of keeping the last."""

    def construct_document(self, node):
        # The composed tree is walked before construction, so that each
        # mapping's path is known; a node that aliases share, or that
        # contains itself, is checked once.
        stack, seen = [(node, "")], set()
        while stack:
            inner, path = stack.pop()
            if id(inner) in seen:
                continue
            seen.add(id(inner))
            if isinstance(inner, yaml.SequenceNode):
                stack.extend((child, path) for child in inner.value)
            elif isinstance(inner, yaml.MappingNode):
                keys = []
                for key_node, child in inner.value:
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        stack.append((child, path))
                        continue
                    key = self.construct_object(key_node, deep=True)
                    if key in keys:
                        raise ConfigError(
                            f"{path}{key}: repeated key (line "
                            f"{key_node.start_mark.line + 1})")
                    keys.append(key)
                    stack.append((child, f"{path}{key}."))
        return super().construct_document(node)


def _freeze(a, dtype=float):
    out = np.asarray(a, dtype=dtype).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class JointSpec:
    """One degree of freedom of the chain.

    The joint frame is reached from the parent frame by the fixed
    transform (origin_xyz, origin_rpy), then the joint moves about/along
    ``axis`` (unit vector in the joint frame).
    """

    kind: str  # "revolute" | "prismatic"
    axis: np.ndarray
    origin_xyz: np.ndarray
    origin_rpy: np.ndarray  # (roll, pitch, yaw), applied as Rz(yaw) Ry(pitch) Rx(roll)

    def __post_init__(self):
        if self.kind not in ("revolute", "prismatic"):
            raise ConfigError(f"unknown joint kind {self.kind!r}")
        object.__setattr__(self, "axis", _freeze(self.axis))
        object.__setattr__(self, "origin_xyz", _freeze(self.origin_xyz))
        object.__setattr__(self, "origin_rpy", _freeze(self.origin_rpy))
        n = np.linalg.norm(self.axis)
        if not math.isclose(n, 1.0, rel_tol=1e-9):
            raise ConfigError("joint axis must be a unit vector")


_LIMIT_NAMES = ("q_lower", "q_upper", "qdot_lower", "qdot_upper",
                "qddot_lower", "qddot_upper")


@dataclass(frozen=True)
class JointLimits:
    """Three-level box limits for every DOF (base DOFs first, then arm)."""

    q_lower: np.ndarray
    q_upper: np.ndarray
    qdot_lower: np.ndarray
    qdot_upper: np.ndarray
    qddot_lower: np.ndarray
    qddot_upper: np.ndarray

    def __post_init__(self):
        for name in _LIMIT_NAMES:
            arr = _freeze(getattr(self, name))
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise ConfigError(f"limits.{name}: expected a vector of "
                                  "finite numbers")
            object.__setattr__(self, name, arr)
        m = len(self.q_lower)
        for name in _LIMIT_NAMES[1:]:
            if len(getattr(self, name)) != m:
                raise ConfigError(f"limits.{name}: expected length {m}, "
                                  f"got {len(getattr(self, name))}")
        bad = np.flatnonzero(self.q_lower >= self.q_upper)
        if bad.size:
            raise ConfigError(f"limits: limit ordering violated at index {bad[0]}")
        for lo, hi, name in ((self.qdot_lower, self.qdot_upper, "qdot"),
                             (self.qddot_lower, self.qddot_upper, "qddot")):
            bad = np.flatnonzero(~((lo < 0) & (hi > 0)))
            if bad.size:
                raise ConfigError(
                    f"limits.{name}: bounds must straddle zero, violated at index {bad[0]}")

    @property
    def dof(self) -> int:
        return len(self.q_lower)


@dataclass(frozen=True)
class RobotModel:
    """Kinematic chain plus dynamic parameters of the arm links.

    ``joints`` covers every DOF: base virtual joints first (may be zero
    for a fixed-base arm), then the arm.  Dynamic parameters
    (``link_masses``, ``link_com_offsets``, ``rotor_inertia``) describe
    the arm links only; the base is treated as massless and exogenously
    driven.  ``task_rows`` selects which pose components are meaningful
    task coordinates (all six for a spatial arm, fewer for the planar
    test arm).
    """

    name: str
    base_dof_count: int
    arm_joint_count: int
    joints: tuple
    ee_offset_xyz: np.ndarray
    ee_offset_rpy: np.ndarray
    link_masses: np.ndarray
    link_com_offsets: np.ndarray  # (n, 3), COM of link i in its joint frame
    rotor_inertia: np.ndarray
    gravity: np.ndarray  # gravity vector in the base frame, m/s^2
    limits: JointLimits
    task_rows: tuple = (0, 1, 2, 3, 4, 5)

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        for name in ("ee_offset_xyz", "ee_offset_rpy", "link_masses",
                     "link_com_offsets", "rotor_inertia", "gravity"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        m = self.base_dof_count + self.arm_joint_count
        if len(self.joints) != m:
            raise ConfigError(f"expected {m} joints, got {len(self.joints)}")
        if self.limits.dof != m:
            raise ConfigError(
                f"limits cover {self.limits.dof} DOFs, model has {m}")
        n = self.arm_joint_count
        if self.link_masses.shape != (n,):
            raise ConfigError("link_masses must have one entry per arm joint")
        if np.any(self.link_masses <= 0):
            raise ConfigError("link masses must be positive")
        if self.link_com_offsets.shape != (n, 3):
            raise ConfigError("link_com_offsets must be (n, 3)")

    @property
    def total_dof(self) -> int:
        return self.base_dof_count + self.arm_joint_count

    @property
    def arm_slice(self) -> slice:
        return slice(self.base_dof_count, self.total_dof)

    @cached_property
    def fixed_transforms(self) -> "ChainTables":
        """Constant chain tables, stacked over the joints and derived on
        first use.  Joint k's local transform is ``L = T0 + sin q T1 +
        (1 - cos q) T2 + q T3``, T0 the origin transform, T1 and T2 R0 K
        and R0 K @ K (origin rotation R0, axis skew K) if revolute, T3 the
        slide R0 axis if prismatic; ``plain`` (m, 4, 16) holds the rows
        [T0 + T2, T1, -T2, T3] that (1, sin q, cos q, q) weigh into L.
        Also ``slides`` (a prismatic arm joint?), the EE offset ``ee``,
        ``axes``, the ``revolute`` mask, ``points`` (n, 16, 18), mapping
        an arm frame to [rev K(a), a, COM, origin], ``links`` (n, 1, n),
        1 where arm link i moves with joint k <= i at [k, 0, i], ``rotor``
        and ``pair_weights`` (n * n, 1), 2, 1, 0 at row k n + l for l <,
        =, > k."""
        from .kinematics import axis_skew, rotation_rpy
        m, n = self.total_dof, self.arm_joint_count
        R0 = np.array([rotation_rpy(j.origin_rpy) for j in self.joints])
        K = np.array([axis_skew(j.axis) for j in self.joints])
        axes = np.array([j.axis for j in self.joints])
        revolute = np.array([j.kind == "revolute" for j in self.joints])
        T = np.zeros((4, m, 4, 4))
        T[:3, :, :3, :3] = [R0, R0 @ K, R0 @ (K @ K)]
        T[1:3] *= revolute[:, None, None]
        T[0, :, :3, 3] = [j.origin_xyz for j in self.joints]
        T[3, :, :3, 3] = (R0 @ axes[:, :, None])[..., 0] * ~revolute[:, None]
        T[0, :, 3, 3] = 1.0
        T0, T1, T2, T3 = T          # L = (T0 + T2) + sin T1 - cos T2 + q T3
        plain = np.array([T0 + T2, T1, -T2, T3]).swapaxes(0, 1)
        ee = np.block([[rotation_rpy(self.ee_offset_rpy),
                        self.ee_offset_xyz[:, None]], [np.zeros(3), 1.0]])
        # a = R axis, the COM R com + o and the origin o of an arm frame
        # F = [[R, o], [0, 1]] are linear in F.ravel(), and so is K(a).
        arm = slice(self.base_dof_count, None)
        lin = np.zeros((3, n, 4, 4, 3))   # [a/COM/o, k, row, column, out]
        lin[:2, :, :3, :3] = np.eye(3)[:, None] * np.array(
            [axes[arm], self.link_com_offsets])[:, :, None, :, None]
        lin[1:, :, :3, 3] = np.eye(3)
        skew = lin[0] @ np.array([axis_skew(e).ravel() for e in np.eye(3)])
        points = np.concatenate([skew * revolute[arm, None, None, None],
                                 *lin], axis=-1).reshape(n, 16, 18)
        k, l = np.indices((n, n))
        return ChainTables(_freeze(plain.reshape(m, 4, 16)),
                           not revolute[arm].all(),
                           _freeze(ee), _freeze(axes),
                           _freeze(revolute, dtype=bool), _freeze(points),
                           _freeze(np.triu(np.ones((n, n)))[:, None]),
                           _freeze(np.diag(self.rotor_inertia)),
                           _freeze(np.sign(k - l) + 1).reshape(n * n, 1))


ChainTables = namedtuple("ChainTables", "plain slides ee axes revolute "
                         "points links rotor pair_weights")


def _base_joints():
    ez = (0.0, 0.0, 1.0)
    return [
        JointSpec("prismatic", (1, 0, 0), (0, 0, 0), (0, 0, 0)),
        JointSpec("prismatic", (0, 1, 0), (0, 0, 0), (0, 0, 0)),
        JointSpec("prismatic", ez, (0, 0, 0), (0, 0, 0)),
        JointSpec("revolute", ez, (0, 0, 0), (0, 0, 0)),   # yaw
        JointSpec("revolute", (0, 1, 0), (0, 0, 0), (0, 0, 0)),  # pitch
        JointSpec("revolute", (1, 0, 0), (0, 0, 0), (0, 0, 0)),  # roll
    ]


# Surrogate 7-joint chain: frame layout follows the published Panda URDF
# joint origins; masses, COM offsets and rotor inertias are round-number
# stand-ins chosen for a well-conditioned mass matrix.
_PANDA_FRAMES = [
    ((0.0, 0.0, 0.333), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (-math.pi / 2, 0.0, 0.0)),
    ((0.0, -0.316, 0.0), (math.pi / 2, 0.0, 0.0)),
    ((0.0825, 0.0, 0.0), (math.pi / 2, 0.0, 0.0)),
    ((-0.0825, 0.384, 0.0), (-math.pi / 2, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (math.pi / 2, 0.0, 0.0)),
    ((0.088, 0.0, 0.0), (math.pi / 2, 0.0, 0.0)),
]
_PANDA_MASSES = [3.0, 3.0, 2.5, 2.5, 2.0, 1.5, 0.5]
_PANDA_COMS = [
    (0.0, -0.03, -0.08),
    (0.0, -0.07, 0.03),
    (0.04, 0.03, -0.05),
    (-0.04, 0.08, 0.0),
    (0.0, 0.03, -0.10),
    (0.06, 0.0, 0.0),
    (0.0, 0.0, 0.08),
]

ARM_Q_UPPER = [2.5, 1.70, 2.5, -0.07, 2.5, 3.75, 2.5]
ARM_Q_LOWER = [-2.5, -1.70, -2.5, -3.07, -2.5, -0.01, -2.5]
ARM_QDOT_UPPER = [2, 2, 2, 2, 2.5, 2.5, 2.5]
ARM_QDDOT_UPPER = [15, 7, 10, 12, 15, 20, 20]
BASE_POS_UPPER = [1, 1, 3]
BASE_POS_LOWER = [-1, -1, -1]
BASE_ORI_UPPER = [1, 1, 1]
BASE_VEL_LIN_UPPER = [1, 1, 3]
BASE_VEL_ANG_UPPER = [1, 1, 1]
BASE_ACC_UPPER = [1, 1, 1]


def builtin_panda_on_base() -> RobotModel:
    """6-DOF virtual base plus the 7-joint surrogate arm (m = 13, n = 7)."""
    joints = _base_joints()
    for xyz, rpy in _PANDA_FRAMES:
        joints.append(JointSpec("revolute", (0, 0, 1), xyz, rpy))
    q_upper = np.concatenate([BASE_POS_UPPER, BASE_ORI_UPPER, ARM_Q_UPPER])
    q_lower = np.concatenate([BASE_POS_LOWER, [-1, -1, -1], ARM_Q_LOWER])
    qd_upper = np.concatenate([BASE_VEL_LIN_UPPER, BASE_VEL_ANG_UPPER, ARM_QDOT_UPPER])
    qd_lower = np.concatenate([[-1, -1, -1], [-1, -1, -1],
                               -np.asarray(ARM_QDOT_UPPER, float)])
    qdd_upper = np.concatenate([BASE_ACC_UPPER, BASE_ACC_UPPER, ARM_QDDOT_UPPER])
    qdd_lower = -qdd_upper
    return RobotModel(
        name="panda_on_base",
        base_dof_count=6,
        arm_joint_count=7,
        joints=joints,
        ee_offset_xyz=(0.0, 0.0, 0.107),
        ee_offset_rpy=(0.0, 0.0, 0.0),
        link_masses=_PANDA_MASSES,
        link_com_offsets=_PANDA_COMS,
        rotor_inertia=np.full(7, 0.1),
        gravity=(0.0, 0.0, -9.81),
        limits=JointLimits(q_lower, q_upper, qd_lower, qd_upper,
                           qdd_lower, qdd_upper),
    )


def builtin_planar_2link() -> RobotModel:
    """Fixed-base 2-link planar arm in the x-y plane (gravity along -y):
    links of 0.5 m and 1 kg with their COMs at mid-length.

    Every closed-form oracle in the test suite runs against this model.
    """
    joints = [
        JointSpec("revolute", (0, 0, 1), (0, 0, 0), (0, 0, 0)),
        JointSpec("revolute", (0, 0, 1), (0.5, 0, 0), (0, 0, 0)),
    ]
    big = 50.0
    return RobotModel(
        name="planar_2link",
        base_dof_count=0,
        arm_joint_count=2,
        joints=joints,
        ee_offset_xyz=(0.5, 0.0, 0.0),
        ee_offset_rpy=(0.0, 0.0, 0.0),
        link_masses=(1.0, 1.0),
        link_com_offsets=((0.25, 0.0, 0.0), (0.25, 0.0, 0.0)),
        rotor_inertia=(0.0, 0.0),
        gravity=(0.0, -9.81, 0.0),
        limits=JointLimits([-big, -big], [big, big],
                           [-big, -big], [big, big],
                           [-big, -big], [big, big]),
        task_rows=(0, 1),
    )


_BUILTINS = {
    "panda_on_base": builtin_panda_on_base,
    "planar_2link": builtin_planar_2link,
}


@dataclass(frozen=True)
class ControllerParams:
    """Bundle of the controller-stack parameters loaded from a scenario."""

    weights: "object"           # pomptc.PomptcWeights
    horizon: int                # N
    control_horizon: int        # Nu
    ftcnd: "object"             # ftcnd.FtcndParams
    nftsm: "object"             # nftsm.NftsmParams
    pd_kp: float
    pd_kd: float

    def __post_init__(self):
        for key, gain in (("kp", self.pd_kp), ("kd", self.pd_kd)):
            if not 0.0 < gain < math.inf:
                raise ConfigError(f"pd.{key}: expected a finite positive "
                                  f"number, got {gain!r}")


# Defaults of the sections without a parameter dataclass; ftcnd, nftsm
# and scenario take their dataclass's field defaults.
_DEFAULTS = {
    "pomptc": {"pose_weight": 50000.0, "velocity_weight": 1.0,
               "accel_weight": 20.0, "horizon": 5, "control_horizon": 5},
    "pd": {"kp": 60.0, "kd": 25.0},
}
_SECTIONS = ("robot", "pomptc", "ftcnd", "nftsm", "pd", "scenario")
_ROBOT_KEYS = ("builtin", "limits")


def _known_keys(mapping, allowed, path):
    """Raise naming ``path.key`` for the first key of ``mapping`` that is
    not in ``allowed``."""
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}{key}: unknown key")


def _number(value, name):
    """``value`` as a float if it is a finite int or float, never a bool
    (YAML's ``yes`` and ``on``) or a string; else raise naming ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:
            pass
    raise ValueError(f"{name}: expected a finite number, got {value!r}")


def _numbers(value, name):
    """``value``, a number or nested lists of them (an array as its
    lists), as a float array whose entries follow :func:`_number`."""
    value = np.array(value, dtype=object)
    return np.array([_number(x, name) for x in value.flat]).reshape(
        value.shape)


def _integer(value, name):
    """``value`` as an int: a whole number by :func:`_number`'s rule."""
    if (number := _number(value, name)).is_integer():
        return int(number)
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def _checked(path, build):
    """``build()``, whose malformed-value error becomes a
    :class:`ConfigError` prefixed with ``path``; YAML integers are
    unbounded, so converting one may overflow."""
    try:
        return build()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _section(doc, key, defaults):
    """The ``key`` mapping of ``doc`` over ``defaults``: a dict, or a
    dataclass whose field defaults are read."""
    if not isinstance(defaults, dict):
        defaults = {f.name: f.default if f.default_factory is MISSING
                    else f.default_factory() for f in fields(defaults)}
    user = doc.get(key)
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError(f"{key}: expected a mapping")
    _known_keys(user, defaults, f"{key}.")
    return defaults | user


def _weight_matrix(value, size, name):
    arr = _numbers(value, name)
    if arr.ndim == 0:
        return float(arr) * np.eye(size)
    if arr.shape == (size,):
        return np.diag(arr)
    if arr.shape == (size, size):
        return arr
    raise ValueError(f"{name}: expected scalar, length-{size} diagonal, "
                     f"or {size}x{size} matrix")


def _build_robot(sec):
    if not isinstance(sec, dict):
        raise ConfigError("robot: expected a mapping")
    _known_keys(sec, _ROBOT_KEYS, "robot.")
    if "builtin" in sec:
        name = sec["builtin"]
        if not isinstance(name, str) or name not in _BUILTINS:
            raise ConfigError(f"robot.builtin: unknown model {name!r}")
        model = _BUILTINS[name]()
    else:
        raise ConfigError("robot: only builtin models are supported; "
                          "set robot.builtin to one of "
                          + ", ".join(sorted(_BUILTINS)))
    limits = sec.get("limits")
    if limits:
        if not isinstance(limits, dict):
            raise ConfigError("robot.limits: expected a mapping")
        _known_keys(limits, _LIMIT_NAMES, "robot.limits.")
        model = _checked("robot.limits", lambda: replace(
            model, limits=JointLimits(**{
                name: _numbers(limits.get(name, getattr(model.limits, name)),
                               name) for name in _LIMIT_NAMES})))
    return model


def load_scenario(config_document: str):
    """Parse a YAML scenario document.

    Returns ``(RobotModel, ControllerParams, ScenarioScript)``.  A
    missing key takes its default, from ``_DEFAULTS`` or a field default
    of FtcndParams, NftsmParams or ScenarioScript.  A scalar is a YAML
    int or float (:func:`_number`, :func:`_integer`), never a bool or a
    string.  Any malformed value raises :class:`ConfigError` naming its
    section and key.
    """
    from . import ftcnd as _ftcnd
    from . import nftsm as _nftsm
    from . import pomptc as _pomptc
    from . import sim as _sim

    try:
        doc = yaml.load(config_document, Loader=_Loader)
    except ConfigError:
        raise
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"parse failure: {exc}") from None
    except RecursionError:
        # The Python composer recurses per level; libyaml's C one would crash.
        raise ConfigError("parse failure: the document is nested too "
                          "deeply") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a mapping")
    _known_keys(doc, _SECTIONS, "")

    if "robot" not in doc:
        raise ConfigError("robot: section is required")
    model = _build_robot(doc["robot"])
    po = _section(doc, "pomptc", _DEFAULTS["pomptc"])
    ft = _section(doc, "ftcnd", _ftcnd.FtcndParams)
    nf = _section(doc, "nftsm", _nftsm.NftsmParams)
    pd = _section(doc, "pd", _DEFAULTS["pd"])
    sc = _section(doc, "scenario", _sim.ScenarioScript)

    def pomptc():
        arm = model.arm_joint_count
        weights = _pomptc.PomptcWeights(*(
            _weight_matrix(po[key], size, key) for key, size in (
                ("pose_weight", 6), ("velocity_weight", arm),
                ("accel_weight", arm))))
        n, nu = (_integer(po[key], key)
                 for key in ("horizon", "control_horizon"))
        if not n >= nu >= 1:
            raise ValueError("horizon: need horizon >= control_horizon >= 1")
        return weights, n, nu

    def numbers(sec):
        return {key: _number(value, key) for key, value in sec.items()}

    def scenario():
        script = _sim.ScenarioScript(**sc)
        # The model's checks: base DOFs to move (a fixed base holds the
        # zero base state), one angle and one disturbance entry per arm
        # joint.
        if not model.base_dof_count and np.any(script.base_state(0.0)):
            raise ValueError("base_motion: model has no base DOFs to move")
        _sim._arm_angles(script.initial_q, model)
        script.disturbance_torque(0.0, model.arm_joint_count)
        return script

    params = ControllerParams(   # in field order
        *_checked("pomptc", pomptc),
        _checked("ftcnd", lambda: _ftcnd.FtcndParams(**numbers(ft))),
        _checked("nftsm", lambda: _nftsm.NftsmParams(**numbers(nf))),
        *_checked("pd", lambda: [_number(pd[k], k) for k in ("kp", "kd")]))
    script = _checked("scenario", scenario)
    steps = round(script.duration / script.control_period)
    if steps * params.horizon > _sim.MAX_TRACE_ROWS:   # the plan's refs
        raise ConfigError(f"pomptc: horizon: {params.horizon} rows per control"
                          f" step over {steps} steps exceed the cap of "
                          f"{_sim.MAX_TRACE_ROWS} rows")
    # Each step's H has (2N + 4Nu) n rows and Nu n columns.
    nu, n = params.control_horizon, model.arm_joint_count
    entries = (2 * params.horizon + 4 * nu) * n * nu * n
    if entries > (cap := _pomptc.MAX_H_ENTRIES):
        raise ConfigError(f"pomptc: horizon: each step's H of {entries} "
                          f"entries exceeds the cap of {cap} entries")
    return model, params, script
