"""Deterministic closed-loop simulator for the two-layer controller.

:func:`plan`, the kinematic layer, runs at the control rate: the
predictive layer assembles the tracking QP from the desired trajectory,
never from the plant, and the neural solver's joint-velocity increment
is integrated into that trajectory.  The first solve is cold; each
later one starts from a polynomial extrapolation of the last solutions
(:func:`warm_start`), of the order, up to 4, whose extrapolation from
the older solutions came closest to the solution just computed.
:func:`track`, the dynamic layer, runs at the torque rate: a torque law
of :data:`CONTROLLERS` computes a torque and the arm plant takes a
fixed RK4 step, so one plan serves every torque law.  The script's time
functions take arrays of times; each loop reads the script before it
starts, :func:`plan` every step's reference window in one call.  The
base follows the script exogenously; its linear acceleration enters the
plant as an inertial pseudo-torque and, when compensation is enabled,
the same term is fed forward.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dynamics, ftcnd, kinematics as kin, nftsm, pomptc
from .kinematics import Pose
from .model import ControllerParams, RobotModel, _known_keys

# The torque laws of :func:`track`.
CONTROLLERS = ("nftsm", "pd", "nftsm-no-taub")
_AXIS_NAMES = {"x": 0, "y": 1, "z": 2, "yaw": 3, "pitch": 4, "roll": 5}
# Most torque-rate rows a run may record (about 0.7 GB for 13 DOFs).
MAX_TRACE_ROWS = 1_000_000
# Consecutive unconverged control steps a run tolerates.
FAILURE_BUDGET = 3
# Trace rows per batch of the pose and error columns, which bounds the
# derivation's temporaries whatever the trace length.
POSE_BLOCK_ROWS = 256
# Highest order of the warm start's polynomial extrapolation.
_MAX_ORDER = 4
# Applied to the last _MAX_ORDER + 2 solutions, newest first: row p
# (p = 0 .. _MAX_ORDER) is the newest solution minus its order-p
# extrapolation from the p + 1 solutions before it (the backward
# difference of order p + 1), and row _MAX_ORDER + 1 + p is the order-p
# extrapolation of the next solution from the last p + 1.
_PREDICTOR = np.array(
    [[(-1) ** i * math.comb(p + 1, i) for i in range(_MAX_ORDER + 2)]
     for p in range(_MAX_ORDER + 1)]
    + [[(-1) ** i * math.comb(p + 1, i + 1) for i in range(_MAX_ORDER + 2)]
       for p in range(_MAX_ORDER + 1)], float)
# The keys that each kind of base motion and disturbance reads.
_BASE_MOTION_KEYS = {"static": ("pose",), "tilt": ("angle",),
                     "sinusoid": ("axis", "amplitude", "frequency", "phase")}
_DISTURBANCE_KEYS = {"none": (), "step": ("time", "value"),
                     "sinusoid": ("amplitude", "frequency", "phase")}


class SimulationError(RuntimeError):
    """Raised when the closed loop cannot continue (solver failures)."""


def _number(value, name):
    """``value`` as a finite float; the error names the key ``name``."""
    try:
        if math.isfinite(number := float(value)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name}: expected a finite number, got {value!r}")


def _as_vector(value, length, name):
    arr = np.atleast_1d(np.asarray(value, float))
    if arr.shape == (1,):
        arr = np.full(length, arr[0])
    if arr.shape != (length,) or not np.isfinite(arr).all():
        raise ValueError(f"{name}: expected a finite scalar or "
                         f"length-{length} vector")
    return arr


def _kind(spec, default, kinds, name):
    """``spec``'s kind; an unknown kind, or a key that the kind does not
    read, raises naming ``name.kind`` or ``name.<key>``."""
    kind = spec.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"{name}.kind: unknown kind {kind!r}")
    _known_keys(spec, ("kind",) + kinds[kind], f"{name}.")
    return kind


def _sinusoid_bounded(om, phase, peak, duration, name):
    """Raise naming the key ``name`` unless sin(om t + phase) has a
    finite argument over [0, duration] and ``peak`` is finite."""
    if not (math.isfinite(om * duration + phase) and math.isfinite(peak)):
        raise ValueError(f"{name}: the sinusoid overflows within the "
                         f"{duration:g} s run")


def _base_motion(spec: dict, duration: float):
    """Base generalized position, velocity and acceleration (q, v, a) as
    a function of times t in [0, duration] (a scalar or an array; each
    result has shape ``np.shape(t) + (6,)``), from ``base_motion``."""
    kind = _kind(spec, "static", _BASE_MOTION_KEYS, "base_motion")
    if kind in ("static", "tilt"):
        pose = np.zeros(6)
        if kind == "static":
            pose[:] = _as_vector(spec.get("pose", 0.0), 6, "base_motion.pose")
        else:
            pose[4] = _number(spec.get("angle", 0.21), "base_motion.angle")
        zero = np.zeros(6)
        return lambda t: tuple(np.broadcast_to(x, np.shape(t) + (6,)).copy()
                               for x in (pose, zero, zero))
    axis = spec.get("axis", "x")
    idx = _AXIS_NAMES.get(axis, axis) if isinstance(axis, str) else axis
    if isinstance(idx, bool) or idx not in range(6):
        raise ValueError(f"base_motion.axis: unknown axis {axis!r}; expected "
                         f"one of {', '.join(_AXIS_NAMES)} or 0-5")
    idx = int(idx)
    A = _number(spec.get("amplitude", 0.1), "base_motion.amplitude")
    om = 2.0 * math.pi * _number(spec.get("frequency", 0.5),
                                 "base_motion.frequency")
    ph = _number(spec.get("phase", 0.0), "base_motion.phase")
    _sinusoid_bounded(om, ph, A * om * om, duration, "base_motion.frequency")

    def state(t):
        q, v, a = np.zeros((3,) + np.shape(t) + (6,))
        q[..., idx] = A * np.sin(om * t + ph)
        v[..., idx] = A * om * np.cos(om * t + ph)
        a[..., idx] = -A * om * om * np.sin(om * t + ph)
        return q, v, a
    return state


def _reference(spec: dict, duration: float):
    """Reference pose vectors [x, y, z, yaw, pitch, roll] at ``times``
    (any shape; the result has shape ``times.shape + (6,)``) as a
    function of (times, initial pose), from ``reference``.  The angles
    are not wrapped yet: :class:`Pose` wraps them."""
    kind = spec.get("kind", "circle")
    if kind == "circle":
        r = _number(spec.get("radius", 0.0), "reference.radius")
        if r < 0:
            raise ValueError("reference.radius must be non-negative")
        center, ori = spec.get("center", "auto"), spec.get("orientation", "auto")
        center = None if isinstance(center, str) else np.asarray(center, float)
        ori = None if isinstance(ori, str) else np.asarray(ori, float)
        for name, value in (("center", center), ("orientation", ori)):
            if value is not None and (value.shape != (3,)
                                      or not np.isfinite(value).all()):
                raise ValueError(f"reference.{name} must have 3 finite "
                                 "entries")
        # The path stays within r of the centre; the auto one is r off.
        if not math.isfinite(2.0 * r if center is None
                             else np.abs(center).max() + r):
            raise ValueError("reference.radius: the circle overflows")
        om = _number(spec.get("angular_rate", 0.0), "reference.angular_rate")
        _sinusoid_bounded(om, 0.0, 0.0, duration, "reference.angular_rate")

        def circle(t, initial_pose):
            t = np.asarray(t, float)
            c = initial_pose.position - np.array([r, 0.0, 0.0]) \
                if center is None else center
            o = initial_pose.orientation if ori is None else ori
            pos = c + r * np.stack([np.cos(om * t), np.sin(om * t),
                                    np.zeros_like(t)], axis=-1)
            return np.concatenate([pos, np.broadcast_to(o, pos.shape)],
                                  axis=-1)
        return circle
    if kind != "waypoints":
        raise ValueError(f"reference.kind: unknown kind {kind!r}")
    pts = spec.get("points")
    if not isinstance(pts, list) or not pts:
        raise ValueError("reference.points must be a non-empty list")
    if not all(isinstance(p, dict) and "time" in p and "pose" in p
               for p in pts):
        raise ValueError("reference.points: every point needs a "
                         "time and a pose")
    times = np.array([_number(p["time"], "reference.points.time")
                      for p in pts])
    if np.any(np.diff(times) <= 0):
        raise ValueError("reference.points times must increase")
    poses = [np.asarray(p["pose"], float) for p in pts]
    if any(p.shape != (6,) or not np.isfinite(p).all() for p in poses):
        raise ValueError("reference.points poses must have 6 finite entries")
    poses = np.array(poses)
    return lambda t, initial_pose: np.stack(
        [np.interp(np.asarray(t, float), times, poses[:, k])
         for k in range(6)], axis=-1)


def _disturbance(spec: dict, duration: float):
    """External joint torque as a function of (times, n) for times t in
    [0, duration] (a scalar or an array; the result has shape
    ``np.shape(t) + (n,)``), from ``disturbance``."""
    kind = _kind(spec, "none", _DISTURBANCE_KEYS, "disturbance")
    if kind == "none":
        return lambda t, n: np.zeros(np.shape(t) + (n,))
    if kind == "step":
        t_on = _number(spec.get("time", 0.0), "disturbance.time")
        value = spec.get("value", 0.0)
        # A select, not a product: the torque before t_on is +0, never -0.
        return lambda t, n: np.where(
            np.asarray(t)[..., None] >= t_on,
            _as_vector(value, n, "disturbance.value"), 0.0)
    amplitude = spec.get("amplitude", 0.0)
    om = 2.0 * math.pi * _number(spec.get("frequency", 1.0),
                                 "disturbance.frequency")
    ph = _number(spec.get("phase", 0.0), "disturbance.phase")
    _sinusoid_bounded(om, ph, 0.0, duration, "disturbance.frequency")
    return lambda t, n: np.sin(om * np.asarray(t) + ph)[..., None] \
        * _as_vector(amplitude, n, "disturbance.amplitude")


@dataclass(frozen=True)
class ScenarioScript:
    """Validated scenario: timing, reference, base motion, disturbance.

    Construction resolves each ``kind`` once into a time function
    (``dataclasses.replace`` resolves them again): ``base_state(times)``,
    ``reference_path(times, initial_pose)`` and
    ``disturbance_torque(times, n)``, built by :func:`_base_motion`,
    :func:`_reference` and :func:`_disturbance`.  Each takes a scalar
    time or an array of times, and row i of its result at ``times`` is
    its result at ``times[i]``, bit for bit.
    """

    duration: float = 10.0
    control_period: float = 0.01
    torque_period: float = 0.001
    reference: dict = field(default_factory=lambda: {
        "kind": "circle", "center": "auto", "radius": 0.1,
        "angular_rate": 2 * math.pi / 10.0, "orientation": "auto"})
    base_motion: dict = field(default_factory=lambda: {"kind": "static"})
    disturbance: dict = field(default_factory=lambda: {"kind": "none"})
    initial_q: tuple | None = None

    def __post_init__(self):
        for name in ("duration", "control_period", "torque_period"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.duration / self.torque_period < MAX_TRACE_ROWS:
            raise ValueError(f"duration / torque_period exceeds the trace "
                             f"cap of {MAX_TRACE_ROWS} rows")
        if self.torque_period > self.control_period:
            raise ValueError("torque_period must not exceed control_period")
        ratio = self.control_period / self.torque_period
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("control_period must be an integer multiple "
                             "of torque_period")
        if round(self.duration / self.control_period) == 0:
            raise ValueError("duration must be at least half a "
                             "control_period: the run has no control step")
        object.__setattr__(self, "reference_path",
                           _reference(self.reference, self.duration))
        object.__setattr__(self, "base_state",
                           _base_motion(self.base_motion, self.duration))
        object.__setattr__(self, "disturbance_torque",
                           _disturbance(self.disturbance, self.duration))

    @staticmethod
    def from_config(sec: dict, model: RobotModel) -> "ScenarioScript":
        for key in ("reference", "base_motion", "disturbance"):
            if not isinstance(sec[key], dict):
                raise ValueError(f"{key}: expected a mapping")
        init = sec.get("initial_q")
        if init is not None:
            init = tuple(_number(x, "initial_q") for x in (
                init if isinstance(init, (list, tuple)) else [init]))
            if len(init) not in (model.arm_joint_count, model.total_dof):
                raise ValueError(
                    f"initial_q: expected {model.arm_joint_count} (arm) or "
                    f"{model.total_dof} (full) entries, got {len(init)}")
        script = ScenarioScript(
            duration=float(sec["duration"]),
            control_period=float(sec["control_period"]),
            torque_period=float(sec["torque_period"]),
            reference=dict(sec["reference"]),
            base_motion=dict(sec["base_motion"]),
            disturbance=dict(sec["disturbance"]),
            initial_q=init,
        )
        if script.base_motion["kind"] != "static" and model.base_dof_count < 6:
            raise ValueError("base_motion: model has no base DOFs to move")
        for key in ("value", "amplitude"):
            _as_vector(script.disturbance.get(key, 0.0),
                       model.arm_joint_count, f"disturbance.{key}")
        return script

    def to_config(self) -> dict:
        out = asdict(self)
        out["initial_q"] = list(self.initial_q) if self.initial_q else None
        return out


_POSE = ("x", "y", "z", "yaw", "pitch", "roll")


def _columns(suffixes=None, stem=None):
    """A trace field's columns: ``stem_<suffix>`` per suffix ("m" and "n"
    number the total and the arm DOFs), or one column ``stem`` without
    suffixes.  The stem defaults to the field name."""
    return field(metadata={"suffixes": suffixes, "stem": stem})


def write_csv(path, header, matrix):
    """np.savetxt(fmt="%.17g", delimiter=",")'s bytes, header first; 64
    rows per write keep the formatted text's memory small."""
    fmt = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in np.split(matrix, range(64, len(matrix), 64)):
            fh.writelines([fmt % tuple(r) for r in block.tolist()])


@dataclass
class SimTrace:
    """Column-oriented record of one closed-loop run (torque-rate rows).

    The fields, in this order, are the trace.csv column groups: the one
    declaration of the file's columns.  :func:`track` stores the fields
    up to ``tau_d`` and from ``solver_h_inf`` on; :func:`pose_columns`
    derives the pose and error fields from ``time`` and ``q`` at its end.
    """

    time: np.ndarray = _columns()
    q: np.ndarray = _columns("m")           # (T, m)
    qdot: np.ndarray = _columns("m")        # (T, m)
    qddot: np.ndarray = _columns("m")       # (T, m)
    tau: np.ndarray = _columns("n")         # (T, n)
    tau_b: np.ndarray = _columns("n")       # (T, n)
    tau_d: np.ndarray = _columns("n")       # (T, n)
    pose: np.ndarray = _columns(_POSE)
    pose_ref: np.ndarray = _columns(_POSE, stem="ref")
    err_pos: np.ndarray = _columns(_POSE[:3])
    err_ori: np.ndarray = _columns(_POSE[3:])     # wrapped Euler difference
    err_rotvec: np.ndarray = _columns(_POSE[:3])  # rotation-vector error
    solver_h_inf: np.ndarray = _columns()
    solver_converge_time: np.ndarray = _columns()
    solver_bound: np.ndarray = _columns()
    sliding_V: np.ndarray = _columns()
    sliding_Vdot: np.ndarray = _columns()

    @staticmethod
    def layout(m: int, n: int):
        """(field name, column names, width) of every field, in
        trace.csv order, for m total and n arm DOFs; width is None for a
        one-column field, held as a 1-D array."""
        out = []
        for f in fields(SimTrace):
            sfx, stem = f.metadata["suffixes"], f.metadata["stem"] or f.name
            if isinstance(sfx, str):
                sfx = range({"m": m, "n": n}[sfx])
            names = [stem] if sfx is None else [f"{stem}_{s}" for s in sfx]
            out.append((f.name, names, None if sfx is None else len(names)))
        return out

    @staticmethod
    def zeros(rows: int, m: int, n: int) -> "SimTrace":
        return SimTrace(**{
            name: np.zeros(rows if width is None else (rows, width))
            for name, _, width in SimTrace.layout(m, n)})

    def column_names(self):
        return [c for _, cols, _ in SimTrace.layout(self.q.shape[1],
                                                     self.tau.shape[1])
                for c in cols]

    def as_matrix(self) -> np.ndarray:
        return np.column_stack([getattr(self, f.name) for f in fields(self)])

    def to_csv(self, path):
        write_csv(path, self.column_names(), self.as_matrix())


def pd_baseline_torque(terms: dynamics.DynamicsTerms, e1, e2,
                       kp: float, kd: float) -> np.ndarray:
    """Gravity-compensated PD: tau = G - Kp e1 - Kd e2."""
    return terms.G - kp * e1 - kd * e2


# A run's desired arm trajectory, by control step j: ``q_md`` (J + 1, n)
# at each step's start and the run's end, ``qd_md`` and ``qdd_md``
# (J, n) held over the step, and ``solver`` (J, 3) the step's final
# max|h|, converge time and finite-time bound; ``initial_pose`` is the
# pose the reference path starts from.
Plan = namedtuple("Plan", "initial_pose q_md qd_md qdd_md solver")


def warm_start(past) -> np.ndarray:
    """The next solve's start from ``past`` (k, nz), the last k (1 to
    _MAX_ORDER + 2) solutions, newest first: the polynomial extrapolation
    of the order, at most min(k - 2, _MAX_ORDER), that came closest in
    the 2-norm to the newest solution when applied to the older ones
    (the lowest such order on a tie, and the newest solution itself
    while k = 1)."""
    k = len(past)
    rows = _PREDICTOR[:, :k] @ past
    errors = np.einsum("ij,ij->i", rows[:k - 1], rows[:k - 1])
    order = int(np.argmin(errors)) if k > 1 else 0
    return rows[_MAX_ORDER + 1 + order]


def plan(model: RobotModel, params: ControllerParams,
         script: ScenarioScript) -> Plan:
    """The kinematic layer: one warm FTCND solve of the tracking QP per
    control step, integrated into the desired arm trajectory.  Raises
    :class:`SimulationError` once more than ``FAILURE_BUDGET``
    consecutive solves fail to converge."""
    n, b = model.arm_joint_count, model.base_dof_count
    tc = script.control_period
    n_control = round(script.duration / tc)
    q_md = np.zeros((n_control + 1, n))
    if script.initial_q is not None:
        q_md[0] = script.initial_q[-n:]
    qd_md, qdd_md = np.zeros((2, n_control, n))
    solver = np.zeros((n_control, 3))
    base = script.base_state(np.arange(n_control + 1) * tc)[0][:, :b]
    initial_pose = kin.forward_kinematics(
        model, np.concatenate([base[0], q_md[0]]))
    # Step j's reference window is at j tc + (1 .. N) tc.
    refs = script.reference_path(
        (np.arange(n_control) * tc)[:, None]
        + np.arange(1, params.horizon + 1) * tc, initial_pose)

    qdot_prev = np.zeros(model.total_dof)
    warm, past = None, []   # past: the last solutions, newest first
    failures = 0
    for j in range(n_control):
        problem = pomptc.assemble_qp(
            model, np.concatenate([base[j], q_md[j]]), qdot_prev, refs[j],
            params.weights, tc, params.horizon, params.control_horizon)
        z, diag = ftcnd.solve(problem, params.ftcnd, warm_start=warm)
        past = [z] + past[:_MAX_ORDER + 1]
        warm = warm_start(np.array(past))
        failures = 0 if diag.converged else failures + 1
        if failures > FAILURE_BUDGET:
            raise SimulationError(
                f"solver failed {failures} consecutive control steps "
                f"(t = {j * tc:.3f} s)")
        solver[j] = diag.h_inf_history[-1], diag.converge_time, diag.bound_t_f
        dq = pomptc.extract_first_increment(z, model)
        qdot_prev = qdot_prev + dq
        qd_md[j] = qdot_prev[model.arm_slice]
        qdd_md[j] = dq[model.arm_slice] / tc
        q_md[j + 1] = q_md[j] + tc * qd_md[j]
    return Plan(initial_pose, q_md, qd_md, qdd_md, solver)


def track(model: RobotModel, params: ControllerParams,
          script: ScenarioScript, plan: Plan,
          controller: str = "nftsm") -> SimTrace:
    """The dynamic layer: the full trace of the arm plant, at rest at
    ``plan.q_md[0]``, tracking the plan under the torque law
    ``controller``: "nftsm" (with base compensation per params),
    "nftsm-no-taub" (compensation forced off), or "pd"
    (gravity-compensated PD baseline)."""
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")
    n, m, b = model.arm_joint_count, model.total_dof, model.base_dof_count
    tc, tt = script.control_period, script.torque_period
    spc = round(tc / tt)
    n_steps = len(plan.qd_md) * spc

    # The script, the plan's solver columns and the base frame of every
    # torque step, before the loop; a step starts at j tc + k tt.
    starts = ((np.arange(len(plan.qd_md)) * tc)[:, None]
              + np.arange(spc) * tt).ravel()
    tr = SimTrace.zeros(n_steps + 1, m, n)
    tr.time[1:] = starts + tt
    q_b, v_b, a_b = script.base_state(tr.time)
    tr.q[:, :b], tr.qdot[:, :b] = q_b[:, :b], v_b[:, :b]
    tr.qddot[1:, :b] = a_b[1:, :b]
    tr.q[0, b:] = plan.q_md[0]
    tr.tau_d[1:] = script.disturbance_torque(starts, n)
    (tr.solver_h_inf[1:], tr.solver_converge_time[1:],
     tr.solver_bound[1:]) = np.repeat(plan.solver, spc, axis=0).T
    g_steps = a_steps = [None] * n_steps
    if b:
        q_b, _, a_b = script.base_state(starts)
        R_bT = np.swapaxes(kin.rotation_rpy(q_b[:, 5:2:-1]), -1, -2)
        g_steps = R_bT @ model.gravity
        a_steps = (R_bT @ a_b[:, :3, None])[..., 0]

    compensate = params.compensate_base and controller == "nftsm"
    q_arm, qd_arm = plan.q_md[0], np.zeros(n)
    for i in range(n_steps):
        j, k = divmod(i, spc)
        g_base, a_base = g_steps[i], a_steps[i]
        qd_md = plan.qd_md[j]
        e1 = q_arm - (plan.q_md[j] + k * tt * qd_md)
        e2 = qd_arm - qd_md
        terms0 = dynamics.dynamics_terms(model, q_arm, qd_arm,
                                         gravity=g_base, a_b=a_base)
        if controller == "pd":
            tau = pd_baseline_torque(terms0, e1, e2, params.pd_kp,
                                     params.pd_kd)
            s_now = nftsm.sliding_surface(e1, e2, params.nftsm)
        else:
            tau, s_now = nftsm.control_torque(terms0, e1, e2, plan.qdd_md[j],
                                              params.nftsm)
        tau_cmd = tau + terms0.tau_b if compensate else tau
        tau_in = tau_cmd + tr.tau_d[i + 1]

        def accel(qa, qda):
            terms = dynamics.dynamics_terms(model, qa, qda,
                                            gravity=g_base, a_b=a_base)
            return dynamics.forward_dynamics(terms, tau_in - terms.tau_b)

        k1a = dynamics.forward_dynamics(terms0, tau_in - terms0.tau_b)
        k2v = qd_arm + 0.5 * tt * k1a
        k2a = accel(q_arm + 0.5 * tt * qd_arm, k2v)
        k3v = qd_arm + 0.5 * tt * k2a
        k3a = accel(q_arm + 0.5 * tt * k2v, k3v)
        k4v = qd_arm + tt * k3a
        k4a = accel(q_arm + tt * k3v, k4v)
        q_arm = q_arm + tt / 6.0 * (qd_arm + 2 * k2v + 2 * k3v + k4v)
        qd_arm = qd_arm + tt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)

        row = i + 1
        tr.q[row, b:], tr.qdot[row, b:], tr.qddot[row, b:] = \
            q_arm, qd_arm, k1a
        tr.tau[row] = tau_cmd
        tr.tau_b[row] = terms0.tau_b
        tr.sliding_V[row] = 0.5 * s_now @ s_now

    # V̇ is the backward difference of V between torque steps.
    tr.sliding_Vdot[2:] = np.diff(tr.sliding_V[1:]) / tt
    for start in range(0, n_steps + 1, POSE_BLOCK_ROWS):
        rows = slice(start, start + POSE_BLOCK_ROWS)
        (tr.pose[rows], tr.pose_ref[rows], tr.err_pos[rows],
         tr.err_ori[rows], tr.err_rotvec[rows]) = pose_columns(
            model, script, plan.initial_pose, tr.time[rows], tr.q[rows])
    return tr


def run_closed_loop(model: RobotModel, params: ControllerParams,
                    script: ScenarioScript,
                    controller: str = "nftsm") -> SimTrace:
    """The full, deterministic trace of the scripted scenario:
    :func:`track` of :func:`plan`.  The whole plan comes first, so a plan
    past the failure budget raises :class:`SimulationError` before the
    plant takes a step, even where the plant would diverge earlier."""
    return track(model, params, script, plan(model, params, script),
                 controller)


def pose_columns(model: RobotModel, script: ScenarioScript,
                 initial_pose: Pose, time, q):
    """The pose, pose_ref, err_pos, err_ori and err_rotvec columns of
    trace rows at ``time`` (T,) with joint vectors ``q`` (T, m), in batch.

    Row by row they equal :func:`kinematics.forward_kinematics`, the
    :class:`Pose` of ``script.reference_path``,
    :func:`kinematics.pose_error` and :func:`kinematics.rotation_vector`
    of ``R_ref' R``, where R and R_ref are rebuilt from the wrapped
    Euler angles.
    """
    _, _, R_ee, p_ee = kin.chain_frames(model, q)
    pose = Pose(p_ee, kin.euler_zyx(R_ee))
    ref = Pose.from_vector(script.reference_path(time, initial_pose))
    err = kin.pose_error(pose, ref)
    R = kin.rotation_rpy(pose.orientation[..., ::-1])
    R_ref = kin.rotation_rpy(ref.orientation[..., ::-1])
    return (pose.as_vector(), ref.as_vector(), err[..., :3], err[..., 3:],
            kin.rotation_vector(np.swapaxes(R_ref, -1, -2) @ R))


def error_metrics(trace: SimTrace, settle_window: float,
                  model: RobotModel | None = None,
                  pos_threshold: float = 0.01,
                  ori_threshold: float = 0.01,
                  bound_margin: float = 0.01) -> dict:
    """Summary metrics of one trace.

    Steady-state errors are max-norms over the final ``settle_window``
    seconds; convergence times mark the first entry into the threshold
    ball that is never left.  Constraint violation (needs ``model``)
    covers q, qdot, and the discrete acceleration of the recorded
    velocities against the model limits.
    """
    t = trace.time
    duration = t[-1] - t[0]
    if settle_window >= duration:
        raise ValueError("settle_window must be shorter than the trace")
    tail = t >= t[-1] - settle_window
    pos_norm = np.max(np.abs(trace.err_pos), axis=1)
    ori_norm = np.max(np.abs(trace.err_ori), axis=1)

    def conv_time(norm, threshold):
        above = norm > threshold
        if above.any():
            last = np.max(np.flatnonzero(above))
            if last + 1 >= len(t):
                return math.inf
            return float(t[last + 1])
        return float(t[0])

    out = {
        "steady_state_pos_err": float(np.max(pos_norm[tail])),
        "steady_state_ori_err": float(np.max(ori_norm[tail])),
        "convergence_time_pos": conv_time(pos_norm, pos_threshold),
        "convergence_time_ori": conv_time(ori_norm, ori_threshold),
        "solver_bound_violations": int(np.count_nonzero(
            trace.solver_converge_time > trace.solver_bound + bound_margin)),
        "max_abs_torque": float(np.max(np.abs(trace.tau), initial=0.0)),
    }
    if model is not None:
        lim = model.limits
        dt = np.diff(t)
        acc = np.diff(trace.qdot, axis=0) / dt[:, None]
        out["max_constraint_violation"] = max(
            float(np.max(excess, initial=0.0)) for excess in (
                trace.q - lim.q_upper, lim.q_lower - trace.q,
                trace.qdot - lim.qdot_upper, lim.qdot_lower - trace.qdot,
                acc - lim.qddot_upper, lim.qddot_lower - acc))
    return out
