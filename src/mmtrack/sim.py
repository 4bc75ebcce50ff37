"""Deterministic closed-loop simulator for the two-layer controller.

:func:`plan`, the kinematic layer, runs at the control rate: the
predictive layer assembles the tracking QP from the desired trajectory,
never from the plant, and the neural solver's joint-velocity increment
is integrated into that trajectory.  The first solve is cold; each
later one is warm-started from the cubic extrapolation of the last four
solutions (:func:`warm_start`), which picks the rows that the solver's
Newton step clamps (see :mod:`ftcnd`); on the shipped configs every
solve settles there without a step.
:func:`track`, the dynamic layer, runs at the torque rate: a torque law
of :data:`CONTROLLERS` computes a torque and the arm plant takes a
fixed RK4 step, so one plan serves every torque law.  The script's time
functions take arrays of times; each loop reads the script before it
starts, :func:`plan` every step's reference window in one call.  The
base follows the script exogenously; its linear acceleration enters the
plant as an inertial pseudo-torque, and the "nftsm" torque law feeds
the same term forward.  The plan keeps a row of :data:`STEP_COLUMNS`
per control step (steps.csv), the trace one per torque step (trace.csv).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import dynamics, ftcnd, kinematics as kin, nftsm, pomptc
from .kinematics import Pose
from .model import (ControllerParams, RobotModel, _known_keys, _number,
                    _numbers)

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
# Convergence ball (m, rad) and finite-time bound slack (s) of the metrics.
THRESHOLD = 0.01
# ``Plan.steps`` columns: start time, FtcndDiagnostics scalars, final max|h|.
STEP_COLUMNS = ("time", "converged", "iterations", "projection_events",
                "release_events", "factorizations", "block_solves",
                "converge_time", "bound_t_f", "constraint_violation",
                "equality_residual", "h_inf")
# The warm start's weights of the last k solutions, newest first: the
# extrapolation of order k - 1.
_EXTRAPOLATION = ([1.0], [2.0, -1.0], [3.0, -3.0, 1.0], [4.0, -6.0, 4.0, -1.0])
# Each kind of reference, base motion and disturbance, with the keys it
# reads and their defaults; a section's first kind is its default.
_KINDS = {
    "reference": {
        "circle": {"center": "auto", "radius": 0.1,
                   "angular_rate": 2 * math.pi / 10.0, "orientation": "auto"},
        "waypoints": {"points": None}},
    "base_motion": {
        "static": {"pose": 0.0}, "tilt": {"angle": 0.21},
        "sinusoid": {"axis": "x", "amplitude": 0.1, "frequency": 0.5,
                     "phase": 0.0}},
    "disturbance": {
        "none": {}, "step": {"time": 0.0, "value": 0.0},
        "sinusoid": {"amplitude": 0.0, "frequency": 1.0, "phase": 0.0}},
}


class SimulationError(RuntimeError):
    """Raised when the closed loop cannot continue (solver failures, a
    diverging plant)."""


def _as_vector(value, length, name):
    arr = np.atleast_1d(_numbers(value, name))
    arr = np.full(length, arr[0]) if arr.shape == (1,) else arr
    if arr.shape != (length,):
        raise ValueError(f"{name}: expected a finite scalar or "
                         f"length-{length} vector")
    return arr


def _arm_angles(init, model):
    """``initial_q``, None or the model's arm angles; another length
    raises naming ``initial_q``."""
    if init is not None and len(init) != model.arm_joint_count:
        raise ValueError(f"initial_q: expected the {model.arm_joint_count}"
                         f" arm angles, got {len(init)} entries")
    return init


def _kind(spec, name):
    """The kind of the ``name`` section ``spec`` and the spec with that
    kind's defaults filled in; a spec that is not a mapping, an unknown
    kind, or a key that the kind does not read raises naming ``name``,
    ``name.kind`` or ``name.<key>``."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name}: expected a mapping")
    kinds = _KINDS[name]
    kind = spec.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"{name}.kind: unknown kind {kind!r}")
    _known_keys(spec, ("kind", *kinds[kind]), f"{name}.")
    return kind, kinds[kind] | spec


def _sinusoid_bounded(om, phase, peak, duration, name):
    """Raise naming the key ``name`` unless sin(om t + phase) has a
    finite argument over [0, duration] and ``peak`` is finite."""
    if not (math.isfinite(om * duration + phase) and math.isfinite(peak)):
        raise ValueError(f"{name}: the sinusoid overflows within the "
                         f"{duration:g} s run")


def _base_motion(spec: dict, duration: float):
    """Base generalized position, velocity and acceleration (q, v, a) as
    a function of times t in [0, duration] (a scalar or an array; each
    result has shape ``np.shape(t) + (6,)``), from ``base_motion``, and
    whether the base moves: a static or tilted base has the same state,
    bit for bit, at every time."""
    kind, spec = _kind(spec, "base_motion")
    if kind in ("static", "tilt"):
        pose = np.zeros(6)
        if kind == "static":
            pose[:] = _as_vector(spec["pose"], 6, "base_motion.pose")
        else:
            pose[4] = _number(spec["angle"], "base_motion.angle")
        zero = np.zeros(6)
        return (lambda t: tuple(np.broadcast_to(x, np.shape(t) + (6,)).copy()
                                for x in (pose, zero, zero))), False
    axis = spec["axis"]
    idx = _AXIS_NAMES.get(axis, axis) if isinstance(axis, str) else axis
    if isinstance(idx, bool) or idx not in range(6):
        raise ValueError(f"base_motion.axis: unknown axis {axis!r}; expected "
                         f"one of {', '.join(_AXIS_NAMES)} or 0-5")
    idx = int(idx)
    A = _number(spec["amplitude"], "base_motion.amplitude")
    om = 2.0 * math.pi * _number(spec["frequency"], "base_motion.frequency")
    ph = _number(spec["phase"], "base_motion.phase")
    _sinusoid_bounded(om, ph, A * om * om, duration, "base_motion.frequency")

    def state(t):
        q, v, a = np.zeros((3,) + np.shape(t) + (6,))
        q[..., idx] = A * np.sin(om * t + ph)
        v[..., idx] = A * om * np.cos(om * t + ph)
        a[..., idx] = -A * om * om * np.sin(om * t + ph)
        return q, v, a
    return state, True


def _reference(spec: dict, duration: float):
    """Reference pose vectors [x, y, z, yaw, pitch, roll] at ``times``
    (any shape; the result has shape ``times.shape + (6,)``) as a
    function of (times, initial pose), from ``reference``.  The angles
    are not wrapped yet: :class:`Pose` wraps them."""
    kind, spec = _kind(spec, "reference")
    if kind == "circle":
        r = _number(spec["radius"], "reference.radius")
        if r < 0:
            raise ValueError("reference.radius must be non-negative")
        center, ori = (None if isinstance(v := spec[key], str) and v == "auto"
                       else _numbers(v, f"reference.{key}")
                       for key in ("center", "orientation"))
        for name, value in (("center", center), ("orientation", ori)):
            if value is not None and value.shape != (3,):
                raise ValueError(f"reference.{name} must have 3 entries")
        # The path stays within r of the centre; the auto one is r off.
        if not math.isfinite(2.0 * r if center is None
                             else np.abs(center).max() + r):
            raise ValueError("reference.radius: the circle overflows")
        om = _number(spec["angular_rate"], "reference.angular_rate")
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
    pts = spec["points"]
    if not isinstance(pts, list) or not pts:
        raise ValueError("reference.points must be a non-empty list")
    if not all(isinstance(p, dict) and "time" in p and "pose" in p
               for p in pts):
        raise ValueError("reference.points: every point needs a "
                         "time and a pose")
    for p in pts:
        _known_keys(p, ("time", "pose"), "reference.points.")
    times = np.array([_number(p["time"], "reference.points.time")
                      for p in pts])
    if np.any(np.diff(times) <= 0):
        raise ValueError("reference.points times must increase")
    poses = [_numbers(p["pose"], "reference.points.pose") for p in pts]
    if any(p.shape != (6,) for p in poses):
        raise ValueError("reference.points poses must have 6 finite entries")
    poses = np.array(poses)
    return lambda t, initial_pose: np.stack(
        [np.interp(np.asarray(t, float), times, poses[:, k])
         for k in range(6)], axis=-1)


def _disturbance(spec: dict, duration: float):
    """External joint torque as a function of (times, n) for times t in
    [0, duration] (a scalar or an array; the result has shape
    ``np.shape(t) + (n,)``), from ``disturbance``."""
    kind, spec = _kind(spec, "disturbance")
    if kind == "none":
        return lambda t, n: np.zeros(np.shape(t) + (n,))
    if kind == "step":
        t_on = _number(spec["time"], "disturbance.time")
        value = spec["value"]
        # A select, not a product: the torque before t_on is +0, never -0.
        return lambda t, n: np.where(
            np.asarray(t)[..., None] >= t_on,
            _as_vector(value, n, "disturbance.value"), 0.0)
    amplitude = spec["amplitude"]
    om = 2.0 * math.pi * _number(spec["frequency"], "disturbance.frequency")
    ph = _number(spec["phase"], "disturbance.phase")
    _sinusoid_bounded(om, ph, 0.0, duration, "disturbance.frequency")
    return lambda t, n: np.sin(om * np.asarray(t) + ph)[..., None] \
        * _as_vector(amplitude, n, "disturbance.amplitude")


@dataclass(frozen=True)
class ScenarioScript:
    """Validated scenario: timing, reference, base motion, disturbance.

    The periods and the ``initial_q`` angles (None: the zero
    configuration) are numbers by :func:`model._number`'s rule, stored as
    floats.  ``reference``, ``base_motion`` and ``disturbance`` are
    mappings whose missing keys, ``kind`` included, default to the
    :data:`_KINDS` entry.
    Construction resolves each ``kind`` once into a time function
    (``dataclasses.replace`` resolves them again): ``base_state(times)``,
    ``reference_path(times, initial_pose)`` and
    ``disturbance_torque(times, n)``, built by :func:`_base_motion`,
    :func:`_reference` and :func:`_disturbance`.  Each takes a scalar
    time or an array of times, and row i of its result at ``times`` is
    its result at ``times[i]``, bit for bit.  ``base_moves`` is False
    when ``base_state`` returns the same row at every time (a static or
    tilted base).
    """

    duration: float = 10.0
    control_period: float = 0.01
    torque_period: float = 0.001
    reference: dict = field(default_factory=dict)
    base_motion: dict = field(default_factory=dict)
    disturbance: dict = field(default_factory=dict)
    initial_q: tuple | None = None

    def __post_init__(self):
        for name in ("duration", "control_period", "torque_period"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if (init := self.initial_q) is not None:
            init = init if isinstance(init, (list, tuple)) else [init]
            object.__setattr__(self, "initial_q",
                               tuple(_number(x, "initial_q") for x in init))
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
        base_state, base_moves = _base_motion(self.base_motion,
                                              self.duration)
        object.__setattr__(self, "base_state", base_state)
        object.__setattr__(self, "base_moves", base_moves)
        object.__setattr__(self, "disturbance_torque",
                           _disturbance(self.disturbance, self.duration))


_POSE = ("x", "y", "z", "yaw", "pitch", "roll")


def _columns(suffixes=None, stem=None):
    """A trace field's columns: ``stem_<suffix>`` per suffix ("m" and "n"
    number the total and the arm DOFs), or one column ``stem`` without
    suffixes.  The stem defaults to the field name."""
    return field(metadata={"suffixes": suffixes, "stem": stem})


def write_csv(path, header, columns):
    """np.savetxt(fmt="%.17g", delimiter=",")'s bytes of the column stack
    of ``columns`` (1-D or 2-D, one row count), header first; only 64
    rows at a time are ever stacked and formatted."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), 64):
            block = np.column_stack([c[start:start + 64] for c in columns])
            fh.writelines([fmt % tuple(r) for r in block.tolist()])


@dataclass
class SimTrace:
    """Column-oriented record of one closed-loop run (torque-rate rows).

    The fields, in this order, are the trace.csv column groups: the one
    declaration of the file's columns.  :func:`track` stores the fields
    up to ``tau_d`` and the sliding-mode ones; :func:`pose_columns`
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
            names = (stem,) if sfx is None else tuple(
                f"{stem}_{s}" for s in sfx)
            out.append((f.name, names, None if sfx is None else len(names)))
        return tuple(out)

    @staticmethod
    def zeros(rows: int, m: int, n: int) -> "SimTrace":
        return SimTrace(**{
            name: np.zeros(rows if width is None else (rows, width))
            for name, _, width in SimTrace.layout(m, n)})

    def to_csv(self, path):
        """trace.csv, by :func:`write_csv` straight from the fields: the
        whole trace is never stacked into one matrix."""
        write_csv(path, [c for _, cols, _ in SimTrace.layout(
            self.q.shape[1], self.tau.shape[1]) for c in cols],
            [getattr(self, f.name) for f in fields(self)])


# A run's desired arm trajectory, by control step j: ``q_md`` (J + 1, n)
# at each step's start and the run's end, ``qd_md`` and ``qdd_md``
# (J, n) held over the step, and ``steps`` a row of STEP_COLUMNS per
# step; ``initial_pose`` is the pose the reference path starts from.
Plan = namedtuple("Plan", "initial_pose q_md qd_md qdd_md steps")


def warm_start(past) -> np.ndarray:
    """The next solve's start from ``past`` (k, nz), the last k (1 to 4)
    solutions, newest first: their polynomial extrapolation of order
    k - 1."""
    return _EXTRAPOLATION[len(past) - 1] @ past


def plan(model: RobotModel, params: ControllerParams,
         script: ScenarioScript) -> Plan:
    """The kinematic layer: one warm FTCND solve of the tracking QP per
    control step, integrated into the desired arm trajectory.  Raises
    :class:`SimulationError` at a step whose QP cannot be assembled or
    solved, or past ``FAILURE_BUDGET`` consecutive unconverged solves."""
    n, b = model.arm_joint_count, model.base_dof_count
    tc = script.control_period
    n_control = round(script.duration / tc)
    q_md = np.zeros((n_control + 1, n))
    # The script does not know the model, so its arm angles (None: the
    # zero configuration) are checked here.
    q_md[0] = _arm_angles(script.initial_q, model) or 0.0
    qd_md, qdd_md = np.zeros((2, n_control, n))
    steps = np.zeros((n_control, len(STEP_COLUMNS)))
    base = script.base_state(np.arange(n_control + 1) * tc)[0][:, :b]
    initial_pose = kin.forward_kinematics(
        model, np.concatenate([base[0], q_md[0]]))
    # Step j's reference window is at j tc + (1 .. N) tc.
    refs = script.reference_path(
        (np.arange(n_control) * tc)[:, None]
        + np.arange(1, params.horizon + 1) * tc, initial_pose)

    qdot_prev = np.zeros(n)
    warm, past = None, []   # past: the last solutions, newest first
    failures = 0
    for j in range(n_control):
        try:    # a LinAlgError is a ValueError
            problem = pomptc.assemble_qp(model, np.concatenate(
                [base[j], q_md[j]]), qdot_prev, refs[j], params.weights, tc,
                params.horizon, params.control_horizon)
            z, diag = ftcnd.solve(problem, params.ftcnd, warm_start=warm)
        except (ValueError, ftcnd.FtcndIntegrationError) as exc:
            raise SimulationError(
                f"control step at t = {j * tc:.3f} s: {exc}") from None
        past = [z] + past[:len(_EXTRAPOLATION) - 1]
        warm = warm_start(np.array(past))
        failures = 0 if diag.converged else failures + 1
        if failures > FAILURE_BUDGET:
            raise SimulationError(
                f"solver failed {failures} consecutive control steps "
                f"(t = {j * tc:.3f} s)")
        row = vars(diag) | {"time": j * tc, "h_inf": diag.h_inf_history[-1]}
        steps[j] = [row[name] for name in STEP_COLUMNS]
        dq = z[:n]
        qdot_prev = qdot_prev + dq
        qd_md[j] = qdot_prev
        qdd_md[j] = dq / tc
        q_md[j + 1] = q_md[j] + tc * qd_md[j]
    return Plan(initial_pose, q_md, qd_md, qdd_md, steps)


def track(model: RobotModel, params: ControllerParams,
          script: ScenarioScript, plan: Plan,
          controller: str = "nftsm") -> SimTrace:
    """The dynamic layer: the full trace of the arm plant, at rest at
    ``plan.q_md[0]``, tracking the plan under the torque law
    ``controller``: "nftsm" (with base compensation),
    "nftsm-no-taub" (compensation off), or "pd"
    (gravity-compensated PD baseline).  A torque step that overflows, or
    whose inertia matrix stops factoring, raises :class:`SimulationError`
    naming its time."""
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")
    n, m, b = model.arm_joint_count, model.total_dof, model.base_dof_count
    tc, tt = script.control_period, script.torque_period
    spc = round(tc / tt)
    n_steps = len(plan.qd_md) * spc

    # The script and the base frame of every torque step, before the
    # loop; a step starts at j tc + k tt.  A base that does not move has
    # one state and one frame, built once and broadcast.
    starts = ((np.arange(len(plan.qd_md)) * tc)[:, None]
              + np.arange(spc) * tt).ravel()
    tr = SimTrace.zeros(n_steps + 1, m, n)
    tr.time[1:] = starts + tt
    moves = script.base_moves
    q_b, v_b, a_b = script.base_state(tr.time if moves else tr.time[:1])
    tr.q[:, :b], tr.qdot[:, :b] = q_b[:, :b], v_b[:, :b]
    tr.qddot[1:, :b] = a_b[1:, :b] if moves else a_b[:, :b]
    tr.q[0, b:] = plan.q_md[0]
    tr.tau_d[1:] = script.disturbance_torque(starts, n)
    g_steps = a_steps = [None] * n_steps
    if b:
        q_b, _, a_b = script.base_state(starts if moves else starts[:1])
        R_bT = np.swapaxes(kin.rotation_rpy(q_b[:, 5:2:-1]), -1, -2)
        g_steps, a_steps = (np.broadcast_to(x, (n_steps, 3)) for x in (
            R_bT @ model.gravity, (R_bT @ a_b[:, :3, None])[..., 0]))

    compensate = controller == "nftsm"
    q_arm, qd_arm = plan.q_md[0], np.zeros(n)
    # RK4 stages' joint rates V and accelerations A, weights, offsets.
    V, A = np.zeros((2, 4, n))
    rk4_b = tt / 6.0 * np.array([1.0, 2.0, 2.0, 1.0])
    nodes_12, nodes_34 = tt * np.array([[[0.0], [0.5]], [[0.5], [1.0]]])
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(n_steps):
                j, k = divmod(i, spc)
                g_base, a_base = g_steps[i], a_steps[i]
                qd_md = plan.qd_md[j]
                e1 = q_arm - (plan.q_md[j] + k * tt * qd_md)
                e2 = qd_arm - qd_md
                # RK4 stages 1 and 2 sit at configurations known now,
                # stages 3 and 4 at ones known after stage 2.
                V[0] = qd_arm
                pair = dynamics.configuration_terms(
                    model, q_arm + nodes_12 * qd_arm, g_base, a_base)
                terms0 = pair.at(0, qd_arm)
                if controller == "pd":
                    tau = terms0.G - params.pd_kp * e1 - params.pd_kd * e2
                    s_now = nftsm.sliding_surface(e1, e2, params.nftsm)[0]
                else:
                    tau, s_now = nftsm.control_torque(
                        terms0, e1, e2, plan.qdd_md[j], params.nftsm)
                tau_cmd = tau + terms0.tau_b if compensate else tau
                tau_in = tau_cmd + tr.tau_d[i + 1]

                def accel(terms):
                    return dynamics.forward_dynamics(terms,
                                                     tau_in - terms.tau_b)

                A[0] = accel(terms0)
                V[1] = qd_arm + 0.5 * tt * A[0]
                A[1] = accel(pair.at(1, V[1]))
                V[2] = qd_arm + 0.5 * tt * A[1]
                pair = dynamics.configuration_terms(
                    model, q_arm + nodes_34 * V[1:3], g_base, a_base)
                A[2] = accel(pair.at(0, V[2]))
                V[3] = qd_arm + tt * A[2]
                A[3] = accel(pair.at(1, V[3]))
                q_arm = q_arm + rk4_b.dot(V)
                qd_arm = qd_arm + rk4_b.dot(A)

                row = i + 1
                tr.q[row, b:], tr.qdot[row, b:], tr.qddot[row, b:] = \
                    q_arm, qd_arm, A[0]
                tr.tau[row] = tau_cmd
                tr.tau_b[row] = terms0.tau_b
                tr.sliding_V[row] = (0.5 * s_now).dot(s_now)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise SimulationError(f"plant diverged at t = {starts[i]:.3f} s: "
                              f"{exc}") from None

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
    pose = kin.forward_kinematics(model, q)
    ref = Pose.from_vector(script.reference_path(time, initial_pose))
    err = kin.pose_error(pose, ref)
    R = kin.rotation_rpy(pose.orientation[..., ::-1])
    R_ref = kin.rotation_rpy(ref.orientation[..., ::-1])
    return (pose.as_vector(), ref.as_vector(), err[..., :3], err[..., 3:],
            kin.rotation_vector(np.swapaxes(R_ref, -1, -2) @ R))


def plan_metrics(plan: Plan) -> dict:
    """The solves past bound_t_f + THRESHOLD, and the solver's extremes."""
    col = dict(zip(STEP_COLUMNS, plan.steps.T))
    return {"solver_bound_violations": int(np.count_nonzero(
        col["converge_time"] > col["bound_t_f"] + THRESHOLD)),
        "max_iterations": int(col["iterations"].max(initial=0)),
        "settled_solves": int(np.count_nonzero(col["iterations"] == 0)),
        "max_qp_violation": float(col["constraint_violation"].max(initial=0))}


def error_metrics(trace: SimTrace, settle_window: float,
                  model: RobotModel) -> dict:
    """Summary metrics of one trace of ``model``.

    Steady-state errors are max-norms over the final ``settle_window``
    seconds; convergence times mark the first entry into the THRESHOLD
    ball that is never left.  Constraint violation covers q, qdot, and
    the discrete acceleration of the recorded velocities against the
    model limits; max(x - u) = max(x) - u and max(l - x) = l - min(x)
    exactly, as rounding a difference with a constant is monotone.
    """
    t = trace.time
    duration = t[-1] - t[0]
    if settle_window >= duration:
        raise ValueError("settle_window must be shorter than the trace")
    tail = t >= t[-1] - settle_window
    pos_norm = np.max(np.abs(trace.err_pos), axis=1)
    ori_norm = np.max(np.abs(trace.err_ori), axis=1)

    def conv_time(norm):
        above = np.flatnonzero(norm > THRESHOLD)
        k = above[-1] + 1 if above.size else 0
        return float(t[k]) if k < len(t) else math.inf

    lim = model.limits
    acc = np.diff(trace.qdot, axis=0) / np.diff(t)[:, None]
    return {
        "steady_state_pos_err": float(np.max(pos_norm[tail])),
        "steady_state_ori_err": float(np.max(ori_norm[tail])),
        "convergence_time_pos": conv_time(pos_norm),
        "convergence_time_ori": conv_time(ori_norm),
        "max_abs_torque": float(np.max(np.abs(trace.tau), initial=0.0)),
        "max_constraint_violation": max(
            float(np.max(excess, initial=0.0)) for x, lower, upper in (
                (trace.q, lim.q_lower, lim.q_upper),
                (trace.qdot, lim.qdot_lower, lim.qdot_upper),
                (acc, lim.qddot_lower, lim.qddot_upper))
            for excess in (x.max(axis=0) - upper, lower - x.min(axis=0))),
    }
