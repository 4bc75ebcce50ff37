"""Deterministic closed-loop simulator for the two-layer controller.

The loop runs at two rates: every ``control_period`` the predictive
layer assembles the tracking QP and the neural solver (warm-started)
returns the joint-velocity increment, which is integrated into the
desired kinematic trajectory; every ``torque_period`` the sliding-mode
layer computes a torque and the arm plant is advanced by fixed-step
RK4.  The base follows the script exogenously; its linear acceleration
enters the plant as an inertial pseudo-torque and, when compensation is
enabled, the same term is fed forward by the controller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, ftcnd, kinematics as kin, nftsm, pomptc
from .kinematics import ConfigurationState, Pose
from .model import ControllerParams, RobotModel

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2, "yaw": 3, "pitch": 4, "roll": 5}
# Most torque-rate rows a run may record (about 0.7 GB for 13 DOFs).
MAX_TRACE_ROWS = 1_000_000


class SimulationError(RuntimeError):
    """Raised when the closed loop cannot continue (solver failures)."""


def _as_vector(value, length, name):
    arr = np.atleast_1d(np.asarray(value, float))
    if arr.shape == (1,):
        arr = np.full(length, arr[0])
    if arr.shape != (length,):
        raise ValueError(f"{name}: expected scalar or length-{length} vector")
    return arr


@dataclass(frozen=True)
class ScenarioScript:
    """Validated scenario: timing, reference, base motion, disturbance."""

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
        ref = dict(self.reference)
        kind = ref.get("kind", "circle")
        if kind == "circle":
            if float(ref.get("radius", 0.0)) < 0:
                raise ValueError("reference.radius must be non-negative")
        elif kind == "waypoints":
            pts = ref.get("points")
            if not isinstance(pts, list) or not pts:
                raise ValueError("reference.points must be a non-empty list")
            if not all(isinstance(p, dict) and "time" in p and "pose" in p
                       for p in pts):
                raise ValueError("reference.points: every point needs a "
                                 "time and a pose")
            times = [float(p["time"]) for p in pts]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("reference.points times must increase")
            for p in pts:
                if np.shape(p["pose"]) != (6,):
                    raise ValueError("reference.points poses must have 6 entries")
        else:
            raise ValueError(f"reference.kind: unknown kind {kind!r}")
        bm = self.base_motion.get("kind", "static")
        if bm not in ("static", "sinusoid", "tilt"):
            raise ValueError(f"base_motion.kind: unknown kind {bm!r}")
        if bm == "sinusoid":
            axis = self.base_motion.get("axis", "x")
            if isinstance(axis, str) and axis not in _AXIS_NAMES:
                raise ValueError(f"base_motion.axis: unknown axis {axis!r}")
        dk = self.disturbance.get("kind", "none")
        if dk not in ("none", "step", "sinusoid"):
            raise ValueError(f"disturbance.kind: unknown kind {dk!r}")

    @staticmethod
    def from_config(sec: dict, model: RobotModel) -> "ScenarioScript":
        for key in ("reference", "base_motion", "disturbance"):
            if not isinstance(sec[key], dict):
                raise ValueError(f"{key}: expected a mapping")
        init = sec.get("initial_q")
        if init is not None:
            try:
                init = tuple(float(x) for x in init)
            except (TypeError, ValueError):
                raise ValueError("initial_q: expected a list of numbers") from None
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
        return script

    def to_config(self) -> dict:
        out = {
            "duration": self.duration,
            "control_period": self.control_period,
            "torque_period": self.torque_period,
            "reference": dict(self.reference),
            "base_motion": dict(self.base_motion),
            "disturbance": dict(self.disturbance),
        }
        out["initial_q"] = list(self.initial_q) if self.initial_q else None
        return out

    # --- time functions -------------------------------------------------

    def base_state(self, t: float):
        """Base generalized position, velocity, acceleration at time t."""
        q = np.zeros(6)
        v = np.zeros(6)
        a = np.zeros(6)
        bm = self.base_motion
        kind = bm.get("kind", "static")
        if kind == "static":
            if "pose" in bm:
                q[:] = np.asarray(bm["pose"], float)
        elif kind == "tilt":
            q[4] = float(bm.get("angle", 0.21))
        else:  # sinusoid
            axis = bm.get("axis", "x")
            idx = _AXIS_NAMES[axis] if isinstance(axis, str) else int(axis)
            A = float(bm.get("amplitude", 0.1))
            om = 2.0 * math.pi * float(bm.get("frequency", 0.5))
            ph = float(bm.get("phase", 0.0))
            q[idx] = A * math.sin(om * t + ph)
            v[idx] = A * om * math.cos(om * t + ph)
            a[idx] = -A * om * om * math.sin(om * t + ph)
        return q, v, a

    def reference_pose(self, t: float, initial_pose: Pose) -> Pose:
        ref = self.reference
        if ref.get("kind", "circle") == "circle":
            r = float(ref.get("radius", 0.0))
            center = ref.get("center", "auto")
            if isinstance(center, str):
                center = initial_pose.position - np.array([r, 0.0, 0.0])
            else:
                center = np.asarray(center, float)
            ori = ref.get("orientation", "auto")
            if isinstance(ori, str):
                ori = initial_pose.orientation
            om = float(ref.get("angular_rate", 0.0))
            pos = center + r * np.array([math.cos(om * t), math.sin(om * t), 0.0])
            return Pose(pos, np.asarray(ori, float))
        pts = ref["points"]
        times = np.array([p["time"] for p in pts], float)
        poses = np.array([p["pose"] for p in pts], float)
        vec = np.array([np.interp(t, times, poses[:, k]) for k in range(6)])
        return Pose.from_vector(vec)

    def disturbance_torque(self, t: float, n: int) -> np.ndarray:
        d = self.disturbance
        kind = d.get("kind", "none")
        if kind == "none":
            return np.zeros(n)
        if kind == "step":
            if t >= float(d.get("time", 0.0)):
                return _as_vector(d.get("value", 0.0), n, "disturbance.value")
            return np.zeros(n)
        A = _as_vector(d.get("amplitude", 0.0), n, "disturbance.amplitude")
        om = 2.0 * math.pi * float(d.get("frequency", 1.0))
        return A * math.sin(om * t + float(d.get("phase", 0.0)))


@dataclass
class SimTrace:
    """Column-oriented record of one closed-loop run (torque-rate rows)."""

    time: np.ndarray
    q: np.ndarray          # (T, m)
    qdot: np.ndarray       # (T, m)
    qddot: np.ndarray      # (T, m)
    tau: np.ndarray        # (T, n)
    tau_b: np.ndarray      # (T, n)
    tau_d: np.ndarray      # (T, n)
    pose: np.ndarray       # (T, 6)
    pose_ref: np.ndarray   # (T, 6)
    err_pos: np.ndarray    # (T, 3)
    err_ori: np.ndarray    # (T, 3), wrapped Euler difference
    err_rotvec: np.ndarray  # (T, 3), rotation-vector orientation error
    solver_h_inf: np.ndarray
    solver_converge_time: np.ndarray
    solver_bound: np.ndarray
    sliding_V: np.ndarray
    sliding_Vdot: np.ndarray

    _POSE_NAMES = ("x", "y", "z", "yaw", "pitch", "roll")

    def column_names(self):
        m = self.q.shape[1]
        n = self.tau.shape[1]
        names = ["time"]
        for stem, cols in (("q", m), ("qdot", m), ("qddot", m),
                           ("tau", n), ("tau_b", n), ("tau_d", n)):
            names += [f"{stem}_{i}" for i in range(cols)]
        names += [f"pose_{c}" for c in self._POSE_NAMES]
        names += [f"ref_{c}" for c in self._POSE_NAMES]
        names += [f"err_pos_{c}" for c in "xyz"]
        names += [f"err_ori_{c}" for c in ("yaw", "pitch", "roll")]
        names += [f"err_rotvec_{c}" for c in "xyz"]
        names += ["solver_h_inf", "solver_converge_time", "solver_bound",
                  "sliding_V", "sliding_Vdot"]
        return names

    def as_matrix(self) -> np.ndarray:
        return np.column_stack([
            self.time, self.q, self.qdot, self.qddot, self.tau, self.tau_b,
            self.tau_d, self.pose, self.pose_ref, self.err_pos, self.err_ori,
            self.err_rotvec, self.solver_h_inf, self.solver_converge_time,
            self.solver_bound, self.sliding_V, self.sliding_Vdot])

    def to_csv(self, path):
        mat = self.as_matrix()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.column_names()) + "\n")
            for row in mat:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @staticmethod
    def from_csv(path) -> "SimTrace":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            mat = np.array([[float(x) for x in line.split(",")]
                            for line in fh if line.strip()])
        m = sum(1 for h in header if h.startswith("q_"))
        n = sum(1 for h in header if h.startswith("tau_")
                and not h.startswith(("tau_b", "tau_d")))

        def grab(count):
            nonlocal at
            block = mat[:, at:at + count]
            at += count
            return block if count > 1 else block[:, 0]

        at = 0
        return SimTrace(
            time=grab(1), q=grab(m), qdot=grab(m), qddot=grab(m),
            tau=grab(n), tau_b=grab(n), tau_d=grab(n),
            pose=grab(6), pose_ref=grab(6), err_pos=grab(3),
            err_ori=grab(3), err_rotvec=grab(3),
            solver_h_inf=grab(1), solver_converge_time=grab(1),
            solver_bound=grab(1), sliding_V=grab(1), sliding_Vdot=grab(1))


def pd_baseline_torque(model: RobotModel, q_m, qdot_m, desired,
                       kp: float, kd: float, gravity=None,
                       terms=None) -> np.ndarray:
    """Gravity-compensated PD: tau = G - Kp e1 - Kd e2."""
    if kp <= 0 or kd <= 0:
        raise ValueError("PD gains must be positive")
    q_m = np.asarray(q_m, float)
    qdot_m = np.asarray(qdot_m, float)
    if terms is None:
        terms = dynamics.dynamics_terms(model, q_m, qdot_m, gravity=gravity)
    e1 = q_m - np.asarray(desired["q_md"], float)
    e2 = qdot_m - np.asarray(desired["qd_md"], float)
    return terms.G - kp * e1 - kd * e2


def run_closed_loop(model: RobotModel, params: ControllerParams,
                    script: ScenarioScript, controller: str = "nftsm",
                    failure_budget: int = 3) -> SimTrace:
    """Run the scripted scenario and return the full trace.

    ``controller`` selects the torque law: "nftsm" (with base
    compensation per params), "nftsm-no-taub" (compensation forced off),
    or "pd" (gravity-compensated PD baseline).  The run is fully
    deterministic for a given configuration.
    """
    if controller not in ("nftsm", "pd", "nftsm-no-taub"):
        raise ValueError(f"unknown controller {controller!r}")
    n = model.arm_joint_count
    m = model.total_dof
    b = model.base_dof_count
    tc, tt = script.control_period, script.torque_period
    spc = round(tc / tt)
    n_control = round(script.duration / tc)
    n_rows = n_control * spc + 1

    if script.initial_q is not None:
        q0 = np.asarray(script.initial_q, float)
        q_arm = q0[-n:].copy()
    else:
        q_arm = np.zeros(n)
    qd_arm = np.zeros(n)
    q_md = q_arm.copy()

    def full_q(q_b, arm):
        return np.concatenate([q_b[:b], arm]) if b else np.asarray(arm, float)

    q_b0, _, _ = script.base_state(0.0)
    initial_pose = kin.forward_kinematics(model, full_q(q_b0, q_arm))

    compensate = params.compensate_base and controller == "nftsm"
    qdot_prev = np.zeros(m)
    warm = None
    failures = 0

    tr = SimTrace(
        time=np.zeros(n_rows), q=np.zeros((n_rows, m)),
        qdot=np.zeros((n_rows, m)), qddot=np.zeros((n_rows, m)),
        tau=np.zeros((n_rows, n)), tau_b=np.zeros((n_rows, n)),
        tau_d=np.zeros((n_rows, n)), pose=np.zeros((n_rows, 6)),
        pose_ref=np.zeros((n_rows, 6)), err_pos=np.zeros((n_rows, 3)),
        err_ori=np.zeros((n_rows, 3)), err_rotvec=np.zeros((n_rows, 3)),
        solver_h_inf=np.zeros(n_rows), solver_converge_time=np.zeros(n_rows),
        solver_bound=np.zeros(n_rows), sliding_V=np.zeros(n_rows),
        sliding_Vdot=np.zeros(n_rows))

    def record(row, t, q_full, qd_full, qdd_full, tau, tau_b, tau_d,
               sol, sdiag, vdot):
        pose = kin.forward_kinematics(model, q_full)
        ref = script.reference_pose(t, initial_pose)
        err = kin.pose_error(pose, ref)
        R = kin.rotation_rpy(pose.orientation[::-1])
        R_ref = kin.rotation_rpy(ref.orientation[::-1])
        tr.time[row] = t
        tr.q[row] = q_full
        tr.qdot[row] = qd_full
        tr.qddot[row] = qdd_full
        tr.tau[row] = tau
        tr.tau_b[row] = tau_b
        tr.tau_d[row] = tau_d
        tr.pose[row] = pose.as_vector()
        tr.pose_ref[row] = ref.as_vector()
        tr.err_pos[row] = err[:3]
        tr.err_ori[row] = err[3:]
        tr.err_rotvec[row] = kin.rotation_vector(R_ref.T @ R)
        tr.solver_h_inf[row] = sol[0]
        tr.solver_converge_time[row] = sol[1]
        tr.solver_bound[row] = sol[2]
        tr.sliding_V[row] = sdiag
        tr.sliding_Vdot[row] = vdot

    v_b0 = script.base_state(0.0)[1]
    record(0, 0.0, full_q(q_b0, q_arm),
           full_q(v_b0, qd_arm) if b else np.zeros(m), np.zeros(m),
           np.zeros(n), np.zeros(n), np.zeros(n), (0.0, 0.0, 0.0), 0.0, 0.0)

    s_prev = None
    row = 1
    for j in range(n_control):
        t_j = j * tc
        q_bj, _, _ = script.base_state(t_j)
        q_full_md = full_q(q_bj, q_md)
        state = ConfigurationState(q=q_full_md, qdot=qdot_prev,
                                   qdot_prev=qdot_prev)
        refs = [script.reference_pose(t_j + (i + 1) * tc, initial_pose)
                for i in range(params.horizon)]
        problem = pomptc.assemble_qp(model, state, refs, params.weights,
                                     tc, params.horizon,
                                     params.control_horizon)
        z, diag = ftcnd.solve(problem, params.ftcnd, warm_start=warm)
        if diag.constraint_violation > 1e-6:
            # Feasibility guard: loosen the angle rows just enough and
            # re-solve from scratch.
            problem = problem.relaxed(2.0 * diag.constraint_violation)
            z, diag = ftcnd.solve(problem, params.ftcnd)
        if not diag.converged:
            failures += 1
            if failures > failure_budget:
                raise SimulationError(
                    f"solver failed {failures} consecutive control steps "
                    f"(t = {t_j:.3f} s)")
        else:
            failures = 0
        warm = diag.final_state.v
        sol = (diag.h_inf_history[-1] if diag.h_inf_history else 0.0,
               diag.converge_time if diag.converged else math.inf,
               diag.bound_t_f)

        dq = pomptc.extract_first_increment(z, model)
        qdot_cmd = qdot_prev + dq
        qd_md = qdot_cmd[model.arm_slice]
        qdd_md = dq[model.arm_slice] / tc
        q_md_start = q_md.copy()

        for k in range(spc):
            t = t_j + k * tt
            q_bt, v_bt, a_bt = script.base_state(t)
            g_base = a_base = None
            if b:
                R_b = kin.rotation_rpy(q_bt[5:2:-1])
                g_base, a_base = R_b.T @ model.gravity, R_b.T @ a_bt[:3]
            desired = {"q_md": q_md_start + k * tt * qd_md,
                       "qd_md": qd_md, "qdd_md": qdd_md}
            terms0 = dynamics.dynamics_terms(model, q_arm, qd_arm,
                                             gravity=g_base, a_b=a_base)
            tau_b = terms0.tau_b
            if controller == "pd":
                tau = pd_baseline_torque(model, q_arm, qd_arm, desired,
                                         params.pd_kp, params.pd_kd,
                                         gravity=g_base, terms=terms0)
                e = dynamics.ErrorState(q_arm - desired["q_md"],
                                        qd_arm - desired["qd_md"])
                s_now = nftsm.sliding_surface(e, params.nftsm)
            else:
                tau, sd = nftsm.control_torque(model, q_arm, qd_arm, desired,
                                               params.nftsm, gravity=g_base,
                                               terms=terms0)
                s_now = sd.s
            tau_cmd = tau + tau_b if compensate else tau
            tau_d = script.disturbance_torque(t, n)
            vdot = 0.0
            if s_prev is not None:
                vdot = nftsm.lyapunov_diagnostics(
                    s_prev, s_now, tt, params.nftsm.delta).Vdot_estimate
            s_prev = s_now

            def accel(qa, qda, terms=None):
                if terms is None:
                    terms = dynamics.dynamics_terms(model, qa, qda,
                                                    gravity=g_base, a_b=a_base)
                return dynamics.forward_dynamics(
                    model, qa, qda, tau_cmd, tau_d=tau_d, tau_b=-terms.tau_b,
                    terms=terms)

            k1a = accel(q_arm, qd_arm, terms=terms0)
            k2v = qd_arm + 0.5 * tt * k1a
            k2a = accel(q_arm + 0.5 * tt * qd_arm, k2v)
            k3v = qd_arm + 0.5 * tt * k2a
            k3a = accel(q_arm + 0.5 * tt * k2v, k3v)
            k4v = qd_arm + tt * k3a
            k4a = accel(q_arm + tt * k3v, k4v)
            q_arm = q_arm + tt / 6.0 * (qd_arm + 2 * k2v + 2 * k3v + k4v)
            qd_arm = qd_arm + tt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)

            t_next = t + tt
            q_bn, v_bn, a_bn = script.base_state(t_next)
            record(row, t_next, full_q(q_bn, q_arm), full_q(v_bn, qd_arm),
                   full_q(a_bn, k1a), tau_cmd, tau_b, tau_d, sol,
                   float(0.5 * s_now @ s_now), vdot)
            row += 1

        q_md = q_md_start + tc * qd_md
        qdot_prev = qdot_cmd

    return tr


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
        "max_abs_torque": float(np.max(np.abs(trace.tau)))
        if trace.tau.size else 0.0,
    }
    if model is not None:
        lim = model.limits
        dt = np.diff(t)
        acc = np.diff(trace.qdot, axis=0) / dt[:, None]
        viol = max(
            float(np.max(np.append(trace.q - lim.q_upper, 0.0))),
            float(np.max(np.append(lim.q_lower - trace.q, 0.0))),
            float(np.max(np.append(trace.qdot - lim.qdot_upper, 0.0))),
            float(np.max(np.append(lim.qdot_lower - trace.qdot, 0.0))),
            float(np.max(np.append(acc - lim.qddot_upper, 0.0))),
            float(np.max(np.append(lim.qddot_lower - acc, 0.0))),
        )
        out["max_constraint_violation"] = viol
    return out
