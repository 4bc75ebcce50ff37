"""Receding-horizon pose-tracking QP assembly.

The quadratic program minimizes, over stacked joint-velocity increments
z, the weighted sum of linearized pose-tracking errors, joint
velocities, and velocity increments over the horizon, subject to
three-level (angle / velocity / acceleration) box constraints.  The
Jacobian J is held constant over the horizon, so the cost's quadratic
form is, for the prediction matrix U and accumulation matrix I1,

    kron(U'U, J' Wp J) + kron(I1'I1, Wv) + kron(I, Wa).

:func:`assemble_qp` builds it from these blocks after one chain pass
(:func:`kinematics.linearization`).  U, I1, U'U, I1'I1 and the
constraint matrix H depend on (t, N, Nu, n) alone: their one home,
:func:`horizon_blocks`, builds them once per such tuple and shares them
read-only; :class:`QpProblem` copies the H it is given.  The assembly's
oracle, ``tests/oracles.py``'s ``direct_cost``, rolls the horizon step
by step without U or I1 and sums the objective literally.
"""
from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np

from . import kinematics as kin
from .kinematics import Pose
from .model import RobotModel

# The loader's cap on the entries of one step's H (0.67 GB of float64).
MAX_H_ENTRIES = 84_000_000


def _check_psd(A, name):
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(A, A.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(A).min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite")
    return A


@dataclass(frozen=True)
class PomptcWeights:
    """Cost weights: pose error (6x6), velocity and increment (nxn)."""

    pose: np.ndarray
    velocity: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pose", _check_psd(self.pose, "pose weight"))
        object.__setattr__(self, "velocity",
                           _check_psd(self.velocity, "velocity weight"))
        object.__setattr__(self, "accel", _check_psd(self.accel, "accel weight"))
        if self.velocity.shape != self.accel.shape:
            raise ValueError("velocity and accel weights must match in size")
        if np.linalg.eigvalsh(self.accel).min() <= 0:
            raise ValueError("accel weight must be positive definite")


@dataclass(frozen=True)
class QpProblem:
    """Dense QP  min 1/2 z'Sz + G'z  s.t.  Hz <= w.

    H stacks six blocks in fixed order: position upper/lower, velocity
    upper/lower, acceleration upper/lower, each of size N*m' or Nu*m'.
    """

    S: np.ndarray
    G: np.ndarray
    H: np.ndarray
    w: np.ndarray
    t: float
    N: int
    Nu: int
    m_prime: int

    def __post_init__(self):
        for name in ("S", "G", "H", "w"):
            a = np.asarray(getattr(self, name), float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        nz, nc = self.n_variables, self.n_constraints
        if self.S.shape != (nz, nz):
            raise ValueError(f"S must be {nz}x{nz}")
        if self.G.shape != (nz,):
            raise ValueError(f"G must have length {nz}")
        if self.H.shape != (nc, nz) or self.w.shape != (nc,):
            raise ValueError(f"H/w must have {nc} rows")

    @property
    def n_variables(self) -> int:
        return self.m_prime * self.Nu

    @property
    def n_constraints(self) -> int:
        return (2 * self.N + 4 * self.Nu) * self.m_prime

    def objective(self, z) -> float:
        z = np.asarray(z, float)
        return float(0.5 * z @ self.S @ z + self.G @ z)

    def check_finite(self):
        """Raise ValueError naming the first of S, G, H, w that holds a
        NaN or an infinity: qp_oracle before any work, ftcnd on failure."""
        for name in ("S", "G", "H", "w"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")


def assemble_qp(model: RobotModel, q, qdot_prev, pose_refs,
                weights: PomptcWeights, t: float, N: int, Nu: int) -> QpProblem:
    """Build the dense QP at configuration ``q`` for the (N, 6) reference
    window ``pose_refs``; ``qdot_prev`` is the commanded arm velocity (an
    n-vector) of the previous control step, which the velocity recursion
    starts from.

    The pose over the horizon is linearized about the current
    configuration, p(j+i) ~ p(j) + J(q(j)) (q(j+i) - q(j)), with the
    Jacobian held constant.  Only the model's ``task_rows`` of the pose
    error are weighted.  The decision vector holds the arm's velocity
    increments (m' = n); the base follows its scripted motion and is
    frozen at the current state over the horizon.
    """
    if not (N >= Nu >= 1):
        raise ValueError("need N >= Nu >= 1")
    if t <= 0:
        raise ValueError("sampling period must be positive")
    pose_refs = np.asarray(pose_refs, float)
    if pose_refs.shape != (N, 6):
        raise ValueError(f"expected {N} pose references, got {pose_refs.shape}")
    arm, n = model.arm_slice, model.arm_joint_count
    q = np.asarray(q, float)
    pose_now, J, singular, det = kin.linearization(model, q)
    if singular:
        raise ValueError(
            f"configuration is representation-singular (det {det:.3e})")
    rows = list(model.task_rows)
    J = np.asfortranarray(J[rows, arm])   # BLAS rounding follows layout
    qdp = np.asarray(qdot_prev, float)

    U, I1, UtU, I1tI1, H = horizon_blocks(float(t), N, Nu, n)
    Wp = weights.pose[np.ix_(rows, rows)]
    Wv, Wa = weights.velocity, weights.accel

    # Row i of B is the pose error at step i + 1 for z = 0, so the
    # stacked error is vec(B) + kron(U, J) z.
    steps = np.arange(1, N + 1) * t
    B = kin.pose_error(pose_now, Pose.from_vector(pose_refs))[:, rows] \
        + np.outer(steps, J @ qdp)

    S = _kron(UtU, J.T @ Wp @ J) + _kron(I1tI1, Wv)
    diag = np.arange(Nu)
    S.reshape(Nu, n, Nu, n)[diag, :, diag, :] += Wa    # + kron(I, Wa)
    S = S + S.T           # S is twice the quadratic form; exactly symmetric
    G = 2.0 * ((U.T @ B @ Wp @ J).ravel()
               + np.outer(I1.sum(axis=0), Wv @ qdp).ravel())

    # The bounds of H's six blocks (see horizon_blocks).
    lim = model.limits
    qm = q[arm]
    drift = np.outer(steps, qdp)
    w = np.concatenate([
        lim.q_upper[arm] - qm - drift, qm + drift - lim.q_lower[arm],
        np.repeat([lim.qdot_upper[arm] - qdp, qdp - lim.qdot_lower[arm],
                   t * lim.qddot_upper[arm], -t * lim.qddot_lower[arm]],
                  Nu, axis=0)]).ravel()
    return QpProblem(S=S, G=G, H=H, w=w, t=t, N=N, Nu=Nu, m_prime=n)


@functools.lru_cache(maxsize=1)
def horizon_blocks(t: float, N: int, Nu: int, n: int):
    """(U, I1, U'U, I1'I1, H) of a horizon, built on first use and
    read-only: the N x Nu prediction matrix U, U[i, k] = max(0, i+1-k) t,
    the Nu x Nu lower-triangular ones I1 and the constraint matrix H of
    n joints.  Only the last is kept: a plan uses one, and H may be large.

    H has six blocks: q upper/lower (kron(U, I) maps z to q(j+i) - q(j)),
    qdot upper/lower (kron(I1, I) maps z to qdot(j+i) - qdot_prev) and
    acceleration upper/lower (the identity).
    """
    U = np.maximum(0, np.arange(1, N + 1)[:, None] - np.arange(Nu)) * t
    I1, eye = np.tril(np.ones((Nu, Nu))), np.eye(Nu)
    blocks = (U, I1, U.T @ U, I1.T @ I1,
              _kron(np.vstack([U, -U, I1, -I1, eye, -eye]), np.eye(n)))
    for a in blocks:
        a.setflags(write=False)
    return blocks


def _kron(A, B):
    """np.kron of two matrices, as one broadcast product: the same
    products, without np.kron's general-rank overhead."""
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(
        A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])


def problem_to_text(problem: QpProblem) -> str:
    """Serialize to the interchange text format: a dimension header
    followed by row-major values at 17 significant digits."""
    buf = io.StringIO()
    buf.write(f"{problem.n_variables} {problem.n_constraints} "
              f"{problem.N} {problem.Nu} {problem.m_prime} "
              f"{problem.t!r}\n")
    for row in problem.S:
        buf.write(" ".join(f"{x:.17g}" for x in row) + "\n")
    buf.write(" ".join(f"{x:.17g}" for x in problem.G) + "\n")
    for row in problem.H:
        buf.write(" ".join(f"{x:.17g}" for x in row) + "\n")
    buf.write(" ".join(f"{x:.17g}" for x in problem.w) + "\n")
    return buf.getvalue()


def problem_from_text(text: str) -> QpProblem:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty problem file")
    head = lines[0].split()
    if len(head) != 6:
        raise ValueError("malformed header: expected "
                         "'nz nc N Nu m_prime t'")
    nz, nc, N, Nu, mp = (int(x) for x in head[:5])
    t = float(head[5])
    vals = [np.fromstring(ln, sep=" ") for ln in lines[1:]]
    if len(vals) != nz + 1 + nc + 1:
        raise ValueError(f"expected {nz + nc + 2} data rows, got {len(vals)}")
    S = np.vstack(vals[:nz])
    G = vals[nz]
    H = np.vstack(vals[nz + 1:nz + 1 + nc])
    w = vals[nz + 1 + nc]
    return QpProblem(S=S, G=G, H=H, w=w, t=t, N=N, Nu=Nu, m_prime=mp)
