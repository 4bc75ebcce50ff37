"""Rigid-body terms of the arm, base-motion disturbance torque, and
forward dynamics for simulation.

Links are modelled as point masses at their COM plus a constant rotor
inertia per joint, so the inertia matrix is
``M(q) = sum_i m_i Jc_i^T Jc_i + diag(rotor)``.  The Coriolis matrix is
built from Christoffel symbols with dM/dq obtained by complex-step
differentiation, which makes the skew-symmetry of Mdot - 2C exact to
machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import chain_frames, point_jacobians
from .model import RobotModel

_CS_STEP = 1e-20  # complex-step size; derivative error is O(step^2)


@dataclass(frozen=True)
class DynamicsTerms:
    """Inertia matrix M, Coriolis matrix C, gravity vector G of the arm."""

    M: np.ndarray
    C: np.ndarray
    G: np.ndarray


@dataclass(frozen=True)
class ErrorState:
    """Joint-space tracking error (position and velocity)."""

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e1", np.asarray(self.e1, float))
        object.__setattr__(self, "e2", np.asarray(self.e2, float))
        if self.e1.shape != self.e2.shape:
            raise ValueError("e1 and e2 must have the same length")


def com_jacobians(model: RobotModel, q_m):
    """Translational COM Jacobians in the base frame, (..., n, 3, n).

    ``q_m`` holds arm angles in its last axis with any leading batch
    shape; complex-safe for complex-step differentiation.
    """
    start = model.base_dof_count
    R, o, _, _ = chain_frames(model, q_m, start)
    coms = np.einsum("...ixy,iy->...ix", R, model.link_com_offsets) + o
    columns, _ = point_jacobians(model, R, o, coms, start)
    # Link i moves only with joints k <= i.
    n = model.arm_joint_count
    columns = columns * np.tri(n, dtype=bool)[:, :, None]
    return np.ascontiguousarray(np.swapaxes(columns, -1, -2))


def _mass_weighted(model: RobotModel, Jc, v):
    """sum_i m_i Jc_i^T v: the joint torque of a uniform force field v
    (per unit mass) acting on the link COMs."""
    return np.einsum("m,mak,a->k", model.link_masses, Jc, v)


def inertia_matrix(model: RobotModel, q_m):
    """Point-mass inertia matrix; complex-safe (no conjugation)."""
    J = com_jacobians(model, q_m)
    M = np.einsum("m,mak,mal->kl", model.link_masses.astype(J.dtype), J, J)
    return M + np.diag(model.rotor_inertia).astype(J.dtype)


def _jacobians_and_gradient(model: RobotModel, q_m):
    """One batched complex-step pass: (Jc, dM) at q_m.

    The batch holds one imaginary perturbation per joint; the real part
    of any row reproduces the unperturbed Jacobians exactly (the step
    enters only at second order), the imaginary parts give dM/dq_k.
    """
    q_m = np.asarray(q_m, float)
    n = model.arm_joint_count
    Q = q_m[None, :] + 1j * _CS_STEP * np.eye(n)
    Jb = com_jacobians(model, Q)                 # (n, n, 3, n) complex
    Jc = Jb[0].real.copy()
    masses = model.link_masses
    Mb = np.einsum("m,bmak,bmal->bkl", masses.astype(complex), Jb, Jb)
    dM = Mb.imag / _CS_STEP
    return Jc, dM


def inertia_gradient(model: RobotModel, q_m):
    """dM/dq_k for every k, shape (n, n, n), by complex step."""
    return _jacobians_and_gradient(model, q_m)[1]


def dynamics_terms(model: RobotModel, q_m, qdot_m, gravity=None) -> DynamicsTerms:
    """M, C, G of the arm at (q_m, qdot_m).

    C uses the Christoffel construction, so q' (Mdot - 2C) q' vanishes
    identically.  ``gravity`` overrides the model gravity vector (used
    when the base is tilted).
    """
    q_m = np.asarray(q_m, float)
    qdot_m = np.asarray(qdot_m, float)
    n = model.arm_joint_count
    if len(q_m) != n or len(qdot_m) != n:
        raise ValueError(f"expected arm vectors of length {n}")
    g = model.gravity if gravity is None else np.asarray(gravity, float)
    Jc, dM = _jacobians_and_gradient(model, q_m)
    M = np.einsum("m,mak,mal->kl", model.link_masses, Jc, Jc) \
        + np.diag(model.rotor_inertia)
    # C[i, j] = 0.5 * sum_k (dM[k][i,j] + dM[j][i,k] - dM[i][k,j]) qdot[k]
    C = 0.5 * (np.einsum("kij,k->ij", dM, qdot_m)
               + np.einsum("jik,k->ij", dM, qdot_m)
               - np.einsum("ikj,k->ij", dM, qdot_m))
    G = _mass_weighted(model, Jc, -g)
    return DynamicsTerms(M=M, C=C, G=G)


def base_disturbance_torque(model: RobotModel, q_m, a_b) -> np.ndarray:
    """Feed-forward torque compensating base linear acceleration.

    Implements the mass-weighted virtual-work sum
    ``tau_b[k] = sum_i m_i a_b . d(com_i)/dq_k`` with ``a_b`` expressed
    in the base frame.  Linear in a_b; zero when the base coasts.
    """
    q_m = np.asarray(q_m, float)
    a_b = np.asarray(a_b, float)
    if a_b.shape != (3,):
        raise ValueError("a_b must be a 3-vector")
    return _mass_weighted(model, com_jacobians(model, q_m), a_b)


def forward_dynamics(model: RobotModel, q_m, qdot_m, tau, tau_d=None,
                     tau_b=None, gravity=None, terms=None) -> np.ndarray:
    """qddot = M^-1 (tau + tau_d + tau_b - C qdot - G).

    ``terms`` may carry precomputed DynamicsTerms for (q_m, qdot_m) to
    avoid recomputing them in tight loops.
    """
    tau_total = np.asarray(tau, float).copy()
    if tau_d is not None:
        tau_total = tau_total + np.asarray(tau_d, float)
    if tau_b is not None:
        tau_total = tau_total + np.asarray(tau_b, float)
    if terms is None:
        terms = dynamics_terms(model, q_m, qdot_m, gravity=gravity)
    if np.linalg.cond(terms.M) > 1e12:
        raise np.linalg.LinAlgError("inertia matrix is numerically singular")
    rhs = tau_total - terms.C @ np.asarray(qdot_m, float) - terms.G
    return np.linalg.solve(terms.M, rhs)


def error_dynamics_terms(model: RobotModel, q_m, qdot_m, desired,
                         gravity=None):
    """Error-state drift term and the map from torques to e2-dot.

    ``desired`` is a mapping with keys q_md, qd_md, qdd_md.  Returns
    (F_term, apply) where ``apply(tau, tau_d, tau_b)`` reproduces the
    velocity-error derivative and equals forward_dynamics minus qdd_md.
    """
    q_m = np.asarray(q_m, float)
    qdot_m = np.asarray(qdot_m, float)
    qdd_md = np.asarray(desired["qdd_md"], float)
    terms = dynamics_terms(model, q_m, qdot_m, gravity=gravity)
    Minv = np.linalg.inv(terms.M)
    F_term = -Minv @ (terms.C @ qdot_m + terms.G) - qdd_md

    def apply(tau, tau_d=None, tau_b=None):
        e2dot = F_term + Minv @ np.asarray(tau, float)
        if tau_d is not None:
            e2dot = e2dot + Minv @ np.asarray(tau_d, float)
        if tau_b is not None:
            e2dot = e2dot + Minv @ np.asarray(tau_b, float)
        return e2dot

    return F_term, apply
