"""Rigid-body terms of the arm, base-motion disturbance torque, and
forward dynamics for simulation.

Links are modelled as point masses at their COM plus a constant rotor
inertia per joint, so the inertia matrix is
``M(q) = sum_i m_i Jc_i^T Jc_i + diag(rotor)`` and the velocity-product
(bias) vector is ``C(q, qdot) qdot = sum_i m_i Jc_i^T (Jcdot_i qdot)``.
The plant and the torque laws use only that vector: one complex-step
evaluation of the COM Jacobians at ``q + i h qdot`` gives ``Jc`` (real
part) and ``Jcdot`` (imaginary part over h) together.  The Christoffel
Coriolis matrix, with dM/dq from a batched complex step, is kept as the
oracle of that vector and of the skew-symmetry of Mdot - 2C.

Forward dynamics and the NFTSM law apply M^-1 through one LAPACK
Cholesky factorization, whose pivots are also the singularity guard
(``solve_inertia``): no SVD is taken.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kinematics import chain_frames, point_jacobians
from .model import RobotModel

_CS_STEP = 1e-20  # complex-step size; derivative error is O(step^2)


@dataclass(frozen=True)
class DynamicsTerms:
    """Inertia matrix M, bias vector C(q, qdot) qdot, gravity vector G,
    and base-motion torque tau_b of the arm."""

    M: np.ndarray
    bias: np.ndarray
    G: np.ndarray
    tau_b: np.ndarray


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
    columns = columns * model.fixed_transforms.links[:, :, None]
    return np.ascontiguousarray(np.swapaxes(columns, -1, -2))


def _mass_weighted(model: RobotModel, Jc, v):
    """sum_i m_i Jc_i^T v: the joint torque of a uniform force field v
    (per unit mass) acting on the link COMs."""
    return np.einsum("m,mak,a->k", model.link_masses, Jc, v)


def _inertia(model: RobotModel, Jc):
    """sum_i m_i Jc_i^T Jc_i + diag(rotor), batched over leading axes;
    complex-safe (no conjugation)."""
    M = np.einsum("m,...mak,...mal->...kl", model.link_masses, Jc, Jc)
    return M + np.diag(model.rotor_inertia)


def inertia_gradient(model: RobotModel, q_m):
    """dM/dq_k for every k, shape (n, n, n), by complex step: one
    imaginary perturbation per joint in a batch of n configurations."""
    q_m = np.asarray(q_m, float)
    n = model.arm_joint_count
    Q = q_m[None, :] + 1j * _CS_STEP * np.eye(n)
    return _inertia(model, com_jacobians(model, Q)).imag / _CS_STEP


def coriolis_matrix(model: RobotModel, q_m, qdot_m):
    """Christoffel Coriolis matrix C(q, qdot), so that q' (Mdot - 2C) q'
    vanishes identically.  The oracle of ``DynamicsTerms.bias``."""
    dM = inertia_gradient(model, q_m)
    qdot_m = np.asarray(qdot_m, float)
    # C[i, j] = 0.5 * sum_k (dM[k][i,j] + dM[j][i,k] - dM[i][k,j]) qdot[k]
    return 0.5 * (np.einsum("kij,k->ij", dM, qdot_m)
                  + np.einsum("jik,k->ij", dM, qdot_m)
                  - np.einsum("ikj,k->ij", dM, qdot_m))


def dynamics_terms(model: RobotModel, q_m, qdot_m, gravity=None,
                   a_b=None) -> DynamicsTerms:
    """M, C qdot, G and tau_b of the arm at (q_m, qdot_m), from one
    complex-step evaluation of the COM Jacobians.

    ``gravity`` overrides the model gravity vector (used when the base
    is tilted).  ``a_b`` is the base linear acceleration in the base
    frame; tau_b is the feed-forward torque compensating it, the
    mass-weighted virtual-work sum ``tau_b[k] = sum_i m_i a_b .
    d(com_i)/dq_k``, linear in a_b and zero when the base coasts.
    """
    q_m = np.asarray(q_m, float)
    qdot_m = np.asarray(qdot_m, float)
    n = model.arm_joint_count
    if q_m.shape != (n,) or qdot_m.shape != (n,):
        raise ValueError(f"expected arm vectors of length {n}")
    g = model.gravity if gravity is None else np.asarray(gravity, float)
    Jz = com_jacobians(model, q_m + 1j * _CS_STEP * qdot_m)
    Jc = Jz.real
    Jcdot_qdot = Jz.imag @ qdot_m / _CS_STEP     # (n, 3)
    bias = np.einsum("m,mak,ma->k", model.link_masses, Jc, Jcdot_qdot)
    tau_b = np.zeros(n)
    if a_b is not None:
        a_b = np.asarray(a_b, float)
        if a_b.shape != (3,):
            raise ValueError("a_b must be a 3-vector")
        if np.any(a_b):
            tau_b = _mass_weighted(model, Jc, a_b)
    return DynamicsTerms(M=_inertia(model, Jc), bias=bias,
                         G=_mass_weighted(model, Jc, -g), tau_b=tau_b)


def solve_inertia(M, rhs):
    """M^-1 rhs from one LAPACK Cholesky factorization M = L L^T.

    Raises LinAlgError when the factorization fails or when
    (max L_ii / min L_ii)^2 > 1e12, which implies cond(M) > 1e12 since
    cond(M) = cond(L)^2 >= (max L_ii / min L_ii)^2.  The test is
    sufficient, not necessary: M = Q diag(geomspace(1, 1e-13, 7)) Q' with
    a random orthogonal Q has cond(M) = 1e13, yet its pivot ratio can be
    as low as 2e9, and it is solved.  LAPACK dpocon on the same factor
    would catch it for about 10 us per call, some 2% of a nominal run at
    four calls per torque step; the built-in models keep M >= 0.1 I
    through their rotor inertia, so they cannot reach that case.
    """
    L, info = dpotrf(M, lower=1, clean=0)
    if info == 0:
        d = L.diagonal().tolist()     # builtins beat ufuncs at this size
        if max(d) ** 2 <= 1e12 * min(d) ** 2:
            return dpotrs(L, rhs, lower=1)[0]
    raise np.linalg.LinAlgError("inertia matrix is numerically singular")


def forward_dynamics(model: RobotModel, q_m, qdot_m, tau, tau_d=None,
                     tau_b=None, gravity=None, terms=None) -> np.ndarray:
    """qddot = M^-1 (tau + tau_d + tau_b - C qdot - G).

    ``terms`` may carry precomputed DynamicsTerms for (q_m, qdot_m) to
    avoid recomputing them in tight loops.
    """
    tau_total = sum(np.asarray(x, float) for x in (tau, tau_d, tau_b)
                    if x is not None)
    if terms is None:
        terms = dynamics_terms(model, q_m, qdot_m, gravity=gravity)
    return solve_inertia(terms.M, tau_total - terms.bias - terms.G)
