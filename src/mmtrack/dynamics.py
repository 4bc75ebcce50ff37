"""Rigid-body terms of the arm, base-motion disturbance torque, and
forward dynamics for simulation.

Links are modelled as point masses at their COM plus a constant rotor
inertia per joint, so the inertia matrix is
``M(q) = sum_i m_i Jc_i^T Jc_i + diag(rotor)`` and the velocity-product
(bias) vector is ``C(q, qdot) qdot = sum_i m_i Jc_i^T (Jcdot_i qdot)``.
The plant and the torque laws use only that vector.  ``Jc`` and its
time rate ``Jcdot`` along qdot come from one real pass over the dual
frames [[F, Fdot], [0, F]] of ``kinematics.joint_frames``: a column
``a_k x (c_i - o_k)`` and its rate are one product of the block skew
[[K(a), 0], [K(adot), K(a)]] with [c - o; cdot - odot].  The
Christoffel Coriolis matrix, the oracle of the bias vector, is in
``tests/oracles.py``.

Forward dynamics applies M^-1 through one LAPACK Cholesky
factorization, whose pivots are also the singularity guard
(``solve_inertia``): no SVD is taken.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kinematics import axis_skew, joint_frames
from .model import RobotModel

# [a; adot] @ _SKEW is the block skew [[K(a), 0], [K(adot), K(a)]],
# flattened row by row.
_SKEW = np.array([np.kron(np.eye(2, k=-b), axis_skew(e)).ravel()
                  for b in range(2) for e in np.eye(3)])


@dataclass(frozen=True)
class DynamicsTerms:
    """Inertia matrix M, bias vector C(q, qdot) qdot, gravity vector G,
    and base-motion torque tau_b of the arm."""

    M: np.ndarray
    bias: np.ndarray
    G: np.ndarray
    tau_b: np.ndarray


def com_jacobians(model: RobotModel, q_m, qdot_m):
    """[Jc; Jcdot] along axis -2, (..., n, 6, n): the translational COM
    Jacobians Jc in the base frame and their rate Jcdot along ``qdot_m``
    (broadcast to ``q_m``); ``q_m`` holds arm angles in its last axis
    with any leading batch shape, and may be complex.  Column k of link
    i, axis_k x (com_i - o_k), and its rate are one matmul of the block
    axis skews, laid out in memory as [joint k, axis, link i]."""
    start = model.base_dof_count
    tab = model.fixed_transforms
    F = joint_frames(model, q_m, start, qdot_m)
    # [axes; coms; origins] of every frame, each [value; rate].
    p = (tab.points @ F[..., :3, :].swapaxes(-1, -2)).reshape(
        F.shape[:-2] + (3, 6))
    axes, coms, origins = p[..., 0, :], p[..., 1, :], p[..., 2, :]
    skews = (axes @ _SKEW).reshape(axes.shape + (6,))
    columns = skews @ (coms.swapaxes(-1, -2)[..., None, :, :]
                       - origins[..., None])    # (..., k, 6, i)
    if tab.slides:
        columns = np.where(tab.revolute[start:, None, None], columns,
                           axes[..., None])
    return (columns * tab.links).swapaxes(-1, -3)


def dynamics_terms(model: RobotModel, q_m, qdot_m, gravity=None,
                   a_b=None) -> DynamicsTerms:
    """M, C qdot, G and tau_b of the arm at (q_m, qdot_m), from one dual
    pass of the COM Jacobians and their rates.

    ``gravity`` overrides the model gravity vector (used when the base
    is tilted).  ``a_b`` is the base linear acceleration in the base
    frame; tau_b is the feed-forward torque compensating it, the
    mass-weighted virtual-work sum ``tau_b[k] = sum_i m_i a_b .
    d(com_i)/dq_k``, linear in a_b and exactly +0 when the base coasts.
    M is one Gram matmul; G and tau_b use ``Jm = sum_i m_i Jc_i``.
    """
    q_m = np.asarray(q_m, float)
    qdot_m = np.asarray(qdot_m, float)
    n = model.arm_joint_count
    if q_m.shape != (n,) or qdot_m.shape != (n,):
        raise ValueError(f"expected arm vectors of length {n}")
    g = model.gravity if gravity is None else np.asarray(gravity, float)
    masses = model.link_masses
    # [joint, axis, link], axes 3 .. 5 being the rates.
    columns = com_jacobians(model, q_m, qdot_m).swapaxes(0, 2)
    Jc = columns[:, :3]
    J = Jc.reshape(n, 3 * n)
    mJ = (Jc * masses).reshape(n, 3 * n)
    Jdot_qdot = (qdot_m @ columns.reshape(n, 6 * n))[3 * n:]
    Jm = Jc @ masses                            # (n, 3)
    tau_b = np.zeros(n)
    if a_b is not None:
        a_b = np.asarray(a_b, float)
        if a_b.shape != (3,):
            raise ValueError("a_b must be a 3-vector")
        if a_b.any():
            tau_b = Jm @ a_b
    return DynamicsTerms(M=J @ mJ.T + model.fixed_transforms.rotor,
                         bias=mJ @ Jdot_qdot, G=-(Jm @ g), tau_b=tau_b)


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


def forward_dynamics(terms: DynamicsTerms, tau) -> np.ndarray:
    """qddot = M^-1 (tau - C qdot - G) for the dynamics terms of the arm's
    state; ``tau`` is the total joint torque acting on the arm."""
    return solve_inertia(terms.M, tau - terms.bias - terms.G)
