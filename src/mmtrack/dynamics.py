"""Rigid-body terms of the arm, base-motion disturbance torque, and
forward dynamics for simulation.

Links are point masses at their COM plus a rotor inertia per joint:
``M(q) = sum_i m_i Jc_i^T Jc_i + diag(rotor)``, and the bias ``C(q,
qdot) qdot = sum_i m_i Jc_i^T (Jcdot_i qdot)`` in its Christoffel form:
column k of link i, ``a_k x (c_i - o_k)`` (``a_k`` if joint k slides),
has the derivative ``rev_j K(a_j) col_h,i`` along joint l, j = min(l,
k), h = max(l, k), K the axis skew, rev_j = 0 for a sliding joint j
(Murray, Li & Sastry 1994, ch. 4).  So :func:`configuration_terms`
takes configurations only, any batch in one pass over the frames of
``kinematics.joint_frames``, and the bias at any velocity is one
contraction ``(qdot (x) qdot) W``.  Its oracle, the Christoffel Coriolis
matrix of dM/dq, is in ``tests/oracles.py``.  M^-1 is applied through
one Cholesky factorization, whose pivots are the singularity guard.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kinematics import joint_frames
from .model import RobotModel

# Inertia matrix M, bias vector C(q, qdot) qdot, gravity vector G and
# base-motion torque tau_b of the arm.
DynamicsTerms = namedtuple("DynamicsTerms", "M bias G tau_b")


class ConfigurationTerms(namedtuple("ConfigurationTerms", "M G tau_b W")):
    """M (B, n, n), G and tau_b (B, n) and the contracted Christoffel
    table W (B, n * n, n) of B arm configurations."""

    def at(self, s: int, qdot) -> DynamicsTerms:
        """The terms of configuration ``s`` at joint rates ``qdot``; the
        bias ``(qdot (x) qdot) W[s]`` is two vector-matrix products."""
        n = len(qdot)
        bias = qdot.dot(qdot.dot(self.W[s].reshape(n, n * n)).reshape(n, n))
        return DynamicsTerms(self.M[s], bias, self.G[s], self.tau_b[s])


def _skews_and_columns(model: RobotModel, q_m):
    """rev_k K(a_k), (..., n, 3, 3), and the COM Jacobian columns as
    [joint k, axis, link i] of arm angles ``q_m`` (any batch, complex)."""
    tab, arm = model.fixed_transforms, slice(model.base_dof_count, None)
    F = joint_frames(model, q_m, model.base_dof_count)
    p = F.reshape(F.shape[:-2] + (1, 16)) @ tab.points    # (..., k, 1, 18)
    skews = p[..., 0, :9].reshape(F.shape[:-2] + (3, 3))
    axes, coms, origins = p[..., 0, 9:12], p[..., 0, 12:15], p[..., 0, 15:]
    columns = skews @ (coms.swapaxes(-1, -2)[..., None, :, :]
                       - origins[..., None])
    if tab.slides:
        columns = np.where(tab.revolute[arm, None, None], columns,
                           axes[..., None])
    return skews, columns * tab.links


def configuration_terms(model: RobotModel, Q, gravity=None,
                        a_b=None) -> ConfigurationTerms:
    """M, G, tau_b and W of the arm at the B configurations ``Q`` (B, n).

    ``gravity`` overrides the model's (a tilted base).  tau_b, the
    torque compensating the base acceleration ``a_b`` (base frame), is
    ``sum_i m_i a_b . d(com_i)/dq``, exactly +0 when the base coasts.
    ``W[(k, l), j] = w_lk sum_i m_i (rev_l K(a_l) col_k,i) . col_j,i``,
    w_lk = 2, 1, 0 for l <, =, > k, so ``C qdot = (qdot (x) qdot) W``.
    """
    Q = np.asarray(Q, float)
    n = model.arm_joint_count
    if Q.ndim != 2 or Q.shape[1] != n:
        raise ValueError(f"expected arm configurations of shape (B, {n}), "
                         f"got {Q.shape}")
    g = model.gravity if gravity is None else np.asarray(gravity, float)
    tab, B = model.fixed_transforms, len(Q)
    skews, columns = _skews_and_columns(model, Q)
    mJ = (columns * model.link_masses).reshape(B, n, 3 * n).swapaxes(-1, -2)
    Jm = columns.dot(model.link_masses)          # sum_i m_i Jc_i, (B, n, 3)
    tau_b = np.zeros((B, n))
    if a_b is not None:
        if (a_b := np.asarray(a_b, float)).shape != (3,):
            raise ValueError("a_b must be a 3-vector")
        tau_b = Jm.dot(a_b) if any(a_b.tolist()) else tau_b
    T = skews.reshape(B, 1, 3 * n, 3) @ columns  # [k, (l, axis), i]
    return ConfigurationTerms(
        M=columns.reshape(B, n, 3 * n) @ mJ + tab.rotor, G=-Jm.dot(g),
        tau_b=tau_b, W=(T.reshape(B, n * n, 3 * n) @ mJ) * tab.pair_weights)


def solve_inertia(M, rhs):
    """M^-1 rhs from one LAPACK Cholesky factorization M = L L^T.

    Raises LinAlgError when the factorization fails or when
    (max L_ii / min L_ii)^2 > 1e12, which implies cond(M) = cond(L)^2 >
    1e12.  The test is sufficient, not necessary: cond(M) = 1e13 can pass
    with a pivot ratio of 2e9.  LAPACK dpocon would catch that for about
    10 us per call; the built-in models keep M >= 0.1 I through their
    rotor inertia, so they cannot reach it.
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
