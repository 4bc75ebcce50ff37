"""Independent oracles of the library's rigid-body terms.

``dynamics.dynamics_terms`` forms M as one Gram matmul of the COM
Jacobians and the bias vector ``C(q, qdot) qdot`` from one complex-step
pass.  Here M is the mass-weighted einsum ``sum_i m_i Jc_i^T Jc_i``, dM/dq
comes from a batched complex step (one imaginary perturbation per
joint), and C is the Christoffel Coriolis matrix built from dM/dq, so
that q' (Mdot - 2C) q' vanishes identically.  They serve the dynamics
and acceptance tests.
"""
from __future__ import annotations

import numpy as np

from mmtrack.dynamics import com_jacobians

_CS_STEP = 1e-20


def inertia_gradient(model, q_m):
    """dM/dq_k for every k, shape (n, n, n), by complex step: one
    imaginary perturbation per joint in a batch of n configurations."""
    q_m = np.asarray(q_m, float)
    n = model.arm_joint_count
    Jc = com_jacobians(model, q_m[None, :] + 1j * _CS_STEP * np.eye(n))
    M = np.einsum("m,...mak,...mal->...kl", model.link_masses, Jc, Jc)
    return M.imag / _CS_STEP


def coriolis_matrix(model, q_m, qdot_m):
    """Christoffel Coriolis matrix C(q, qdot), so that q' (Mdot - 2C) q'
    vanishes identically.  The oracle of ``DynamicsTerms.bias``."""
    dM = inertia_gradient(model, q_m)
    qdot_m = np.asarray(qdot_m, float)
    # C[i, j] = 0.5 * sum_k (dM[k][i,j] + dM[j][i,k] - dM[i][k,j]) qdot[k]
    return 0.5 * (np.einsum("kij,k->ij", dM, qdot_m)
                  + np.einsum("jik,k->ij", dM, qdot_m)
                  - np.einsum("ikj,k->ij", dM, qdot_m))
