"""Independent oracles of the library's numerical kernels.

``dynamics.configuration_terms`` forms M as one Gram matmul of the COM
Jacobians and the bias vector ``C(q, qdot) qdot`` as one contraction
with its Christoffel table.
Here M is the mass-weighted einsum ``sum_i m_i Jc_i^T Jc_i``, dM/dq
comes from a batched complex step (one imaginary perturbation per
joint) of the joint-by-joint walk's COM Jacobians (``chain_stepwise``),
and C is the Christoffel Coriolis matrix built from dM/dq, so that
q' (Mdot - 2C) q' vanishes identically.

The other oracles are the literal forms of what the library computes
in closed form or never forms: ``direct_cost`` rolls the horizon step
by step (``predict_joint_trajectory``), sharing no U or I1 with
``pomptc.horizon_blocks``, and sums the cost of ``pomptc.assemble_qp``
term by term; ``brute_force`` enumerates the active sets of a tiny QP
for ``qp_oracle.solve_reference``; ``lift`` forms the dense matrix N of
the slack lift that ``ftcnd.solve`` only factors in reduced form;
``is_representation_singular`` reads the singularity test of
``kinematics.linearization``.

``reference_pose`` is the scripted reference one time at a time,
``trace_from_csv`` reads a ``trace.csv`` back into a ``SimTrace``,
``trace_matrix`` stacks a trace's fields as the file's columns, and
``serialize_scenario`` writes a loaded scenario back as YAML: the
library only writes a trace and only reads a scenario.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, fields

import numpy as np
import yaml

from chain_stepwise import com_jacobians
from mmtrack import kinematics as kin
from mmtrack.kinematics import Pose
from mmtrack.qp_oracle import InfeasibleProblem
from mmtrack.sim import SimTrace

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


def is_representation_singular(model, q):
    """Flag task singularities of the planned arm columns as (flag, det);
    see ``kinematics.linearization``."""
    return kin.linearization(model, q)[2:]


def predict_joint_trajectory(q_j, qdot_prev, delta_v, t: float, N: int):
    """Roll the velocity-increment recursion forward over the horizon,
    one step at a time from qdot(j-1) = qdot_prev: qdot(j+i) =
    qdot(j+i-1) + delta_v[i] and q(j+i+1) = q(j+i) + t qdot(j+i), with
    no horizon matrix.

    Parameters
    ----------
    q_j : (m,) current joint vector
    qdot_prev : (m,) commanded velocity of the previous step
    delta_v : (Nu, m) stacked velocity increments
    t : sampling period, s
    N : prediction horizon (>= Nu); increments beyond Nu-1 are held at zero

    Returns
    -------
    q_traj : (N, m) predicted joint angles q(j+1) .. q(j+N)
    qdot_traj : (Nu, m) predicted velocities qdot(j) .. qdot(j+Nu-1)
    """
    q_j = np.asarray(q_j, float)
    qdot_prev = np.asarray(qdot_prev, float)
    delta_v = np.atleast_2d(np.asarray(delta_v, float))
    Nu = delta_v.shape[0]
    if t <= 0:
        raise ValueError("sampling period must be positive")
    if N < Nu:
        raise ValueError(f"prediction horizon N={N} shorter than Nu={Nu}")
    q_traj = np.empty((N, len(q_j)))
    qdot_traj = np.empty((Nu, len(q_j)))
    q, qdot = q_j, qdot_prev
    for i in range(N):
        if i < Nu:
            qdot = qdot + delta_v[i]
            qdot_traj[i] = qdot
        q = q + t * qdot
        q_traj[i] = q
    return q_traj, qdot_traj


def direct_cost(model, q, qdot_prev, pose_refs, weights, t: float, N: int,
                Nu: int, z) -> float:
    """Literal evaluation of the three weighted horizon sums.

    Rolls the trajectory forward step by step and sums the terms,
    independent of the assembled matrices; oracle for assemble_qp.
    """
    arm, mp = model.arm_slice, model.arm_joint_count
    z = np.asarray(z, float)
    if z.shape != (mp * Nu,):
        raise ValueError(f"z must have length {mp * Nu}")
    delta = z.reshape(Nu, mp)
    q = np.asarray(q, float)
    qm = q[arm]
    qdp = np.asarray(qdot_prev, float)
    q_traj, qdot_traj = predict_joint_trajectory(qm, qdp, delta, t, N)
    pose_now = kin.forward_kinematics(model, q)
    rows = list(model.task_rows)
    J = kin.linearization(model, q)[1][rows, arm]
    Wp = weights.pose[np.ix_(rows, rows)]
    cost = 0.0
    for i in range(N):
        ref = Pose.from_vector(pose_refs[i])
        err = kin.pose_error(pose_now, ref)[rows] + J @ (q_traj[i] - qm)
        cost += err @ Wp @ err
    for i in range(Nu):
        cost += qdot_traj[i] @ weights.velocity @ qdot_traj[i]
        cost += delta[i] @ weights.accel @ delta[i]
    return float(cost)


def _kkt_solve(S, G, H, w, working):
    """Equality-constrained solve on the working set; (z, lambda)."""
    Ha = H[working]
    na = Ha.shape[0]
    K = np.block([[S, Ha.T], [Ha, np.zeros((na, na))]])
    rhs = np.concatenate([-G, w[working]])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    nz = S.shape[0]
    return sol[:nz], sol[nz:]


def brute_force(problem):
    """Exhaustive enumeration over active sets; tiny instances only.

    Solves the equality-constrained QP for every subset of rows, keeps
    candidates that are primal feasible with non-negative multipliers,
    and returns the best by objective.
    """
    S = np.asarray(problem.S, float)
    G = np.asarray(problem.G, float)
    H = np.asarray(problem.H, float)
    w = np.asarray(problem.w, float)
    nc = H.shape[0]
    if nc > 12:
        raise ValueError("brute force is limited to 12 constraints")
    best, best_obj = None, np.inf
    for r in range(nc + 1):
        for subset in itertools.combinations(range(nc), r):
            working = list(subset)
            z, lam = _kkt_solve(S, G, H, w, working)
            if lam.size and lam.min() < -1e-9:
                continue
            if np.max(np.append(H @ z - w, 0.0)) > 1e-9:
                continue
            obj = 0.5 * z @ S @ z + G @ z
            if obj < best_obj - 1e-15:
                best, best_obj = z, obj
    if best is None:
        raise InfeasibleProblem(int(np.argmax(-w)))
    return best


def lift(problem, xi: float):
    """Slack-variable lift of the QP into N v + D = 0.

    N = [[S + xi H'H, xi H'], [xi H, xi I]],  D = [G - xi H'w; -xi w],
    v0 = [0; max(0, w)].  The definition only: ``ftcnd.solve`` never
    forms N.
    """
    if xi <= 0:
        raise ValueError("penalty factor xi must be positive")
    S, G, H, w = problem.S, problem.G, problem.H, problem.w
    nc = H.shape[0]
    N = np.block([[S + xi * H.T @ H, xi * H.T],
                  [xi * H, xi * np.eye(nc)]])
    D = np.concatenate([G - xi * H.T @ w, -xi * w])
    v0 = np.concatenate([np.zeros(S.shape[0]), np.maximum(0.0, w)])
    return N, D, v0


def reference_pose(script, t: float, initial_pose):
    """The script's reference :class:`Pose` at the time ``t``."""
    return Pose.from_vector(script.reference_path(t, initial_pose))


def trace_matrix(trace: SimTrace) -> np.ndarray:
    """The fields of ``trace`` column-stacked, in trace.csv order."""
    return np.column_stack([getattr(trace, f.name) for f in fields(trace)])


def trace_from_csv(path) -> SimTrace:
    """The :class:`SimTrace` that ``SimTrace.to_csv`` wrote to ``path``;
    a header other than the trace columns raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    m = sum(1 for h in header if h.startswith("q_"))
    n = sum(1 for h in header if h.startswith("tau_")
            and not h.startswith(("tau_b", "tau_d")))
    layout = SimTrace.layout(m, n)
    if header != [c for _, cols, _ in layout for c in cols]:
        raise ValueError(f"{path}: header does not match the trace columns")
    mat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out, at = {}, 0
    for name, cols, width in layout:
        block = mat[:, at:at + len(cols)]
        out[name] = block[:, 0] if width is None else block
        at += len(cols)
    return SimTrace(**out)


def serialize_scenario(model, params, script) -> str:
    """A YAML document that ``load_scenario`` parses back to an equal
    (model, params, script) triple, with every default spelled out."""
    doc = {
        "robot": {
            "builtin": model.name,
            "limits": {name: limit.tolist()
                       for name, limit in asdict(model.limits).items()},
        },
        "pomptc": {
            "pose_weight": params.weights.pose.tolist(),
            "velocity_weight": params.weights.velocity.tolist(),
            "accel_weight": params.weights.accel.tolist(),
            "horizon": params.horizon,
            "control_horizon": params.control_horizon,
        },
        "ftcnd": asdict(params.ftcnd),
        "nftsm": asdict(params.nftsm),
        "pd": {"kp": params.pd_kp, "kd": params.pd_kd},
        "scenario": asdict(script),
    }
    return yaml.safe_dump(doc, sort_keys=False)
