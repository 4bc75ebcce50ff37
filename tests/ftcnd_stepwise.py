"""Step-by-step FTCND integration: the reference for ``mmtrack.ftcnd.solve``.

The plainest form of the integration: the reduced matrix N_red is
gathered from the dense lift (``oracles.lift``) and factored, and each
accepted step makes one ``cho_solve`` and one pair of event checks.  The
start is chosen by the library's rule, z0 or the end of its first
segment, v - N_red^-1 h, here from a dense solve of the reduced lift.  The
residual N v + D is read from ``ftcnd.residual``, as in the library, so
that both see the same exact zeros.  The library solver never forms N:
it factors the nz x nz Schur complement S + xi Hc'Hc, steps the residual
alone and solves for ``v`` once per block of steps; it must reproduce
this loop's iterations, events, halvings and histories
(``tests/test_ftcnd_segments.py``).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve

from mmtrack.ftcnd import (_EVENT_TOL, FtcndDiagnostics, FtcndIntegrationError,
                           NeuralState, _factor, finite_time_bound,
                           li_activation, residual)
from oracles import lift


def derived_start(problem, z, xi):
    """(v, clamped, free, h) of a start at z: the slacks max(0, w - H z),
    the rows that z violates (clamped), the indices of v left free, and
    the free components h of N v + D."""
    nz = problem.n_variables
    v = np.concatenate([z, np.maximum(0.0, problem.w - problem.H @ z)])
    resid = residual(problem, v, xi)
    clamped = (v[nz:] <= 0.0) & (resid[nz:] > 0.0)
    free = np.concatenate([np.arange(nz), nz + np.flatnonzero(~clamped)])
    return v, clamped, free, resid[free]


def solve(problem, params, warm_start=None):
    """Integrate the neural dynamics until the residual settles.

    Returns (z_star, FtcndDiagnostics).  The reported residual is the
    projected optimality residual: free components of N v + D, with
    clamped slack rows counted as zero while their gradients stay
    non-negative.  Non-convergence within max_time returns the best
    iterate with ``converged=False``.
    """
    S, H, w = problem.S, problem.H, problem.w
    nz = problem.n_variables
    nc = problem.n_constraints
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("QP must be strictly convex (S positive definite)")

    xi = params.xi
    Nmat, _, _ = lift(problem, xi)
    z0 = np.zeros(nz) if warm_start is None else np.asarray(warm_start, float)
    if z0.shape != (nz,):
        raise ValueError(f"warm start must have length {nz}")
    v, clamped, free, h = derived_start(problem, z0, xi)
    # The end of the first segment, v[free] - N_red^-1 h, from the dense
    # lift; the solve starts there when its residual is smaller.
    v_n = v.copy()
    v_n[free] -= np.linalg.solve(Nmat[np.ix_(free, free)], h)
    start_n = derived_start(problem, v_n[:nz], xi)
    endpoint = np.max(np.abs(start_n[3])) < np.max(np.abs(h))
    if endpoint:
        v, clamped, free, h = start_n

    diag = FtcndDiagnostics(converged=False, converge_time=math.inf,
                            bound_t_f=0.0, iterations=0,
                            endpoint_start=bool(endpoint))
    diag.bound_t_f = finite_time_bound(h, params.mu, params.kappa)

    time = 0.0
    dt = params.ode_step
    eps = params.epsilon_h
    need_refactor = True
    fac = None
    slack_local = np.zeros(0, dtype=int)
    F = float(h @ h)
    diag.time_history.append(time)
    diag.h_inf_history.append(float(np.max(np.abs(h))))
    diag.f_history.append(F)
    max_events = 100 + 10 * nc
    events = 0

    while time < params.max_time and events <= max_events:
        if need_refactor:
            free = np.concatenate([np.arange(nz),
                                   nz + np.flatnonzero(~clamped)])
            fac = (_factor(Nmat[np.ix_(free, free)]), True)
            h = residual(problem, v, xi)[free]
            F = float(h @ h)
            slack_local = np.arange(nz, free.size)
            need_refactor = False

        h_inf = float(np.max(np.abs(h)))
        if h_inf <= eps:
            # Reduced system converged; release clamped rows whose
            # gradient turned negative (rare: only reachable from a warm
            # start), otherwise done.
            if clamped.any():
                g = H[clamped] @ v[:nz] - w[clamped]
                stuck = np.flatnonzero(clamped)[g < -max(_EVENT_TOL, eps)]
                if stuck.size:
                    clamped[stuck] = False
                    diag.release_events += stuck.size
                    events += stuck.size
                    need_refactor = True
                    continue
            diag.converged = True
            diag.converge_time = time
            break

        dh = -params.mu * dt * li_activation(h, params.lam, params.zeta,
                                             params.kappa)
        h_new = h + dh
        F_new = float(h_new @ h_new)
        if not math.isfinite(F_new):
            raise FtcndIntegrationError("non-finite neural state")
        if F_new >= F:
            dt *= 0.5
            diag.step_halvings += 1
            if dt < 1e-300:
                raise FtcndIntegrationError("step size underflow")
            continue

        dv = cho_solve(fac, dh)
        # Events: a free slack hitting zero, or a clamped row's gradient
        # crossing zero; split the step exactly at the first event.
        theta = 1.0
        phi_old = v[free[slack_local]]
        phi_new = phi_old + dv[slack_local]
        crossing = np.flatnonzero(phi_new < 0.0)
        if crossing.size:
            th = phi_old[crossing] / (phi_old[crossing] - phi_new[crossing])
            theta = min(theta, float(np.min(th)))
        clamped_idx = np.flatnonzero(clamped)
        release_hit = False
        if clamped_idx.size:
            Hc = H[clamped_idx]
            g_old = Hc @ v[:nz] - w[clamped_idx]
            g_new = g_old + Hc @ dv[:nz]
            going_neg = (g_new < 0.0) & (g_old >= 0.0)
            if going_neg.any():
                th = g_old[going_neg] / (g_old[going_neg] - g_new[going_neg])
                th_min = float(np.min(th))
                if th_min <= theta:
                    theta = th_min
                    release_hit = True

        theta = min(max(theta, 0.0), 1.0)
        v[free] += theta * dv
        h = h + theta * dh
        F = float(h @ h)
        time += theta * dt
        diag.iterations += 1
        diag.time_history.append(time)
        diag.h_inf_history.append(float(np.max(np.abs(h))))
        diag.f_history.append(F)

        if theta < 1.0:
            phi = v[nz:]
            hit = np.flatnonzero((~clamped) & (phi <= _EVENT_TOL))
            if hit.size:
                phi[hit] = 0.0
                clamped[hit] = True
                diag.projection_events += hit.size
                events += hit.size
            if release_hit:
                g_now = H[clamped_idx] @ v[:nz] - w[clamped_idx]
                rel = clamped_idx[g_now <= _EVENT_TOL]
                if rel.size:
                    clamped[rel] = False
                    diag.release_events += rel.size
                    events += rel.size
            need_refactor = True
            continue

        dt = min(dt * 2.0, params.ode_step)

    z = v[:nz].copy()
    diag.constraint_violation = problem.violation(z)
    resid = residual(problem, v, xi)
    free = np.concatenate([np.arange(nz), nz + np.flatnonzero(~clamped)])
    diag.equality_residual = float(np.max(np.abs(resid[nz:][~clamped]))
                                   / xi) if (~clamped).any() else 0.0
    diag.final_state = NeuralState(v=v, h=resid[free], virtual_time=time)
    if not diag.converged:
        diag.converge_time = math.inf
    return z, diag
