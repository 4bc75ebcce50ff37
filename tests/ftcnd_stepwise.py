"""Sample-by-sample FTCND on the exact flow: the reference for
``mmtrack.ftcnd.solve``.

The plainest form of the same integration.  Each segment gathers the
reduced matrix N_red from the dense lift (``oracles.lift``) and factors
it, reads its residual h from ``ftcnd.residual`` and each live
component's time to zero from ``FlowMap.time_to_zero``, and then takes
one sample at a time on the ode_step grid: h_i = sign(h_i0) Phi(T_i - s),
v = v_seg + N_red^-1 (h - h_seg) by ``cho_solve``, and the event checks
between this sample and the last.  A sample with max|h| <= epsilon_h is
replaced by the segment's end, where h = 0.  A crossing is located by
``brentq`` on the row's value along the exact path, the earliest one of
all crossing rows.  The start follows the library's rule, the end of
z0's first segment, here from a dense solve of the reduced lift.

The library solver never forms N, samples a block at a time, follows
each residual component across events instead of reading h again, and
refines a crossing by Newton's method; it must reproduce this loop's
samples, events and histories (``tests/test_ftcnd_segments.py``).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import brentq

from mmtrack.ftcnd import (_EVENT_TOL, FtcndDiagnostics, FtcndIntegrationError,
                           NeuralState, _factor, flow_map, residual)
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
    """Follow the neural dynamics until the residual settles.

    Returns (z_star, FtcndDiagnostics), as ``ftcnd.solve`` does.
    """
    S, H, w = problem.S, problem.H, problem.w
    nz = problem.n_variables
    nc = problem.n_constraints
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("QP must be strictly convex (S positive definite)")

    xi, eps, dt = params.xi, params.epsilon_h, params.ode_step
    Nmat, _, _ = lift(problem, xi)
    z0 = np.zeros(nz) if warm_start is None else np.asarray(warm_start, float)
    if z0.shape != (nz,):
        raise ValueError(f"warm start must have length {nz}")
    if not np.isfinite(z0).all():
        raise ValueError("warm start must be finite")
    v, clamped, free, h = derived_start(problem, z0, xi)
    # The solve starts at the end of z0's first segment, v[free] -
    # N_red^-1 h, from the dense lift.
    v[free] -= np.linalg.solve(Nmat[np.ix_(free, free)], h)
    v, clamped, free, h = derived_start(problem, v[:nz], xi)

    flow = flow_map(params.mu, params.lam, params.zeta, params.kappa)
    h_max = float(np.max(np.abs(h)))
    diag = FtcndDiagnostics(bound_t_f=flow.bound(h_max))
    diag.time_history.append(0.0)
    diag.h_inf_history.append(h_max)
    diag.f_history.append(float(h @ h))
    if not math.isfinite(diag.f_history[0]):
        raise FtcndIntegrationError("non-finite neural state")
    shift = max(_EVENT_TOL, eps)
    time = 0.0
    max_events = 100 + 10 * nc
    events = 0
    new_segment = diag.h_inf_history[0] > eps
    projected = np.zeros(nc, bool)      # rows clamped at the last event

    while new_segment and time < params.max_time and events <= max_events:
        free = np.concatenate([np.arange(nz), nz + np.flatnonzero(~clamped)])
        slack = free[nz:] - nz              # the constraint row of each
        clamped_idx = np.flatnonzero(clamped)
        fac = (_factor(Nmat[np.ix_(free, free)]), True)
        h_seg = residual(problem, v, xi)[free]
        v_seg, t_seg = v[free].copy(), time
        live = np.flatnonzero(h_seg)
        t_zero = flow.time_to_zero(np.abs(h_seg[live]))
        t_end = float(t_zero.max(initial=0.0))

        def h_at(s):
            h_s = np.zeros(free.size)
            h_s[live] = np.copysign(flow.level(t_zero - s), h_seg[live])
            return h_s

        def path(s):
            h_s = h_at(s)
            return h_s, v_seg + cho_solve(fac, h_s - h_seg)

        # A row clamped at the last event is not released before this
        # segment's end.
        no_release = projected[clamped_idx]
        projected[:] = False

        def values(v_s):
            """Free slacks, then clamped rows' g + shift (+inf for a row
            that may not be released)."""
            g = H[clamped_idx] @ v_s[:nz] - w[clamped_idx] + shift
            g[no_release] = math.inf
            return v_s[nz:], g

        diag.factorizations += 1
        s_prev, k = 0.0, 0
        g_new = values(v_seg)[1]
        new_segment = past_max_time = False
        while True:
            k += 1
            s = k * dt
            h_k = h_at(s)
            if float(np.abs(h_k).max(initial=0.0)) <= eps:
                s, h_k = t_end, h_at(t_end)     # the segment's end
            if t_seg + s > params.max_time:     # no sample past max_time
                past_max_time = True
                break
            v_k = v_seg + cho_solve(fac, h_k - h_seg)
            g_old = g_new
            phi_new, g_new = values(v_k)
            proj = np.flatnonzero(phi_new < 0.0)
            rel = np.flatnonzero((g_new < 0.0) & (g_old >= 0.0))
            if not (proj.size or rel.size):
                diag.iterations += 1
                time = t_seg + s
                diag.time_history.append(time)
                diag.h_inf_history.append(float(np.abs(h_k).max()))
                diag.f_history.append(float(h_k @ h_k))
                v[free] = v_k
                if s == t_end:
                    break
                s_prev = s
                continue
            # The earliest crossing on the exact path; a clamped row
            # wins a tie.
            roots = []
            for rows, is_release in ((proj, False), (rel, True)):
                for r in rows:
                    # The row's value b'v - c; N_red is symmetric, so
                    # b'N_red^-1 (h - h_seg) = a'(h - h_seg), a = N_red^-1 b.
                    b = np.zeros(free.size)
                    if is_release:
                        i = clamped_idx[r]
                        b[:nz], c = H[i], w[i] - shift
                    else:
                        b[nz + r], c = 1.0, 0.0
                    a = cho_solve(fac, b)

                    def e(t, a=a, e0=b @ v_seg - c):
                        return e0 + a @ (h_at(t) - h_seg)
                    root = s_prev if e(s_prev) <= 0.0 else brentq(
                        e, s_prev, s, xtol=1e-300,
                        rtol=4 * np.finfo(float).eps, maxiter=1000)
                    roots.append((root, not is_release, r, is_release))
            s_e, _, r, is_release = min(roots)
            h_e, v_e = path(s_e)
            diag.iterations += 1
            time = t_seg + s_e
            diag.time_history.append(time)
            diag.h_inf_history.append(float(np.abs(h_e).max()))
            diag.f_history.append(float(h_e @ h_e))
            v[free] = v_e
            phi = v[nz:]
            if not is_release:
                phi[slack[r]] = 0.0
            hit = np.flatnonzero((~clamped) & (phi <= _EVENT_TOL))
            phi[hit] = 0.0
            clamped[hit] = projected[hit] = True
            diag.projection_events += hit.size
            events += hit.size
            if is_release:
                g_now = values(v[free])[1]
                g_now[r] = -math.inf
                out = clamped_idx[(g_now <= _EVENT_TOL) & (g_old >= 0.0)]
                clamped[out] = False
                diag.release_events += out.size
                events += out.size
            new_segment = True
            break
        if past_max_time:
            break
        if new_segment:
            continue
        # The segment ended with h = 0: release clamped rows whose
        # gradient turned negative, otherwise done.
        if clamped.any():
            g = H[clamped] @ v[:nz] - w[clamped]
            stuck = np.flatnonzero(clamped)[g < -shift]
            if stuck.size:
                clamped[stuck] = False
                diag.release_events += stuck.size
                events += stuck.size
                new_segment = True
                continue
        diag.converged = True
        diag.converge_time = time

    if diag.h_inf_history[0] <= eps:
        diag.converged, diag.converge_time = True, 0.0
    z = v[:nz].copy()
    diag.constraint_violation = float(
        np.max(np.append(problem.H @ z - problem.w, 0.0)))
    resid = residual(problem, v, xi)
    free = np.concatenate([np.arange(nz), nz + np.flatnonzero(~clamped)])
    diag.equality_residual = float(np.max(np.abs(resid[nz:][~clamped]))
                                   / xi) if (~clamped).any() else 0.0
    diag.final_state = NeuralState(v=v, h=resid[free])
    return z, diag
