"""Finite-time convergent neural dynamics for the tracking QP.

The inequality-constrained QP is lifted with non-negative slacks into
the linear optimality system N v + D = 0, v = [z; phi], and integrated
as N vdot = -mu * Omega(N v + D) with the Li activation.  Because
hdot = N vdot, the residual h obeys the decoupled scalar dynamics
hdot_i = -mu * omega(h_i), which is what yields the finite-time bound.
The law is ``mmtrack.flow``'s (``FlowMap``: omega, its slope, the bound
and the exact flow), and it is followed exactly: with T(s) the time in
which it brings |h| = s to 0 and Phi its inverse, a component is
h_i(t) = sign(h_i0) Phi(T(|h_i0|) - t) until its zero time, 0 after.

Events keep the slacks non-negative: a free slack that hits zero clamps
its row (its component leaves h); a clamped row whose gradient
g = Hc z - wc falls through -max(_EVENT_TOL, epsilon_h) is released (its
component enters h at xi g), though not in the segment after the event
that clamped it, lest they cycle; a g already below waits for the
segment's end.  Other components keep their zero times.  Between two
events v = v_end + N_red^-1 h, N_red being N without the clamped rows
and columns and v_end the segment's end, where h = 0.  N is never
formed: N v + D = [S z + G + xi H'r; xi r] with r = H z + phi - w, and
as the slack block of N_red is xi I, N_red x = b reduces to
(S + xi Hc'Hc) x_z = b_z - Hf' b_f and x_f = b_f / xi - Hf x_z, Hc and
Hf the clamped and free rows of H.  The path is sampled every ode_step,
the resolution of event detection, a block at a time (one Phi call, one
multi-column solve); events found between samples are refined by
Newton's method on the exact path.  The first sample with
max|h| <= epsilon_h is replaced by the segment's end, where the solve
converges if N v + D agrees.

The start.  A start z gets the slacks max(0, w - H z), clamping the rows
C that z violates (H z > w).  A solve from z0 starts where a segment
from z0 would end, at z_N = (S + xi Hc'Hc)^-1 (xi Hc'wc - G): one
penalized active-set Newton step (Nocedal & Wright 2006, sections 16.5
and 17.1), solved with S's factor while C is empty, and the factor
reused when z_N clamps C again; a z0 that clamps nothing reuses S's
factor without gathering rows of H or w.  The start forms H z once: the
slacks, N v + D (:func:`residual`, given the product) and, for a start
that settles, the violation max(H z - w, 0) all read it.  A start with
max|h| <= epsilon_h is final: 0 iterations, 0 factorizations, no second
residual.  Bad inputs are found through it: with numpy's invalid and
overflow warnings off, a NaN or an infinity in S, G, H or w fails a
factor or reaches N v + D (inf * 0 is NaN); ``check_finite`` names it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .flow import flow_map

_TIKHONOV = 1e-10
_EVENT_TOL = 1e-14
# Samples per block: _FIRST_BLOCK after each event, doubled after every
# block without one, up to _MAX_BLOCK, which bounds the block's memory.
_FIRST_BLOCK, _MAX_BLOCK = 16, 256


class FtcndIntegrationError(RuntimeError):
    """Raised when the residual is not finite (it overflows)."""


@dataclass(frozen=True)
class FtcndParams:
    """Gains and integration settings of the neural-dynamics solver."""

    xi: float = 5.0
    mu: float = 5.0
    lam: float = 1.0
    zeta: float = 30.0
    kappa: float = 0.8
    ode_step: float = 1e-3
    epsilon_h: float = 1e-8
    max_time: float = 50.0

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be positive and finite")
        if not self.kappa < 1.0:
            raise ValueError("kappa must lie strictly inside (0, 1)")
        # A gain set whose flow cannot be tabulated fails here.
        flow_map(self.mu, self.lam, self.zeta, self.kappa)


@dataclass
class NeuralState:
    """Augmented variable v = [z; phi] and its residual h."""

    v: np.ndarray
    h: np.ndarray


@dataclass
class FtcndDiagnostics:
    converged: bool = False
    converge_time: float = math.inf
    bound_t_f: float = 0.0
    iterations: int = 0         # samples of the path
    h_inf_history: list = field(default_factory=list)
    f_history: list = field(default_factory=list)
    time_history: list = field(default_factory=list)
    projection_events: int = 0
    release_events: int = 0
    step_halvings: int = 0      # always 0: the flow is not stepped
    factorizations: int = 0     # segments; a factor is made or reused
    block_solves: int = 0       # one multi-column solve per block
    constraint_violation: float = 0.0
    equality_residual: float = 0.0
    final_state: NeuralState | None = None


def residual(problem, v, xi: float, Hz=None):
    """N v + D of the lift, without forming N (``tests/oracles.py``'s
    ``lift`` forms it): [S z + G + xi H'r; xi r] with r = H z + phi - w;
    ``Hz``, when given, is the product H z."""
    nz = problem.n_variables
    z = v[:nz]
    r = (problem.H @ z if Hz is None else Hz) + v[nz:] - problem.w
    return np.concatenate([problem.S @ z + problem.G
                           + xi * (problem.H.T @ r), xi * r])


def _factor(A):
    """Lower Cholesky factor of the symmetric A (its upper triangle is
    not cleaned); a failed factorization is retried once with a Tikhonov
    shift."""
    L, info = dpotrf(A, lower=1, clean=0)
    if info:
        L, info = dpotrf(A + _TIKHONOV * np.eye(A.shape[0]), lower=1,
                         clean=0)
        if info:
            raise np.linalg.LinAlgError("matrix is not positive definite")
    return L


def _reduced_solve(L, Hf, B, nz: int, xi: float):
    """N_red^-1 B by block elimination (see the module docstring), with L
    the Cholesky factor of S + xi Hc'Hc and Hf the free rows of H."""
    Bf = B[nz:]
    Xz = dpotrs(L, B[:nz] - Hf.T @ Bf, lower=1)[0]
    return np.concatenate([Xz, Bf / xi - Hf @ Xz])


def _free_part(resid, clamped):
    """The free components of N v + D: every z row, and the slack rows
    that are not clamped (all of ``resid`` when none is)."""
    if not clamped.any():
        return resid
    return resid[np.concatenate([np.ones(resid.size - clamped.size, bool),
                                 ~clamped])]


def _first_event(V, Hc, wc, nz, tol=0.0):
    """First interval of a block with an event, as (k, row, release):
    from row k to k + 1 of V (v[free] at consecutive samples), row the
    crossing component of least linear crossing fraction (a clamped row
    wins a tie), by its index in v[free], or in Hc when ``release``;
    None if none.  Events are a free slack going below -tol, or a
    clamped row's g = Hc z - wc crossing from >= 0 to < 0."""
    phi, g = V[:, nz:], V[:, :nz] @ Hc.T - wc
    candidates = phi[1:].min(axis=1, initial=0.0) < -tol
    if g.size and g.min() < 0.0:
        candidates |= ((g[1:] < 0.0) & (g[:-1] >= 0.0)).any(axis=1)
    hits = np.flatnonzero(candidates)
    if not hits.size:
        return None
    k, best = int(hits[0]), (math.inf,)
    for values, rows, release in (
            (phi, phi[k + 1] < -tol, False),
            (g, (g[k + 1] < 0.0) & (g[k] >= 0.0), True)):
        for i in np.flatnonzero(rows):
            th = values[k, i] / (values[k, i] - values[k + 1, i])
            if th < best[0] or (release and th == best[0]):
                best = (th, int(i) + (0 if release else nz), release)
    return (k, *best[1:])


def solve(problem, params: FtcndParams, warm_start=None):
    """Follow the neural dynamics until the residual settles.

    ``warm_start`` is a finite z0 of length nz (None means zero); the
    solve starts at the Newton endpoint of the rows that z0 violates.
    Returns (z_star, FtcndDiagnostics).  The reported residual is the
    projected optimality residual: free components of N v + D, with
    clamped slack rows counted as zero while their gradients stay
    non-negative.  Non-convergence within max_time returns the best
    iterate with ``converged=False``.  A problem with a non-finite entry
    or a non-convex S raises ValueError; FtcndIntegrationError reports
    a residual that overflows.
    """
    S, G, H, w = problem.S, problem.G, problem.H, problem.w
    nz, nc = problem.n_variables, problem.n_constraints
    xi, mu = params.xi, params.mu
    z0 = np.zeros(nz) if warm_start is None else np.asarray(warm_start, float)
    if z0.shape != (nz,):
        raise ValueError(f"warm start must have length {nz}")
    if not np.isfinite(z0).all():
        raise ValueError("warm start must be finite")
    try:    # see "The start" in the module docstring
        with np.errstate(invalid="ignore", over="ignore"):
            # S's factor is the segment factor while no row is clamped.
            L_S, info = dpotrf(S, lower=1, clean=0)
            if info:
                raise ValueError("QP must be strictly convex "
                                 "(S positive definite)")
            # Start at the Newton endpoint of the rows that z0 violates.  A
            # z0 that clamps nothing takes S's factor, and 0.0 - G is the
            # xi Hc'wc - G of no rows, signed zeros included.
            clamped = H @ z0 > w
            if clamped.any():
                Hc, wc = H[clamped], w[clamped]
                L, rhs = _factor(S + xi * (Hc.T @ Hc)), xi * (Hc.T @ wc) - G
            else:
                L, rhs = L_S, 0.0 - G
            z = dpotrs(L, rhs, lower=1)[0]
            Hz = H @ z
            v = np.concatenate([z, np.maximum(0.0, w - Hz)])
            resid = residual(problem, v, xi, Hz)
            h_max = float(np.abs(resid).max())
            # Fails on NaN, on inf, and where h'h <= n h_max^2 may overflow.
            if not h_max * h_max * resid.size < 1e308:
                raise FtcndIntegrationError("non-finite neural state")
    except (ValueError, FtcndIntegrationError):
        problem.check_finite()
        raise
    clamped_n = (v[nz:] <= 0.0) & (resid[nz:] > 0.0)
    h = _free_part(resid, clamped_n)
    if h is not resid:
        h_max = float(np.abs(h).max())
    if (clamped_n != clamped).any():
        clamped, L = clamped_n, None
    eps = params.epsilon_h
    flow = flow_map(mu, params.lam, params.zeta, params.kappa)
    diag = FtcndDiagnostics(h_max <= eps, 0.0 if h_max <= eps else math.inf,
                            flow.bound(h_max), h_inf_history=[h_max],
                            f_history=[float(h @ h)], time_history=[0.0])
    if diag.converged:  # final: no test below releases a row with r > 0
        return _finish(problem, v, h, xi, diag, Hz)

    time, dt = 0.0, params.ode_step
    shift = max(_EVENT_TOL, eps)    # release below g = -shift
    # The live components of h (lift indices, latest zero time first),
    # their values at the segment's start and their zero times.
    comp, h_comp, t_zero = np.empty(0, np.intp), np.empty(0), np.empty(0)

    def add(rows, r):               # components entering h now, at r
        nonlocal comp, h_comp, t_zero
        rows, r = rows[r != 0.0], r[r != 0.0]
        t = np.append(t_zero, time + flow.time_to_zero(np.abs(r)))
        o = np.argsort(-t)
        comp, h_comp, t_zero = (np.append(comp, rows)[o],
                                np.append(h_comp, r)[o], t[o])

    def release(rows):              # each enters h at xi (H z - w)
        clamped[rows] = False
        add(nz + rows, xi * (H[rows] @ v[:nz] - w[rows]))
        diag.release_events += rows.size

    def crossing(row, is_release, lo, hi, times, cols):
        """(s, h, v[free]) where the row's value e falls through 0 in
        (lo, hi] on the exact path: from s(e) interpolated through v[free]
        at ``times`` (``cols``), Newton steps on e's second-order expansion
        bracketed by bisection, the last (below 4e-5 of the time scale
        1 / (mu max Li')) taken along the expansion by h and v alike."""
        def value(M):               # e + c at the columns of M
            return (Hc[row] @ M[:nz] if is_release else M[row]).tolist()
        c = wc[row] if is_release else 0.0
        e = dict(zip(times, (x - c for x in value(cols))))
        s = lo + e[lo] / (e[lo] - e[hi]) * (hi - lo)
        if len(set(e.values())) == len(e) > 2:
            q = sum(t * math.prod(ej / (ej - ei) for ej in e.values()
                                  if ej != ei) for t, ei in e.items())
            s = q if lo < q < hi else s
        for _ in range(100):        # columns h, hdot, hddot at s
            na = int(np.count_nonzero(t_live > s))
            D = np.zeros((live.size, 3))
            h_s = np.copysign(flow.level(t_live[:na] - s), h_comp[:na],
                              out=D[:na, 0])
            li, dli = flow.li(h_s)
            D[:na, 1] = np.copysign(mu * li, -h_s)
            np.multiply(D[:na, 1], -mu * dli, out=D[:na, 2])
            B = np.zeros((free.size, 3))
            B[live] = D
            X = _reduced_solve(L, Hf, B, nz, xi)
            X[:, 0] += v_end
            e, e1, e2 = value(X)
            lo, hi = (s, hi) if e >= c else (lo, s)
            disc = e1 * e1 + 2.0 * (c - e) * e2
            step = (math.inf if not e1 else (c - e) / e1 if disc < 0.0 else
                    2.0 * (c - e) / (e1 + math.copysign(disc ** 0.5, e1)))
            if abs(step) * mu * dli.max(initial=0.0) <= 4e-5:
                d = np.array([1.0, step, 0.5 * step * step])
                return s + step, D @ d, X @ d
            s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
        return s, D[:, 0], X[:, 0]

    add(np.concatenate([np.arange(nz), nz + np.flatnonzero(~clamped)]), h)
    need_refactor, projected = True, np.zeros(nc, bool)
    while (time < params.max_time and diag.projection_events
           + diag.release_events <= 100 + 10 * nc):
        if need_refactor:
            free_rows = np.flatnonzero(~clamped)
            clamped_idx = np.flatnonzero(clamped)
            free = np.concatenate([np.arange(nz), nz + free_rows])
            Hc, Hf = H.take(clamped_idx, axis=0), H.take(free_rows, axis=0)
            wc = w.take(clamped_idx) - shift
            wc[projected[clamped_idx]], projected[:] = -math.inf, False
            if L is None:
                L = _factor(S + xi * (Hc.T @ Hc)) if clamped_idx.size else L_S
            diag.factorizations += 1
            # Keep the components still free and not yet at 0 (they lead).
            pos = np.full(nz + nc, -1)
            pos[free] = np.arange(free.size)
            keep = (pos[comp] >= 0) & (t_zero > time)
            comp, h_comp, t_zero = comp[keep], h_comp[keep], t_zero[keep]
            live, t_live = pos[comp], t_zero - time     # places in v[free]
            t_seg, n_grid, v_end, block = time, 0, None, _FIRST_BLOCK
            need_refactor = False

        # The block's samples: grid samples while max|h| > eps, then the
        # segment's end, none past max_time.  Row j of V is v[free] after
        # j samples (0: before); a first block also gives v_end.
        s = dt * np.arange(n_grid + 1, n_grid + block + 1)
        na = int(np.count_nonzero(t_live > s[0]))
        Hb = flow.level(t_live[:na, None] - s)
        n = int(np.count_nonzero(Hb[0] > eps)) if na else 0
        if n < block:
            s = np.append(s[:n], t_live[0] if live.size else 0.0)
            Hb = Hb[:, :n + 1]
            Hb[:, n] = 0.0
        m = int(np.count_nonzero(t_seg + s <= params.max_time))
        if not m:
            break
        settled, s, Hb = n < block and m == s.size, s[:m], Hb[:, :m]
        h_inf = Hb[0].tolist() if na else [0.0] * m
        np.copysign(Hb, h_comp[:na, None], out=Hb)
        B = np.zeros((free.size, m + (v_end is None)))
        B[live[:na], :m] = Hb
        if v_end is None:
            B[live, m] = h_comp
        X = _reduced_solve(L, Hf, B, nz, xi)
        if v_end is None:
            v_end = v[free] - X[:, m]
        V = np.empty((m + 1, free.size))
        V[0] = v[free]
        np.add(v_end, X[:, :m].T, out=V[1:])
        diag.block_solves += 1
        split = _first_event(V, Hc, wc, nz)
        k = m if split is None else split[0]
        diag.iterations += k
        diag.time_history += (t_seg + s[:k]).tolist()
        diag.h_inf_history += h_inf[:k]
        diag.f_history += np.einsum("ij,ij->j", Hb[:, :k], Hb[:, :k]).tolist()
        if split is None:
            v[free], time, n_grid = V[-1], t_seg + s[-1], n_grid + m
            block = min(2 * block, _MAX_BLOCK)
            if not settled:
                continue
            # h = 0: release the clamped rows whose gradient turned negative
            # (held at the last event, or from a warm start), or stop if N v
            # + D agrees; if Phi lost carried values, h starts anew from it.
            comp, h_comp, t_zero = comp[:0], h_comp[:0], t_zero[:0]
            stuck = clamped_idx[Hc @ v[:nz] - w.take(clamped_idx) < -shift]
            if stuck.size:
                release(stuck)
                L = None
            else:
                h = _free_part(residual(problem, v, xi), clamped)
                if np.abs(h).max() <= eps:
                    diag.converged, diag.converge_time = True, time
                    return _finish(problem, v, h, xi, diag)
                add(free, h)
            need_refactor = True
            continue

        # An event between rows k and k + 1, refined on the exact path
        # (again for any row that the refined point shows crossed first).
        _, row, is_release = split
        times, j = np.append(n_grid * dt, s), max(0, min(k - 1, m - 3))
        s_e, h_comp, v_e = crossing(row, is_release, times[k], times[k + 1],
                                    times[j:j + 4].tolist(), V[j:j + 4].T)
        for _ in range(free.size + wc.size):
            if not ((v_e[nz:] < -_EVENT_TOL).any()
                    or (Hc @ v_e[:nz] < wc - _EVENT_TOL).any()):
                break
            W = np.vstack([V[k], v_e])
            earlier = _first_event(W, Hc, wc - _EVENT_TOL, nz, _EVENT_TOL)
            if earlier is None or earlier[1:] == (row, is_release):
                break
            _, row, is_release = earlier
            s_e, h_comp, v_e = crossing(row, is_release, times[k], s_e,
                                        [times[k], s_e], W.T)
        time = t_seg + s_e
        diag.iterations += 1
        diag.time_history.append(time)
        diag.h_inf_history.append(abs(float(h_comp[0])) if h_comp.size else 0.)
        diag.f_history.append(float(h_comp @ h_comp))
        v[free] = v_e
        phi = v[nz:]
        if not is_release:
            phi[free_rows[row - nz]] = 0.0
        hit = np.flatnonzero(~clamped & (phi <= _EVENT_TOL))
        phi[hit], clamped[hit], projected[hit] = 0.0, True, True
        diag.projection_events += hit.size
        if is_release:              # with the rows that crossed alike
            g_now = np.where(Hc @ V[k, :nz] >= wc, Hc @ v[:nz] - wc, math.inf)
            g_now[row] = -math.inf
            release(clamped_idx[g_now <= _EVENT_TOL])
        need_refactor, L = True, None

    return _finish(problem, v, _free_part(residual(problem, v, xi), clamped),
                   xi, diag)


def _finish(problem, v, h, xi: float, diag, Hz=None):
    """(z, diag) of a solve that ends at v, with h the free part of its
    N v + D and ``Hz`` the product H z, formed here when not given; the
    diagnostics take the violation max(H z - w, 0) from it."""
    nz = problem.n_variables
    z = v[:nz].copy()
    Hz = problem.H @ z if Hz is None else Hz
    worst = (Hz - problem.w).max() if Hz.size else 0.0
    diag.constraint_violation = float(worst) if worst > 0.0 else 0.0
    diag.equality_residual = (float(np.abs(h[nz:]).max()) / xi
                              if h.size > nz else 0.0)
    diag.final_state = NeuralState(v=v, h=h)
    return z, diag
