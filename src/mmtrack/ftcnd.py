"""Finite-time convergent neural dynamics for the tracking QP.

The inequality-constrained QP is lifted with non-negative slacks into
the linear optimality system N v + D = 0, v = [z; phi], and integrated
as N vdot = -mu * Omega(N v + D) with the Li activation.  Because
hdot = N vdot, the residual h obeys the decoupled scalar dynamics
hdot_i = -mu * omega(h_i), which is what yields the finite-time bound.

Treating phi as a free variable would collapse the lift to the
unconstrained problem; the slack non-negativity is enforced here by
exact projection events: integration steps are split where a slack hits
zero (the component is then clamped and its row leaves the residual) or
where a clamped row's gradient crosses zero (the component re-enters the
residual at exactly zero).  Along every accepted step each residual
component decays monotonically, so hT h is non-increasing and the
per-component finite-time bound is preserved.  A start z gets the
slacks max(0, w - H z): a row that z satisfies starts free with r = 0,
a row that it violates clamped.  A solve starts at z0 (0, or the warm
start) or at the end of z0's first segment (below).

Segments and blocks.  Between two events the free set is fixed, and
since h is stepped and accepted on its own, v moves by exactly
N_red^-1 (h_k - h_0) after k steps, N_red being N without the clamped
rows and columns.  N is never formed: with r = H z + phi - w the
residual is N v + D = [S z + G + xi H'r; xi r], and as the slack block
of N_red is xi I, block elimination reduces N_red x = b to
(S + xi Hc'Hc) x_z = b_z - Hf' b_f and x_f = b_f / xi - Hf x_z, where Hc
and Hf are the clamped and the free rows of H.  So each segment factors
only the nz x nz matrix S + xi Hc'Hc; while no row is clamped this is
the factor of S that the convexity check computes.  A segment is
integrated in blocks: h alone is stepped through a block of accepted
steps, each written into the next row of one (block, nlive) buffer,
then one multi-column solve with the segment's factor (no inverse is
formed) gives v after every step of the block, and the events are
looked for in those columns.  Only the nlive components of h that are
not exactly zero at the segment's start are stepped: a zero is a fixed
point of h <- h - mu dt Li(h), and the derived slacks make most slack
rows of a warm start exactly zero.  Step halving, the return of dt to
ode_step, the convergence test and the finiteness check all act on h:
a step whose h'h is not finite raises, and a step that does not lower
h'h is halved, so h'h strictly decreases along accepted steps
(accepting an equal value would let a coarse step flip h to about -h
over and over).  The test max|h| <= eps runs only once h'h <= 2 nfree
max(eps^2, 1e-300), which max|h| <= eps implies with room for the
rounding of h'h.  At the first step with an event the block is cut: its
crossing fraction theta is computed as for a single step, h, the
virtual time, dt, the counters and the histories are rolled back to
that step, the step is taken up to theta, the slack is clamped or
released, and a new segment starts.  The first block of a segment is 2
steps; each block that ends without an event doubles the next, up to a
cap.  The iterates, events and histories are those of a solver that
solves for v and checks events after every step, up to rounding.

The start.  A segment from z0 would end where h = 0 with z0's rows C
clamped, at v - N_red^-1 h, whose z part is
z_N = (S + xi Hc'Hc)^-1 (xi Hc'wc - G): one penalized active-set Newton
step (Nocedal & Wright 2006, sections 16.5 and 17.1), one solve with
the factor that the segment needs anyway (that of S while C is empty).
z_N's slacks are derived by the same rule, and the solve starts from
whichever of z0 and z_N has the smaller max|h| (z0 on a tie), reusing
the factor when that start clamps C.  The start meets the convergence
test before any segment is set up.  One that passes returns at 0
iterations and 0 factorizations: its v, h and max|h| are final, and
neither the free and clamped row sets nor a second residual are made.
From any other start the integration runs as above.  The step is taken
once: repeating it to a fixed point would leave FTCND only to certify
answers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

_TIKHONOV = 1e-10
_EVENT_TOL = 1e-14
# Steps per block: 2 after each factorization, doubled after every block
# that ends without an event, up to this cap, which bounds the block's
# memory (a 50 s solve at 1e-4 would otherwise stack 2^18 columns);
# past 64 columns a wider solve saves little per column.
_MAX_BLOCK = 64


class FtcndIntegrationError(RuntimeError):
    """Raised when the ODE state becomes non-finite (step too large)."""


@dataclass(frozen=True)
class FtcndParams:
    """Gains and integration settings of the neural-dynamics solver.
    From ``ode_step`` ~ 0.02 (default gains) steps near convergence
    overshoot, and the step count depends on rounding."""

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


@dataclass
class NeuralState:
    """Augmented variable v = [z; phi] and its residual h at a virtual time."""

    v: np.ndarray
    h: np.ndarray
    virtual_time: float


@dataclass
class FtcndDiagnostics:
    converged: bool = False
    converge_time: float = math.inf
    bound_t_f: float = 0.0
    iterations: int = 0
    h_inf_history: list = field(default_factory=list)
    f_history: list = field(default_factory=list)
    time_history: list = field(default_factory=list)
    projection_events: int = 0
    release_events: int = 0
    step_halvings: int = 0
    # Integrated segments, each with one factor: made for it, or reused
    # (S's, or the Newton step's while the start keeps z0's rows C).  The
    # convexity check's factor of S and a Newton-step factor that no
    # segment uses are not counted.
    factorizations: int = 0
    endpoint_start: bool = False    # started at the first segment's end
    block_solves: int = 0       # one multi-column solve per block
    constraint_violation: float = 0.0
    equality_residual: float = 0.0
    final_state: NeuralState | None = None


def li_activation(h, lam: float, zeta: float, kappa: float, out=None):
    """Li function: odd, monotone, with a fractional-power term that
    drives the residual to zero in finite time; written to ``out`` if given."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly inside (0, 1)")
    h = np.asarray(h, float)
    # sign(h) |h|^kappa + sign(h) |h|^(1/kappa), save that h = -0 gives -0.
    a = np.abs(h)
    y = np.copysign(a ** kappa + a ** (1.0 / kappa), h, out=out)
    y *= 0.5 * lam
    y += 0.5 * zeta * h
    return y


def finite_time_bound(h0, mu: float, kappa: float) -> float:
    """Upper bound on the virtual time to drive the residual to zero:
    2 |h_max(0)|^(1-kappa) / (mu (1-kappa))."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly inside (0, 1)")
    h0 = np.atleast_1d(np.asarray(h0, float))
    if h0.size == 0:
        return 0.0
    hmax = float(np.max(np.abs(h0)))
    return 2.0 * hmax ** (1.0 - kappa) / (mu * (1.0 - kappa))


def residual(problem, v, xi: float):
    """N v + D of the lift, without forming N (``tests/oracles.py``'s
    ``lift`` forms it): [S z + G + xi H'r; xi r] with r = H z + phi - w."""
    nz = problem.n_variables
    z = v[:nz]
    r = problem.H @ z + v[nz:] - problem.w
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
    that are not clamped."""
    return resid[np.concatenate([np.ones(resid.size - clamped.size, bool),
                                 ~clamped])]


def _settled(h, F, gate, eps: float):
    """The convergence test of h with F = h'h: F <= gate, then
    max|h| <= eps."""
    return F <= gate and float(np.abs(h).max(initial=0.0)) <= eps


def _derived_start(problem, z, xi: float):
    """(v, h, clamped) of a start at z: the slacks max(0, w - H z) clamp
    the rows that z violates, and h is the free part of N v + D."""
    nz = problem.n_variables
    v = np.concatenate([z, np.maximum(0.0, problem.w - problem.H @ z)])
    resid = residual(problem, v, xi)
    clamped = (v[nz:] <= 0.0) & (resid[nz:] > 0.0)
    return v, _free_part(resid, clamped), clamped


def _first_event(V, Hc, wc, nz):
    """First step of a block that ends at an event, as (k, theta,
    release_hit): step k runs from column k to k + 1 of V and is cut at
    the fraction theta.  None when no step of the block needs a cut.

    Events are a free slack going negative, or a clamped row's gradient
    g = Hc z - wc crossing from >= 0 to < 0; theta is the smallest
    crossing fraction of either kind.
    """
    phi = V[nz:]
    candidates = (phi[:, 1:] < 0.0).any(axis=0)
    going_neg = np.zeros((0, candidates.size), bool)
    if wc.size:
        g = Hc @ V[:nz] - wc[:, None]
        going_neg = (g[:, 1:] < 0.0) & (g[:, :-1] >= 0.0)
        candidates |= going_neg.any(axis=0)
    for k in np.flatnonzero(candidates):
        theta = 1.0
        phi_old, phi_new = phi[:, k], phi[:, k + 1]
        crossing = phi_new < 0.0
        if crossing.any():
            th = phi_old[crossing] / (phi_old[crossing] - phi_new[crossing])
            theta = min(theta, float(np.min(th)))
        release_hit = False
        rows = going_neg[:, k]
        if rows.any():
            g_old, g_new = g[rows, k], g[rows, k + 1]
            th_min = float(np.min(g_old / (g_old - g_new)))
            if th_min <= theta:
                theta = th_min
                release_hit = True
        theta = min(max(theta, 0.0), 1.0)
        # A crossing fraction that rounds to 1 is no cut: the step is
        # taken whole, and the next candidate step is examined.
        if theta < 1.0:
            return int(k), theta, release_hit
    return None


def solve(problem, params: FtcndParams, warm_start=None):
    """Integrate the neural dynamics until the residual settles.

    ``warm_start`` is the z0 (length nz) to start from; None means zero.
    The solve starts at z0, or at the end of z0's first segment when its
    residual is smaller (``endpoint_start``; see the module docstring).
    Returns (z_star, FtcndDiagnostics).  The reported residual is the
    projected optimality residual: free components of N v + D, with
    clamped slack rows counted as zero while their gradients stay
    non-negative.  Non-convergence within max_time returns the best
    iterate with ``converged=False``.  A problem with a non-finite entry
    or a non-convex S raises ValueError; FtcndIntegrationError reports
    a residual that overflows.
    """
    problem.check_finite()
    S, H, w = problem.S, problem.H, problem.w
    nz = problem.n_variables
    nc = problem.n_constraints
    xi = params.xi
    mu, lam, zeta, kappa = params.mu, params.lam, params.zeta, params.kappa
    # The factor of S is the segment factor while no row is clamped.
    L_S, info = dpotrf(S, lower=1, clean=0)
    if info:
        raise ValueError("QP must be strictly convex (S positive definite)")

    z0 = np.zeros(nz) if warm_start is None else np.asarray(warm_start, float)
    if z0.shape != (nz,):
        raise ValueError(f"warm start must have length {nz}")
    v, h, clamped = _derived_start(problem, z0, xi)
    Hc, wc = H[clamped], w[clamped]
    L = _factor(S + xi * (Hc.T @ Hc)) if Hc.size else L_S
    # The first segment's endpoint, where h would reach 0 with the rows
    # of z0 clamped: one block-eliminated Newton step.
    v_n, h_n, clamped_n = _derived_start(
        problem, dpotrs(L, xi * (Hc.T @ wc) - problem.G, lower=1)[0], xi)
    h_max, h_max_n = float(np.abs(h).max()), float(np.abs(h_n).max())
    endpoint = h_max_n < h_max
    if endpoint:
        if (clamped_n != clamped).any():
            L = None
        v, h, clamped, h_max = v_n, h_n, clamped_n, h_max_n
    F = float(h @ h)
    eps = params.epsilon_h
    # The h'h gate per free component (see the module docstring).
    gate_per_row = 2.0 * max(eps * eps, 1e-300)
    diag = FtcndDiagnostics(bound_t_f=finite_time_bound(h_max, mu, kappa),
                            endpoint_start=endpoint, h_inf_history=[h_max],
                            f_history=[F], time_history=[0.0])
    if _settled(h, F, gate_per_row * h.size, eps):
        # A derived start clamps only rows with r > 0, so the release
        # test of the settled branch below cannot fire here: the start
        # is final, and no segment is set up.
        diag.converged, diag.converge_time = True, 0.0
        return _finish(problem, v, h, 0.0, xi, diag)

    time = 0.0
    dt = params.ode_step
    need_refactor = True
    max_events = 100 + 10 * nc
    events = 0

    while time < params.max_time and events <= max_events:
        if need_refactor:
            free_rows = np.flatnonzero(~clamped)
            clamped_idx = np.flatnonzero(clamped)
            free = np.concatenate([np.arange(nz), nz + free_rows])
            Hc, wc, Hf = H[clamped_idx], w[clamped_idx], H[free_rows]
            if L is None:
                L = _factor(S + xi * (Hc.T @ Hc)) if clamped_idx.size else L_S
            diag.factorizations += 1
            if h is None:
                h = residual(problem, v, xi)[free]
            live = np.flatnonzero(h)
            h = h[live]
            F = float(h @ h)
            gate = gate_per_row * free.size
            v_seg, h_seg = v[free], h
            block = 2
            need_refactor = False

        # Step the residual alone for up to `block` accepted steps, into Hb.
        n0, h_start = len(diag.time_history), h
        Hb = np.empty((block, live.size))
        steps = []              # (dt, halvings so far) of each step
        j, settled = 0, False
        while j < block and time < params.max_time:
            if _settled(h, F, gate, eps):
                settled = True
                break
            h_new = li_activation(h, lam, zeta, kappa, out=Hb[j])
            h_new *= -mu * dt
            h_new += h
            F_new = float(h_new @ h_new)
            if not math.isfinite(F_new):
                raise FtcndIntegrationError("non-finite neural state")
            if F_new >= F:
                dt *= 0.5
                diag.step_halvings += 1
                if dt < 1e-300:
                    raise FtcndIntegrationError("step size underflow")
                continue
            h, F = h_new, F_new
            time += dt
            j += 1
            diag.time_history.append(time)
            diag.f_history.append(F)
            steps.append((dt, diag.step_halvings))
            dt = min(dt * 2.0, params.ode_step)

        if j:
            diag.h_inf_history.extend(np.abs(Hb[:j]).max(axis=1).tolist())
            # Column j is v[free] after j steps of the block (0: its start).
            V = np.empty((free.size, j + 1))
            V[:, 0] = v[free]
            B = np.zeros((free.size, j))
            B[live] = (Hb[:j] - h_seg).T
            V[:, 1:] = v_seg[:, None] + _reduced_solve(L, Hf, B, nz, xi)
            diag.block_solves += 1
            split = _first_event(V, Hc, wc, nz)
            if split is not None:
                k, theta, release_hit = split
                dt, diag.step_halvings = steps[k]
                v[free] = V[:, k] + theta * (V[:, k + 1] - V[:, k])
                h_prev = Hb[k - 1] if k else h_start
                dh = -mu * dt * li_activation(h_prev, lam, zeta, kappa)
                h = h_prev + theta * dh
                F = float(h @ h)
                time = diag.time_history[n0 + k - 1] + theta * dt
                diag.iterations += k + 1
                for hist, value in ((diag.time_history, time),
                                    (diag.h_inf_history,
                                     float(np.abs(h).max())),
                                    (diag.f_history, F)):
                    del hist[n0 + k:]
                    hist.append(value)
                phi = v[nz:]
                hit = np.flatnonzero((~clamped) & (phi <= _EVENT_TOL))
                if hit.size:
                    phi[hit] = 0.0
                    clamped[hit] = True
                    diag.projection_events += hit.size
                    events += hit.size
                if release_hit:
                    g_now = Hc @ v[:nz] - wc
                    rel = clamped_idx[g_now <= _EVENT_TOL]
                    if rel.size:
                        clamped[rel] = False
                        diag.release_events += rel.size
                        events += rel.size
                need_refactor, L, h = True, None, None
                continue
            diag.iterations += j
            v[free] = V[:, -1]
            block = min(2 * block, _MAX_BLOCK)

        if settled:
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
                    need_refactor, L, h = True, None, None
                    continue
            diag.converged = True
            diag.converge_time = time
            break

    return _finish(problem, v, _free_part(residual(problem, v, xi), clamped),
                   time, xi, diag)


def _finish(problem, v, h, time, xi: float, diag):
    """(z, diag) of a solve that ends at v, with h the free part of its
    N v + D."""
    nz = problem.n_variables
    z = v[:nz].copy()
    diag.constraint_violation = problem.violation(z)
    diag.equality_residual = float(np.abs(h[nz:]).max(initial=0.0)) / xi
    diag.final_state = NeuralState(v=v, h=h, virtual_time=time)
    return z, diag

