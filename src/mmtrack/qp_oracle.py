"""Reference QP solvers and a KKT checker, independent of the neural
dynamics, used to validate its output.

Two solve modes mirror the two problems the neural solver can be asked
about: the exact inequality-constrained QP, and its slack-penalized
relaxation (quadratic penalty with factor xi on constraint violations,
slacks kept non-negative).  The exact mode is an active-set iteration
on the KKT system; the penalized mode is a semismooth active-set fixed
point.  Both are dense and intended for small instances only.
``scipy.optimize`` loads on the first exact solve or KKT check, the only
calls that use it, so a closed loop never holds it in memory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KKT_TOL = 1e-10
_FIXED_POINT_TOL = 1e-12


class InfeasibleProblem(RuntimeError):
    """No point satisfies H z <= w; carries a certificate row index."""

    def __init__(self, certificate_row: int):
        super().__init__(f"infeasible constraint system; certificate row "
                         f"{certificate_row}")
        self.certificate_row = int(certificate_row)


class NotConverged(RuntimeError):
    """An active-set iteration reached its iteration cap."""


@dataclass(frozen=True)
class KktReport:
    stationarity_residual: float
    primal_violation: float
    complementarity_residual: float
    passed: bool


def _feasible_point(H, w):
    """Phase-1 LP: min s  s.t.  H z - w <= s, s >= -1.

    Returns a feasible z or raises InfeasibleProblem with the row that
    remains violated at the LP optimum.
    """
    from scipy.optimize import linprog
    nc, nz = H.shape
    c = np.zeros(nz + 1)
    c[-1] = 1.0
    A = np.hstack([H, -np.ones((nc, 1))])
    bounds = [(None, None)] * nz + [(-1.0, None)]
    res = linprog(c, A_ub=A, b_ub=w, bounds=bounds, method="highs")
    if res.status != 0 or res.x is None or res.x[-1] > 1e-9:
        if res.x is not None:
            row = int(np.argmax(H @ res.x[:-1] - w))
        else:
            row = int(np.argmax(-w))
        raise InfeasibleProblem(row)
    return res.x[:-1]


def _solve_penalized(S, G, H, w, xi):
    """Fixed point of min_z 1/2 z'Sz + G'z + xi/2 ||max(0, Hz - w)||^2.

    With non-negative slacks eliminated the penalty acts only on
    violated rows, so the minimizer satisfies a piecewise-linear
    equation solved by active-set iteration.
    """
    z = np.linalg.solve(S, -G)
    active = H @ z - w > 0.0
    for _ in range(200):
        Ha = H[active]
        A = S + xi * Ha.T @ Ha
        b = -G + xi * Ha.T @ w[active]
        z_new = np.linalg.solve(A, b)
        new_active = H @ z_new - w > 0.0
        if np.array_equal(new_active, active) and \
                np.max(np.abs(z_new - z)) <= _FIXED_POINT_TOL:
            return z_new
        z = z_new
        active = new_active
    raise NotConverged("penalized active-set iteration did not settle")


def _solve_exact(S, G, H, w):
    """Primal active-set iteration on the exact QP.

    Starts from a feasible point (phase-1 LP), takes null-space steps of
    the working-set equality QP with a ratio test against the inactive
    rows, and drops working rows with negative multipliers at subproblem
    optima.  Every iterate stays feasible.
    """
    z = _feasible_point(H, w)
    nz = S.shape[0]
    nc = H.shape[0]
    working: list[int] = []
    for _ in range(200 * (nc + 1)):
        grad = S @ z + G
        Ha = H[working]
        na = Ha.shape[0]
        K = np.block([[S, Ha.T], [Ha, np.zeros((na, na))]])
        rhs = np.concatenate([-grad, np.zeros(na)])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        d, lam = sol[:nz], sol[nz:]
        if np.max(np.abs(d), initial=0.0) <= 1e-12:
            if lam.size == 0 or lam.min() >= -_KKT_TOL:
                return z
            working.pop(int(np.argmin(lam)))
            continue
        Hd = H @ d
        slack = w - H @ z
        mask = np.ones(nc, dtype=bool)
        mask[working] = False
        mask &= Hd > 1e-14
        alpha = 1.0
        block = -1
        if mask.any():
            idx = np.flatnonzero(mask)
            ratios = slack[idx] / Hd[idx]
            jmin = int(np.argmin(ratios))
            if ratios[jmin] < alpha:
                alpha = max(ratios[jmin], 0.0)
                block = int(idx[jmin])
        z = z + alpha * d
        if block >= 0:
            working.append(block)
    raise NotConverged("active-set iteration did not converge")


def solve_reference(problem, penalized: bool = False, xi: float = 5.0):
    """Reference solution of the QP (exact or slack-penalized).

    Parameters
    ----------
    problem : QpProblem
    penalized : solve the xi-penalty relaxation instead of the exact QP
    xi : penalty factor (penalized mode only)

    Raises InfeasibleProblem in exact mode when no feasible point exists,
    NotConverged when the iteration reaches its cap, and ValueError when
    S, G, H or w is not finite or S is not positive definite.
    """
    problem.check_finite()
    S, G, H, w = problem.S, problem.G, problem.H, problem.w
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("QP must be strictly convex (S positive definite)")
    if penalized:
        if xi <= 0:
            raise ValueError("penalty factor xi must be positive")
        return _solve_penalized(S, G, H, w, xi)
    return _solve_exact(S, G, H, w)


def check_kkt(problem, z, tol: float = 1e-8) -> KktReport:
    """First-order optimality check at z.

    Multipliers are recovered by non-negative least squares on the rows
    flagged active (within a small margin of their bound); the report
    passes when stationarity, primal feasibility, and complementarity
    residuals are all within tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    S, G, H, w = problem.S, problem.G, problem.H, problem.w
    z = np.asarray(z, float)
    slack = H @ z - w
    primal = float(np.max(np.append(slack, 0.0)))
    margin = max(10.0 * tol, 1e-8)
    active = slack >= -margin
    grad = S @ z + G
    if active.any():
        from scipy.optimize import nnls
        lam_a, _ = nnls(H[active].T, -grad)
        resid = grad + H[active].T @ lam_a
        lam = np.zeros(H.shape[0])
        lam[active] = lam_a
    else:
        resid = grad
        lam = np.zeros(H.shape[0])
    stationarity = float(np.max(np.abs(resid))) if resid.size else 0.0
    comp = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    passed = stationarity <= tol and primal <= tol and comp <= tol
    return KktReport(stationarity_residual=stationarity,
                     primal_violation=primal,
                     complementarity_residual=comp,
                     passed=passed)
