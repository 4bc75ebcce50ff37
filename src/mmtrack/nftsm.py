"""Non-singular fast terminal sliding-mode torque controller.

The surface uses fractional exponents on both the position and velocity
errors, which gives finite-time convergence without ever dividing by a
vanishing error (the equivalent control multiplies by |e2|^(2-r2), so
the classical terminal-SM singularity never appears).  The sign
function is replaced by a boundary-layer saturation throughout to
suppress chattering.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import ErrorState
from .model import RobotModel


@dataclass(frozen=True)
class NftsmParams:
    """Surface gains, exponents, reaching gains, boundary layer."""

    alpha: float = 1.0
    beta: float = 1.0
    r1: float = 1.8
    r2: float = 1.6
    r3: float = 1.0
    c1: float = 20.0
    c2: float = 0.6
    delta: float = 0.05

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 1.0 < self.r2 < 2.0:
            raise ValueError("r2 must lie in (1, 2)")
        if not self.r1 > self.r2:
            raise ValueError("r1 must exceed r2")
        if not 0.0 < self.r3 <= 1.0:
            raise ValueError("r3 must lie in (0, 1]")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.r3 == 1.0:
            warnings.warn("r3 = 1 leaves the fast-terminal range (0, 1); "
                          "the reaching law degenerates to a linear term",
                          stacklevel=2)


@dataclass
class SlidingDiagnostics:
    """Surface value, Lyapunov value and its finite-difference rate."""

    s: np.ndarray
    V: float
    Vdot_estimate: float
    inside_boundary_layer: np.ndarray


def saturation(s, delta: float):
    """Boundary-layer saturation: s/delta clipped to [-1, 1]."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return np.clip(np.asarray(s, float) / delta, -1.0, 1.0)


def sliding_surface(e: ErrorState, params: NftsmParams) -> np.ndarray:
    """s = e1 + alpha sat(e1/d)|e1|^r1 + beta sat(e2/d)|e2|^r2, elementwise."""
    e1, e2 = e.e1, e.e2
    return (e1
            + params.alpha * saturation(e1, params.delta) * np.abs(e1) ** params.r1
            + params.beta * saturation(e2, params.delta) * np.abs(e2) ** params.r2)


def control_torque(model: RobotModel, q_m, qdot_m, desired,
                   params: NftsmParams, gravity=None, terms=None):
    """Torque command tau = -M (u_eq + u_sw) plus diagnostics.

    Parameters
    ----------
    desired : mapping with keys q_md, qd_md, qdd_md (arm vectors)
    gravity : optional gravity override (base-frame, used when tilted)

    The equivalent part cancels the drift of the error dynamics and the
    surface's own flow; the switching part is the fast-terminal reaching
    law with saturated sign.  Base-acceleration feed-forward is the
    caller's responsibility (added on top of this torque).
    """
    q_m = np.asarray(q_m, float)
    qdot_m = np.asarray(qdot_m, float)
    e1 = q_m - np.asarray(desired["q_md"], float)
    e2 = qdot_m - np.asarray(desired["qd_md"], float)
    e = ErrorState(e1=e1, e2=e2)
    s = sliding_surface(e, params)

    if terms is None:
        terms = dynamics.dynamics_terms(model, q_m, qdot_m, gravity=gravity)
    F_term = -dynamics.solve_inertia(terms.M, terms.bias + terms.G) \
        - np.asarray(desired["qdd_md"], float)

    sat1 = saturation(e1, params.delta)
    sat2 = saturation(e2, params.delta)
    u_eq = (np.abs(e2) ** (2.0 - params.r2) * sat2 / (params.beta * params.r2)
            * (1.0 + params.alpha * params.r1 * np.abs(e1) ** (params.r1 - 1.0))
            + F_term)
    u_sw = params.c1 * np.abs(s) ** params.r3 * saturation(s, params.delta) \
        + params.c2 * s
    tau = -terms.M @ (u_eq + u_sw)

    diag = SlidingDiagnostics(s=s, V=float(0.5 * s @ s), Vdot_estimate=0.0,
                              inside_boundary_layer=np.abs(s) <= params.delta)
    return tau, diag


def lyapunov_diagnostics(s_prev, s_now, dt: float,
                         delta: float = 0.05) -> SlidingDiagnostics:
    """V = 1/2 s.s and its backward-difference rate between two samples."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    s_prev = np.asarray(s_prev, float)
    s_now = np.asarray(s_now, float)
    V_now = float(0.5 * s_now @ s_now)
    V_prev = float(0.5 * s_prev @ s_prev)
    return SlidingDiagnostics(s=s_now, V=V_now,
                              Vdot_estimate=(V_now - V_prev) / dt,
                              inside_boundary_layer=np.abs(s_now) <= delta)
