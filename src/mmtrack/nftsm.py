"""Non-singular fast terminal sliding-mode torque controller.

The surface uses fractional exponents on both the position and velocity
errors, which gives finite-time convergence without ever dividing by a
vanishing error (the equivalent control multiplies by |e2|^(2-r2), so
the classical terminal-SM singularity never appears).  A boundary-layer
saturation replaces the sign function throughout to suppress
chattering; :func:`sliding_surface`, the surface's one form, also
returns the parts that :func:`control_torque` reuses.

The law tau = -M (u_eq + u_sw) takes the arm's dynamics terms as the
loop holds them.  Its equivalent part contains -M^-1 (C qdot + G), and
M M^-1 (C qdot + G) = C qdot + G, so M is never factored here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import DynamicsTerms


@dataclass(frozen=True)
class NftsmParams:
    """Surface gains, exponents, reaching gains, boundary layer.  The
    reaching law is fast-terminal for r3 < 1; r3 = 1 is accepted as its
    linear limit, which the command line notes."""

    alpha: float = 1.0
    beta: float = 1.0
    r1: float = 1.8
    r2: float = 1.6
    r3: float = 1.0
    c1: float = 20.0
    c2: float = 0.6
    delta: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be positive and finite")
        if not 1.0 < self.r2 < 2.0:
            raise ValueError("r2 must lie in (1, 2)")
        if not self.r1 > self.r2:
            raise ValueError("r1 must exceed r2")
        if not self.r3 <= 1.0:
            raise ValueError("r3 must lie in (0, 1]")


def _sat(x, delta: float):
    """Boundary-layer saturation: x/delta clipped to [-1, 1]."""
    return np.minimum(np.maximum(x / delta, -1.0), 1.0)


def sliding_surface(e1, e2, params: NftsmParams):
    """s = e1 + alpha sat(e1/d)|e1|^r1 + beta sat(e2/d)|e2|^r2, elementwise,
    for the joint position and velocity errors e1 and e2, with the |e1|,
    |e2| and sat(e2/d) it is built from."""
    e = np.array((e1, e2), float)
    a, sat = np.abs(e), _sat(e, params.delta)
    return (e1 + params.alpha * sat[0] * a[0] ** params.r1
            + params.beta * sat[1] * a[1] ** params.r2), a[0], a[1], sat[1]


def control_torque(terms: DynamicsTerms, e1, e2, qdd_md,
                   params: NftsmParams):
    """Torque command tau = -M (u_eq + u_sw) and the surface value s, from
    the arm's dynamics terms, its joint errors e1, e2 and the desired
    joint acceleration ``qdd_md``.

    The equivalent part cancels the drift of the error dynamics and the
    surface's own flow; the switching part is the fast-terminal reaching
    law with saturated sign.  As u_eq = u_frac - M^-1 (C qdot + G) - qdd_md,
    tau = C qdot + G - M (u_frac - qdd_md + u_sw).  The caller adds the
    base-acceleration feed-forward on top.
    """
    s, a1, a2, sat2 = sliding_surface(e1, e2, params)
    u = (a2 ** (2.0 - params.r2) * sat2 / (params.beta * params.r2)
         * (1.0 + params.alpha * params.r1 * a1 ** (params.r1 - 1.0))
         - qdd_md
         + params.c1 * np.abs(s) ** params.r3 * _sat(s, params.delta)
         + params.c2 * s)
    return terms.bias + terms.G - terms.M.dot(u), s
