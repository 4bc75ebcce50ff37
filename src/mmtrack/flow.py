"""The scalar law hdot = -mu Li(h) that every residual component of
``mmtrack.ftcnd`` obeys, and its exact flow.  The Li activation is odd,
on s = |h| Li(s) = lam / 2 (s^kappa + s^(1/kappa)) + zeta / 2 s;
``FlowMap.li`` gives it and its slope, ``FlowMap.bound`` the
finite-time bound on the time to 0.  T(s), the time in which the
law brings |h| = s to 0, is the integral of 1 / (mu Li) over [0, s];
its inverse Phi gives the path of a component, h(t) = sign(h0)
Phi(T(|h0|) - t).  Both are tabulated once per gain set, on first use,
as quintic Hermite interpolants of exact values, slopes and curvatures.
"""
from __future__ import annotations

import functools
import math

import numpy as np

# Node spacing of the tables, in log s and in logit(T / T(inf)), per
# unit of the slowest and the fastest of the exponents 1 - kappa and
# 1 / kappa - 1 at which they change (0.2 and 0.04 at kappa = 0.8): T
# and Phi then agree with quadrature to about 1e-12 relative.
_DX, _DS = 0.05, 0.2
# Nodes per table at most: kappa = 0.05 takes 16 802 of T, 0.99 5 766 of Phi.
_MAX_NODES = 100_000
_CHUNK = 4096   # cells per pass of the table builders: bounds temporaries


def _quintic_table(y, dy, d2y, lo, step):
    """(cells, scale, offset): per cell, the coefficients of t^0 .. t^5
    (t in [0, 1] across it) of the quintic Hermite interpolant of values,
    slopes and curvatures at the nodes lo + j step, between a linear cell
    below the nodes and one above; built _CHUNK cells at a time."""
    cells = np.zeros((y.size + 1, 6))
    for i in range(0, y.size - 1, _CHUNK):
        k = slice(i, i + _CHUNK + 1)
        yk, v, a = y[k], dy[k] * step, d2y[k] * step * step
        d = yk[1:] - yk[:-1] - v[:-1] - 0.5 * a[:-1]
        e, f = v[1:] - v[:-1] - a[:-1], a[1:] - a[:-1]
        cells[1:-1][i:i + _CHUNK] = np.column_stack([
            yk[:-1], v[:-1], 0.5 * a[:-1], 10 * d - 4 * e + 0.5 * f,
            -15 * d + 7 * e - f, 6 * d - 3 * e + 0.5 * f])
    v0, v1 = dy[0] * step, dy[-1] * step
    cells[0, :2], cells[-1, :2] = (y[0] - v0, v0), (y[-1], v1)
    return cells, 1.0 / step, 1.0 - lo / step


def _interpolate(table, arg):
    """A ``_quintic_table`` interpolant at ``arg``, of any shape."""
    cells, scale, offset = table
    u = arg * scale
    u += offset
    k = np.minimum(np.maximum(u.astype(np.intp), 0), len(cells) - 1)
    u -= k
    c = cells.take(k, axis=0)
    y = c[..., 5] * u
    for j in (4, 3, 2, 1):
        y += c[..., j]
        y *= u
    return y + c[..., 0]


class FlowMap:
    """The law hdot = -mu Li(h) of a gain set and its flow: ``li`` is Li
    and Li' on |h|, ``time_to_zero`` T(s), the integral of 1 / (mu Li)
    over [0, s], ``level`` its inverse Phi.  T is tabulated against
    x = log s from the form s / Li(s), which stays finite where
    s^(1/kappa) overflows, and Phi against sigma = log(T / (T_inf - T));
    in both, every term of Li being a power of s, it is linear beyond
    the nodes (to 1e-16 at the ends).  Gauss-Legendre sums give T and
    T_inf - T at the nodes, both monotone, and Newton's method the nodes
    of Phi.  Tables that overflow, or would pass _MAX_NODES nodes (checked
    before they are allocated), raise ValueError."""

    @np.errstate(all="ignore")      # an overflow is refused, not warned of
    def __init__(self, mu: float, lam: float, zeta: float, kappa: float):
        self.mu, self.lam, self.zeta, self.kappa = mu, lam, zeta, kappa
        refused = ValueError(f"the flow of mu={mu!r}, lam={lam!r}, zeta="
                             f"{zeta!r}, kappa={kappa!r} cannot be tabulated: "
                             f"it overflows or needs over {_MAX_NODES} nodes")
        q = 1.0 / kappa - 1.0
        gx, gw = np.polynomial.legendre.leggauss(12)
        gx = 0.5 + 0.5 * gx

        def dT(x):      # dT/dx at s = e^x, and its log-derivative
            a, b = np.exp((kappa - 1.0) * x), np.exp(q * x)
            den = 0.5 * lam * (a + b) + 0.5 * zeta
            return (1.0 / (mu * den),
                    0.5 * lam * ((1.0 - kappa) * a - q * b) / den)

        def integral(a, b):     # over cells [a, b], _CHUNK at a time
            out, d = np.empty(a.size), (b - a)[:, None]
            for i in range(0, a.size, _CHUNK):
                ak, dk = a[i:i + _CHUNK, None], d[i:i + _CHUNK]
                out[i:i + _CHUNK] = 0.5 * dk[:, 0] * (dT(ak + dk * gx)[0] @ gw)
            return out

        def sigma(xq, Tq, Rq):  # sigma and its two x-derivatives at xq
            g, g1 = dT(xq)
            u = 1.0 / Tq + 1.0 / Rq
            return (np.log(Tq / Rq), g * u,
                    g * (g1 * u + g / Rq ** 2 - g / Tq ** 2))

        def nodes(lo, hi, step):    # lo + j step up to hi, within the cap
            if not hi - lo <= _MAX_NODES * step:
                raise refused
            return lo + step * np.arange(math.ceil((hi - lo) / step) + 1)

        dx, ds = _DX / max(1.0 - kappa, q), _DS * min(1.0 - kappa, q)
        lo, hi = max(-740.0, -40.0 / (1.0 - kappa)), min(700.0, 40.0 / q)
        x = nodes(lo, hi, dx)
        cell = integral(x[:-1], x[1:])
        # Beyond x0 dT/dx ~ exp(r x): T(lo) and T_inf - T(x[-1]).
        lo_tail, hi_tail = (
            0.5 / abs(r) * (dT(x0 + np.log(gx) / r)[0] / gx @ gw)
            for x0, r in ((lo, 1.0 - kappa), (x[-1], -q)))
        T = np.append(0.0, np.cumsum(cell)) + lo_tail
        R = np.append(np.cumsum(cell[::-1])[::-1], 0.0) + hi_tail
        del cell                    # freed before the tables are built
        self.t_inf = float(T[-1] + R[-1])
        sig = sigma(x, T, R)
        self._t_table = _quintic_table(*sig, lo, dx)
        s = nodes(sig[0][0], sig[0][-1], ds)
        xs = np.interp(s, sig[0], x)
        for _ in range(5):
            k = np.clip(((xs - lo) / dx).astype(np.intp), 0, x.size - 2)
            sq, d1, d2 = sigma(xs, T[k] + integral(x[k], xs),
                               R[k + 1] + integral(xs, x[k + 1]))
            xs = xs - (sq - s) / d1
        self._phi_table = _quintic_table(xs, 1 / d1, -d2 / d1 ** 3, s[0], ds)
        # Phi's least argument: below it log Phi < -800, exp gives 0.
        e = s[0] - (xs[0] + 800.0) * d1[0]
        r = math.exp(e) if e < 709.0 else math.inf     # inf: refused
        self._floor = max(self.t_inf * r / (1.0 + r), 1e-300 * self.t_inf)
        self._ceil = self.t_inf * (1.0 - 2.0 ** -52)   # T(s) of a huge s
        if not all(np.isfinite(a).all() for a in (
                self._t_table[0], self._phi_table[0], self._floor)):
            raise refused

    def li(self, h):
        """(Li, Li') at |h|, elementwise, with |h| floored at 1e-300, where
        Li' is finite: Li(s) = lam / 2 (s^kappa + s^(1/kappa)) + zeta / 2 s."""
        lam, zeta, kappa = 0.5 * self.lam, 0.5 * self.zeta, self.kappa
        a = np.maximum(np.abs(h), 1e-300)       # Li, Li' share powers
        ak, ak1 = a ** kappa, a ** (1.0 / kappa)
        return (lam * (ak + ak1) + zeta * a,
                lam * (kappa * ak + ak1 / kappa) / a + zeta)

    def bound(self, h_max: float) -> float:
        """The finite-time bound 2 h_max^(1-kappa) / (lam mu (1-kappa)) on
        T(h_max), from Li(s) >= lam / 2 s^kappa."""
        e = 1.0 - self.kappa
        return 2.0 * h_max ** e / (self.lam * self.mu * e)

    def time_to_zero(self, s):
        """T(s) for s > 0, elementwise."""
        return self.t_inf / (1.0 + np.exp(-_interpolate(self._t_table,
                                                        np.log(s))))

    def level(self, tau):
        """Phi(tau), the |h| that reaches 0 after the time tau; 0 for
        tau <= 0."""
        t = np.minimum(np.maximum(tau, self._floor), self._ceil)
        t /= self.t_inf - t
        return np.exp(_interpolate(self._phi_table, np.log(t, out=t)))


@functools.lru_cache(maxsize=16)
def flow_map(mu: float, lam: float, zeta: float, kappa: float) -> FlowMap:
    """The ``FlowMap`` of a gain set, built on first use."""
    return FlowMap(mu, lam, zeta, kappa)
