import warnings

import numpy as np
import pytest

from conftest import inertia_matrices
from mmtrack import dynamics, nftsm
from mmtrack.model import builtin_planar_2link
from mmtrack.nftsm import NftsmParams


def make_params(**kw):
    kw.setdefault("r3", 0.9)
    return NftsmParams(**kw)


def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        make_params(alpha=0.0)
    with pytest.raises(ValueError, match="r2"):
        make_params(r2=2.5)
    with pytest.raises(ValueError, match="r1"):
        make_params(r1=1.5, r2=1.6)
    with pytest.raises(ValueError, match="r3"):
        make_params(r3=1.2)
    with pytest.raises(ValueError, match="r3"):
        make_params(r3=0.0)
    with pytest.raises(ValueError, match="c1"):
        make_params(c1=-1.0)
    with pytest.raises(ValueError, match="delta"):
        make_params(delta=0.0)


def test_r3_equal_one_warns():
    with pytest.warns(UserWarning, match="r3"):
        NftsmParams(r3=1.0)


def test_saturation_branches():
    # The boundary-layer clip, above, inside and below the layer and on
    # its edge, as sliding_surface returns it for e2 and applies it to e1;
    # delta itself is validated once, by NftsmParams.
    p = make_params()
    d = p.delta
    e = np.array([2 * d, 0.5 * d, -3 * d, 0.0, d])
    s, a1, a2, sat2 = nftsm.sliding_surface(np.zeros(5), e, p)
    np.testing.assert_array_equal(sat2, [1.0, 0.5, -1.0, 0.0, 1.0])
    np.testing.assert_array_equal(a1, 0.0)
    np.testing.assert_array_equal(a2, np.abs(e))
    np.testing.assert_allclose(s, p.beta * sat2 * a2 ** p.r2, rtol=1e-15)
    s = nftsm.sliding_surface(e, np.zeros(5), p)[0]
    np.testing.assert_allclose(
        s, e + p.alpha * np.array([1.0, 0.5, -1.0, 0.0, 1.0])
        * np.abs(e) ** p.r1, rtol=1e-15)


def test_surface_values_and_oddness():
    p = make_params()
    z = np.zeros(2)
    np.testing.assert_allclose(nftsm.sliding_surface(z, z, p)[0], 0.0)
    # e1 = 0, e2 = 1: s = beta * sat(1/delta) * 1^r2 = 1.
    s = nftsm.sliding_surface(np.array([0.0]), np.array([1.0]), p)[0]
    assert s[0] == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        e1 = rng.normal(size=3)
        e2 = rng.normal(size=3)
        sp = nftsm.sliding_surface(e1, e2, p)[0]
        sm = nftsm.sliding_surface(-e1, -e2, p)[0]
        np.testing.assert_allclose(sm, -sp, atol=1e-14)


def regulation_torque(model, q, qd, q_des, params):
    """The torque law regulating the arm at (q, qd) to rest at q_des."""
    terms = dynamics.configuration_terms(model, [q]).at(0, qd)
    return nftsm.control_torque(terms, q - q_des, qd, np.zeros(len(q)),
                                params)


def test_torque_finite_at_zero_velocity_error():
    # The classical terminal-SM singularity (division by e2 -> 0) must
    # not appear: the equivalent control multiplies by |e2|^(2-r2).
    model = builtin_planar_2link()
    tau, s = regulation_torque(model, np.array([0.3, 1.0]), np.zeros(2),
                               np.array([0.8, -0.4]), make_params())
    assert np.all(np.isfinite(tau))
    assert np.all(np.isfinite(s))


def test_torque_zero_error_is_pure_compensation():
    model = builtin_planar_2link()
    q = np.array([0.3, 1.0])
    tau, s = regulation_torque(model, q, np.zeros(2), q, make_params())
    # s = 0, u_sw = 0, u_eq = -M^-1 G, so tau = G exactly.
    terms = dynamics.configuration_terms(model, [q]).at(0, np.zeros(2))
    np.testing.assert_allclose(tau, terms.G, atol=1e-10)
    np.testing.assert_allclose(s, 0.0, atol=1e-15)
    assert 0.5 * s @ s == 0.0


def _settle_time(params, steps=7000, dt=1e-3, tol=1e-3):
    """Closed-loop regulation on the 2-link arm; time until the joint
    error enters and never leaves the tol ball."""
    model = builtin_planar_2link()
    q_des = np.array([0.8, -0.4])
    q = np.array([1.0, -0.6])
    qd = np.zeros(2)
    err = np.zeros(steps)
    for i in range(steps):
        terms = dynamics.configuration_terms(model, [q]).at(0, qd)
        tau, _ = nftsm.control_torque(terms, q - q_des, qd, np.zeros(2),
                                      params)
        qdd = dynamics.forward_dynamics(terms, tau)
        qd = qd + dt * qdd
        q = q + dt * qd
        err[i] = np.max(np.abs(q - q_des))
    assert err[-1] <= tol, f"did not settle: final error {err[-1]:.2e}"
    above = np.flatnonzero(err > tol)
    return (above[-1] + 1) * dt if above.size else 0.0


@pytest.mark.parametrize("r3", [0.9, 1.0])
def test_closed_loop_regulation(r3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        slow = NftsmParams(r3=r3, c1=20.0)
        fast = NftsmParams(r3=r3, c1=40.0)
    t_slow = _settle_time(slow)
    t_fast = _settle_time(fast)
    assert t_fast < t_slow


def test_lyapunov_rate_negative_outside_boundary_layer():
    model = builtin_planar_2link()
    params = make_params()
    q_des = np.array([0.8, -0.4])
    q = np.array([1.6, -1.2])
    qd = np.zeros(2)
    dt = 1e-3
    V_prev = None
    for _ in range(1500):
        terms = dynamics.configuration_terms(model, [q]).at(0, qd)
        tau, s = nftsm.control_torque(terms, q - q_des, qd, np.zeros(2),
                                      params)
        V = 0.5 * s @ s
        if V_prev is not None and not (np.abs(s) <= params.delta).any():
            assert (V - V_prev) / dt < 0.0
        V_prev = V
        qdd = dynamics.forward_dynamics(terms, tau)
        qd = qd + dt * qdd
        q = q + dt * qd


def _torque_with_inertia(M, bias, G):
    n = len(bias)
    rng = np.random.default_rng(33)
    q, qd, q_md, qd_md, qdd_md = rng.uniform(-0.2, 0.2, (5, n))
    terms = dynamics.DynamicsTerms(M=M, bias=bias, G=G, tau_b=np.zeros(n))
    return nftsm.control_torque(terms, q - q_md, qd - qd_md, qdd_md,
                                make_params())[0]


def test_torque_solves_well_conditioned_inertia():
    # tau = -M (x + F) with F = -M^-1 (bias + G) - qdd_md and x free of
    # M, so tau(M) = b - M (b - tau(I)) for b = bias + G.
    n = 7
    rng = np.random.default_rng(34)
    M = inertia_matrices(n)["well_conditioned"]
    bias, G = rng.normal(size=(2, n))
    b = bias + G
    tau_identity = _torque_with_inertia(np.eye(n), bias, G)
    np.testing.assert_allclose(_torque_with_inertia(M, bias, G),
                               b - M @ (b - tau_identity), rtol=0, atol=1e-12)
