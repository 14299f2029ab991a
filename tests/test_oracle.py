"""Characteristic-function quadrature cross-check of the fidelity formula."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

import gaussqt.criteria as criteria
import gaussqt.oracle as oracle
import gaussqt.resources as resources
import gaussqt.sampling as sampling
from gaussqt.errors import GridSizeError, InvalidInput, QuadratureWarning
from gaussqt.sweep import MAX_GRID_POINTS
from conftest import integrate_einsum, two_mode_squeezer

VACUUM = 0.5 * np.eye(4)


def tmsv(r):
    S = two_mode_squeezer(r)
    return S @ (0.5 * np.eye(4)) @ S.T


def states_under_test():
    return [
        VACUUM,
        tmsv(0.1),
        tmsv(0.5),
        tmsv(1.0),
        resources.tmst(resources.TmstSpec(0.35, 1.5, 0.75)),
        resources.tmst(resources.TmstSpec(0.48, 1.5, 0.75)),
        resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.25)),
        resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.75)),
    ]


# ------------------------------------------------------------- spec object


def test_quadrature_spec_validation():
    with pytest.raises(InvalidInput):
        oracle.QuadratureSpec(radius=0.0)
    with pytest.raises(InvalidInput):
        oracle.QuadratureSpec(radius=-2.0)
    with pytest.raises(InvalidInput):
        oracle.QuadratureSpec(points_per_axis=41)
    with pytest.raises(InvalidInput):
        oracle.QuadratureSpec(points_per_axis=100)  # midpoint needs odd counts
    with pytest.raises(InvalidInput):
        oracle.QuadratureSpec(rule="simpson")
    spec = oracle.QuadratureSpec(points_per_axis=100, rule="gauss-legendre")
    assert spec.points_per_axis == 100
    # the sweep's point budget: 1999^2 and 2000^2 fit, 2001^2 does not
    assert 2000 ** 2 == MAX_GRID_POINTS
    oracle.QuadratureSpec(points_per_axis=1999)
    oracle.QuadratureSpec(points_per_axis=2000, rule="gauss-legendre")
    for n, rule in ((2001, "midpoint"), (2002, "gauss-legendre"), (100_001, "midpoint")):
        with pytest.raises(GridSizeError, match="exceeds the 4000000 point budget"):
            oracle.QuadratureSpec(points_per_axis=n, rule=rule)
    assert oracle.DEFAULT_SPEC.radius == 6.0
    assert oracle.DEFAULT_SPEC.points_per_axis == 401


# ------------------------------------------------------------- CF values


def test_cf_at_origin_is_one():
    for V in states_under_test():
        assert oracle.cf_value(V, 0.0) == 1.0 + 0.0j


def test_cf_vacuum_gaussian():
    assert abs(oracle.cf_value(VACUUM, 1.0) - math.exp(-1.0)) < 1e-15
    for lam in (0.3, 1.0 + 0.5j, -0.7j, 2.0 - 1.0j):
        want = math.exp(-abs(lam) ** 2)
        assert abs(oracle.cf_value(VACUUM, lam) - want) < 1e-14


def test_cf_squeezed_decay_directions():
    # real displacement probes the p_a + p_b combination, imaginary the
    # x_a - x_b one; both shrink like e^{-2r} for the squeezed vacuum
    for r in (0.2, 0.8):
        V = tmsv(r)
        for t in (0.5, 1.0, 1.7):
            want = math.exp(-(t * t) * math.exp(-2 * r))
            assert abs(oracle.cf_value(V, t) - want) < 1e-13
            assert abs(oracle.cf_value(V, 1j * t) - want) < 1e-13


def test_cf_asymmetric_state_distinguishes_axes():
    V = resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.3))
    p_combo = V[1, 1] + V[3, 3] + 2 * V[1, 3]
    x_combo = V[0, 0] + V[2, 2] - 2 * V[0, 2]
    t = 1.3
    assert abs(oracle.cf_value(V, t) - math.exp(-t * t * p_combo)) < 1e-13
    assert abs(oracle.cf_value(V, 1j * t) - math.exp(-t * t * x_combo)) < 1e-13
    assert p_combo != x_combo


def test_cf_bounded_by_one(rng):
    Vs = sampling.random_physical_covmats(rng, 50)
    for V in Vs:
        for lam in (0.5, -1.2 + 0.4j, 2.5j, 3.0 - 3.0j):
            assert abs(oracle.cf_value(V, lam)) <= 1.0 + 1e-12


# ------------------------------------------------------------ quadrature


def test_quadrature_reproduces_closed_form_on_reference_states():
    for V in states_under_test():
        res = oracle.fidelity_by_quadrature(V)
        assert abs(res.value - criteria.fidelity(V)) < 1e-8
        assert res.est_error < 1e-6
        assert not res.warn


def test_quadrature_vacuum_half():
    res = oracle.fidelity_by_quadrature(VACUUM)
    assert abs(res.value - 0.5) < 1e-10


def test_quadrature_matches_closed_form_on_random_states(rng):
    Vs = sampling.random_physical_covmats(rng, 100)
    F = criteria.fidelity(Vs)
    for V, f in zip(Vs, F):
        res = oracle.fidelity_by_quadrature(V)
        assert abs(res.value - f) < 1e-5
        assert not res.warn


def test_quadrature_plateau_on_coarse_grids():
    # the integrand is an entire Gaussian: midpoint converges to machine
    # precision well before the default resolution
    V = resources.tmst(resources.TmstSpec(1.2, 2.5, 2.0))
    want = criteria.fidelity(V)
    for n in (51, 101, 201, 401):
        spec = oracle.QuadratureSpec(points_per_axis=n)
        assert abs(oracle.fidelity_by_quadrature(V, spec).value - want) < 1e-12


def test_quadrature_radius_robust():
    for V in states_under_test():
        a = oracle.fidelity_by_quadrature(V, oracle.QuadratureSpec(radius=6.0)).value
        b = oracle.fidelity_by_quadrature(V, oracle.QuadratureSpec(radius=8.0)).value
        assert abs(a - b) < 1e-10


def test_quadrature_gauss_legendre_agrees():
    spec = oracle.QuadratureSpec(rule="gauss-legendre", points_per_axis=200)
    for V in (tmsv(0.5), resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.3))):
        res = oracle.fidelity_by_quadrature(V, spec)
        assert abs(res.value - criteria.fidelity(V)) < 1e-10


def test_quadrature_warns_when_under_resolved():
    V = tmsv(0.5)
    spec = oracle.QuadratureSpec(radius=1.0)
    with pytest.warns(QuadratureWarning):
        res = oracle.fidelity_by_quadrature(V, spec)
    assert res.warn
    assert res.est_error > 1e-3
    # the estimate is dominated by the box-truncation tail 1 - erf(R)^2
    tail = 1.0 - math.erf(1.0) ** 2
    assert res.est_error >= tail - 1e-12
    assert abs(res.est_error - tail) < 1e-3


def test_quadrature_is_deterministic():
    V = resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.3))
    a = oracle.fidelity_by_quadrature(V)
    b = oracle.fidelity_by_quadrature(V)
    assert a.value == b.value
    assert a.est_error == b.est_error


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_integrate_is_bit_identical_to_the_einsum_form(rng):
    states = [
        *sampling.random_physical_covmats(rng, 4),
        *sampling.random_separable_covmats(rng, 3),
        *resources.tmst_covmat(np.array([0.3, 1.1, 2.0]), np.array([0.5, 1.7, 0.9]),
                               np.array([0.5, 0.6, 2.4])),
        *resources.bs_covmat(np.array([0.5, 1.5]), np.array([0.5, 2.0]),
                             np.array([0.3, 0.8])),
        VACUUM,
    ]
    grids = [("midpoint", n) for n in (51, 201, 401)]
    grids += [("gauss-legendre", n) for n in (100, 200)]
    for rule, n in grids:
        for radius in (3.0, 6.0, 9.0):
            for k, V in enumerate(states):
                got = oracle._integrate(V, radius, n, rule)
                want = integrate_einsum(V, radius, n, rule)
                assert bits(got) == bits(want), (rule, n, radius, k)
    # cf_value's displacement on the meshgrid is the broadcast of the 1-D
    # factors _integrate builds, so the two cannot drift apart
    x = np.linspace(-6.0, 6.0, 51)
    re, im = np.meshgrid(x, x, indexing="ij")
    p, m = math.sqrt(2.0) * x, math.sqrt(2.0) * -x
    factors = np.stack(np.broadcast_arrays(p[None, :], m[:, None], m[None, :],
                                           m[:, None]), axis=-1)
    assert np.array_equal(bits(oracle._displacement(re, im)), bits(factors))


def test_integrate_peak_memory_stays_below_five_grids():
    # the (n, n, 4) displacement stack and einsum peaked near 9 n^2 doubles
    n = 401
    V = resources.tmst_covmat(0.5, 1.5, 0.75)
    tracemalloc.start()
    try:
        oracle._integrate(V, 6.0, n, "midpoint")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n * 8


def test_quadrature_against_adaptive_integrator():
    # fully independent numerical route: scipy's adaptive quadrature over
    # the same integrand written from scratch
    for V in (tmsv(0.5), resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.3))):
        Vm = np.asarray(V)

        def integrand(im, re):
            u = math.sqrt(2.0) * np.array([im, -re, -im, -re])
            return math.exp(-(re * re + im * im) - 0.5 * float(u @ Vm @ u)) / math.pi

        want = criteria.fidelity(V)
        got, err = dblquad(integrand, -6.0, 6.0, -6.0, 6.0, epsabs=1e-10)
        assert err < 1e-8
        assert abs(got - want) < 1e-8
