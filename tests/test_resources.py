"""Resource-state constructors and analytic threshold formulas."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import gaussqt.core as core
import gaussqt.criteria as criteria
import gaussqt.resources as resources
from gaussqt.errors import InvalidInput
from conftest import (
    beam_splitter_factors,
    beam_splitter_product,
    det_block_ppt_nu,
    m_entries,
    squeezed_thermal_blocks,
    two_mode_squeezer,
)

# Pinned by independent evaluation of the closed forms.
R_ENT_SYMMETRIC = 0.34657359027997264  # k1 = k2 = 1, equals ln(2)/2
R_ENT_ASYM = 0.32745015023725849  # k1 = 1.5, k2 = 0.75
R_QT_ASYM = 0.40546510810816438  # ln(2.25)/2
BS_A_DIAG = (0.34196986029286064, 0.92957045711476138)  # r=k=T=1/2
BS_C_DIAG = (0.15803013970713944, -0.42957045711476133)


# ----------------------------------------------------------- spec objects


def test_spec_validation():
    with pytest.raises(InvalidInput):
        resources.TmstSpec(-0.1, 1.0, 1.0)
    with pytest.raises(InvalidInput):
        resources.TmstSpec(0.5, 0.3, 1.0)
    with pytest.raises(InvalidInput):
        resources.TmstSpec(0.5, 1.0, math.nan)
    with pytest.raises(InvalidInput):
        resources.BsSpec(0.5, 0.4, 0.5)
    with pytest.raises(InvalidInput):
        resources.BsSpec(0.5, 1.0, 0.0)
    with pytest.raises(InvalidInput):
        resources.BsSpec(0.5, 1.0, 1.0)
    with pytest.raises(InvalidInput):
        resources.BsSpec(-0.2, 1.0, 0.5)


@pytest.mark.parametrize("T", [0, 1, math.nan, math.inf, "a"])
def test_spec_and_constructor_share_the_transmittance_check(T):
    for build in (resources.BsSpec, resources.bs_covmat):
        with pytest.raises(InvalidInput) as exc:
            build(0.5, 1.0, T)
        assert str(exc.value) == "transmittance T must lie strictly in (0, 1)"


def test_non_numeric_parameters_are_invalid_input():
    for build in (resources.TmstSpec, resources.tmst_covmat):
        with pytest.raises(InvalidInput, match="squeeze parameter r"):
            build("a", 1.0, 1.0)
        with pytest.raises(InvalidInput, match="k1 must be"):
            build(0.5, "a", 1.0)
        with pytest.raises(InvalidInput, match="k2 must be"):
            build(0.5, 1.0, object())
    for build in (resources.BsSpec, resources.bs_covmat):
        with pytest.raises(InvalidInput, match="k must be"):
            build(0.5, [1.0, "a"], 0.5)


def test_spec_wrappers_build_the_constructors_matrices():
    assert np.array_equal(resources.tmst(resources.TmstSpec(0.48, 1.5, 0.75)),
                          resources.tmst_covmat(0.48, 1.5, 0.75))
    assert np.array_equal(resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.3)),
                          resources.bs_covmat(0.5, 0.5, 0.3))


# ------------------------------------------------------ squeezed thermal


def test_tmst_no_squeezing_is_thermal_product():
    V = resources.tmst_covmat(0.0, 1.5, 0.75)
    assert np.array_equal(V, np.diag([1.5, 1.5, 0.75, 0.75]))


def test_tmst_vacuum_input_reproduces_pure_squeezed():
    for r in (0.1, 0.5, 1.0):
        S = two_mode_squeezer(r)
        want = S @ (0.5 * np.eye(4)) @ S.T
        got = resources.tmst_covmat(r, 0.5, 0.5)
        assert np.max(np.abs(got - want)) < 1e-12


def test_tmst_matches_symplectic_product(rng):
    for _ in range(200):
        r = rng.uniform(0.0, 1.5)
        k1, k2 = rng.uniform(0.5, 3.0, size=2)
        S = two_mode_squeezer(r)
        want = S @ np.diag([k1, k1, k2, k2]) @ S.T
        got = resources.tmst_covmat(r, k1, k2)
        assert np.max(np.abs(got - want)) < 1e-11


def test_tmst_block_structure():
    V = resources.tmst_covmat(0.48, 1.5, 0.75)
    A, B, C = core.blocks(V)
    assert np.array_equal(A, A[0, 0] * np.eye(2))
    assert np.array_equal(B, B[0, 0] * np.eye(2))
    assert C[0, 1] == 0.0 and C[1, 0] == 0.0
    assert C[1, 1] == -C[0, 0]
    mu2 = math.cosh(0.48) ** 2
    nu2 = math.sinh(0.48) ** 2
    assert abs(A[0, 0] - (mu2 * 1.5 + nu2 * 0.75)) < 1e-14
    assert abs(B[0, 0] - (nu2 * 1.5 + mu2 * 0.75)) < 1e-14
    assert abs(C[0, 0] - 0.5 * math.sinh(0.96) * 2.25) < 1e-13


def test_tmst_epr_identity(rng):
    # (eta + zeta) - 2 c = e^{-2r}(k1 + k2), the squeezed EPR variance
    for _ in range(1000):
        r = rng.uniform(0.0, 2.0)
        k1, k2 = rng.uniform(0.5, 4.0, size=2)
        V = resources.tmst_covmat(r, k1, k2)
        lhs = V[0, 0] + V[2, 2] - 2.0 * V[0, 2]
        assert abs(lhs - math.exp(-2 * r) * (k1 + k2)) < 1e-11 * (k1 + k2)


def test_tmst_spectrum_is_squeezing_invariant(rng):
    for _ in range(50):
        k1, k2 = sorted(rng.uniform(0.5, 3.0, size=2))
        for r in (0.0, 0.5, 1.3):
            nm, npl = core.symplectic_eigenvalues(
                resources.tmst_covmat(r, k1, k2)
            )
            assert abs(nm - k1) < 1e-9
            assert abs(npl - k2) < 1e-9


def test_tmst_already_in_standard_form(rng):
    for _ in range(50):
        r = rng.uniform(0.0, 1.5)
        k1, k2 = rng.uniform(0.5, 3.0, size=2)
        p, S = core.to_canonical(resources.tmst_covmat(r, k1, k2))
        assert np.array_equal(S, np.eye(4))
        assert p.c1 == p.c2


def test_tmst_covmat_broadcasts():
    r = np.array([0.0, 0.5])
    out = resources.tmst_covmat(r, 1.0, 1.0)
    assert out.shape == (2, 4, 4)
    assert np.array_equal(out[0], np.eye(4))


# ------------------------------------------------- squeezed thermal, 1 mode


def test_single_mode_sth_values():
    assert np.array_equal(resources.single_mode_sth(0.0, 0.5), 0.5 * np.eye(2))
    got = resources.single_mode_sth(0.5, 0.5)
    assert abs(got[0, 0] - 0.18393972058572117) < 1e-15
    assert abs(got[1, 1] - 1.3591409142295225) < 1e-15
    assert got[0, 1] == 0.0


def test_single_mode_sth_determinant_is_purity(rng):
    for _ in range(100):
        r = rng.uniform(0.0, 2.0)
        k = rng.uniform(0.5, 4.0)
        sigma = resources.single_mode_sth(r, k)
        assert abs(np.linalg.det(sigma) - k * k) < 1e-12 * k * k


def test_single_mode_sth_validation():
    with pytest.raises(InvalidInput):
        resources.single_mode_sth(0.5, 0.2)
    with pytest.raises(InvalidInput):
        resources.single_mode_sth(-0.5, 1.0)


# ------------------------------------------------------- beam splitter


def test_bs_identity_input_passes_vacuum_through():
    V = resources.bs_covmat(0.0, 0.5, 0.5)
    assert np.max(np.abs(V - 0.5 * np.eye(4))) < 1e-15


def test_bs_frozen_blocks():
    V = resources.bs_covmat(0.5, 0.5, 0.5)
    A, B, C = core.blocks(V)
    assert abs(A[0, 0] - BS_A_DIAG[0]) < 1e-15
    assert abs(A[1, 1] - BS_A_DIAG[1]) < 1e-15
    assert abs(C[0, 0] - BS_C_DIAG[0]) < 1e-15
    assert abs(C[1, 1] - BS_C_DIAG[1]) < 1e-15
    assert np.allclose(A, B)  # balanced splitter
    assert A[0, 1] == 0.0 and C[0, 1] == 0.0


def test_bs_matches_block_formulas(rng):
    for _ in range(200):
        r = rng.uniform(0.0, 1.2)
        k = rng.uniform(0.5, 2.5)
        T = rng.uniform(0.05, 0.95)
        V = resources.bs_covmat(r, k, T)
        A, B, C = core.blocks(V)
        Aw, Bw, Cw = squeezed_thermal_blocks(r, k, T)
        assert np.max(np.abs(A - Aw)) < 1e-12
        assert np.max(np.abs(B - Bw)) < 1e-12
        assert np.max(np.abs(C - Cw)) < 1e-12


def test_bs_matches_the_explicit_product(rng):
    # r up to 3, and T within 1e-3 to 1e-12 of either end: each entry lies within
    # 4e-12 of the size of the product's terms, |S| V_in |S|^T, and every entry
    # outside the diagonal, V_02 and V_13 (and their mirrors) is 0 in both
    n = 2000
    r = rng.uniform(0.0, 3.0, 3 * n)
    k = np.where(rng.random(3 * n) < 0.1, 0.5, rng.uniform(0.5, 2.5, 3 * n))
    edge = 10.0 ** -rng.uniform(3.0, 12.0, n)
    T = np.concatenate([rng.uniform(1e-3, 1.0 - 1e-3, n), edge, 1.0 - edge])
    V, W = resources.bs_covmat(r, k, T), beam_splitter_product(r, k, T)
    S, Vin = beam_splitter_factors(r, k, T)
    terms = np.abs(S) @ Vin @ np.swapaxes(np.abs(S), -1, -2)
    assert np.all(np.abs(V - W) <= 4e-12 * terms)
    band = np.eye(4, dtype=bool) | np.eye(4, k=2, dtype=bool) | np.eye(4, k=-2, dtype=bool)
    assert np.all(V[:, ~band] == 0.0) and np.all(W[:, ~band] == 0.0)


def test_bs_output_is_exactly_symmetric(rng):
    for _ in range(50):
        V = resources.bs_covmat(rng.uniform(0, 1.2), rng.uniform(0.5, 2.5),
                                rng.uniform(0.05, 0.95))
        assert np.array_equal(V, V.T)
        assert core.validate(V).physical


def test_bs_transmission_symmetry_swaps_modes():
    V1 = resources.bs_covmat(0.5, 0.5, 0.25)
    V2 = resources.bs_covmat(0.5, 0.5, 0.75)
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    assert np.max(np.abs(swap @ V1 @ swap - V2)) < 1e-13


def test_bs_purity_preserved_for_pure_input(rng):
    # k = 1/2 input stays pure through the splitter: det V = 1/16
    for _ in range(50):
        r = rng.uniform(0.0, 1.2)
        T = rng.uniform(0.05, 0.95)
        V = resources.bs_covmat(r, 0.5, T)
        assert abs(np.linalg.det(V) - 0.0625) < 1e-13


def test_bs_entangled_iff_nonclassical_input():
    # boundary cases r = ln(2k)/2 are excluded; spec invariant holds off it
    for k in (0.5, 0.8, 1.2, 1.9):
        r_c = resources.nonclassicality_threshold(k)
        for dr in (-0.05, -0.01, 0.01, 0.05):
            r = r_c + dr
            if r < 0:
                continue
            for T in (0.2, 0.5, 0.8):
                V = resources.bs_covmat(r, k, T)
                ent = core.simon_inseparable(V).ppt_entangled
                assert ent == (dr > 0), (k, r, T)


def test_bs_covmat_broadcasts():
    out = resources.bs_covmat(np.array([0.0, 0.5]), 0.5, 0.5)
    assert out.shape == (2, 4, 4)


def test_balanced_splitter_ties_criteria_together(rng):
    # at T = 1/2 the output satisfies det M = 2 Delta, so EPR correlation,
    # teleportation, and entanglement switch on together for every k
    for _ in range(100):
        r = rng.uniform(0.0, 1.2)
        k = rng.uniform(0.5, 2.5)
        V = resources.bs_covmat(r, k, 0.5)
        delta = criteria.epr_uncertainty(V)
        detm = float(np.linalg.det(criteria.m_matrix(V)))
        assert abs(detm - 2.0 * delta) < 1e-12
        assert abs(delta - (2.0 * k * math.exp(-2 * r) + 1.0)) < 1e-12


# ------------------------------------------------------------ thresholds


def test_threshold_frozen_values():
    assert abs(resources.r_ent_threshold(1.0, 1.0) - R_ENT_SYMMETRIC) < 1e-15
    assert abs(resources.r_ent_threshold(1.5, 0.75) - R_ENT_ASYM) < 1e-15
    assert abs(resources.r_qt_threshold(1.5, 0.75) - R_QT_ASYM) < 1e-15
    assert resources.r_ent_threshold(0.5, 0.5) == 0.0
    assert resources.r_qt_threshold(0.5, 0.5) == 0.0


def test_qt_threshold_closed_form(rng):
    # half the log of the summed thermal occupations
    for _ in range(100):
        k1, k2 = rng.uniform(0.5, 4.0, size=2)
        assert abs(
            resources.r_qt_threshold(k1, k2) - 0.5 * math.log(k1 + k2)
        ) < 1e-14


def test_entanglement_threshold_against_bisection(rng):
    for _ in range(20):
        k1, k2 = rng.uniform(0.51, 3.0, size=2)

        def gap(r):
            V = resources.tmst_covmat(r, k1, k2)
            return float(det_block_ppt_nu(V)) - 0.5

        r_formula = resources.r_ent_threshold(k1, k2)
        r_bisect = brentq(gap, 0.0, 3.0, xtol=1e-12)
        assert abs(r_formula - r_bisect) < 1e-9


def test_teleportation_threshold_against_bisection(rng):
    for _ in range(20):
        k1, k2 = rng.uniform(0.51, 3.0, size=2)

        def gap(r):
            V = resources.tmst_covmat(r, k1, k2)
            return float(np.linalg.det(m_entries(V))) - 4.0

        r_formula = resources.r_qt_threshold(k1, k2)
        r_bisect = brentq(gap, 0.0, 3.0, xtol=1e-12)
        assert abs(r_formula - r_bisect) < 1e-9


def test_threshold_onset_flips_verdicts():
    for k1, k2 in ((1.0, 1.0), (1.5, 0.75), (2.2, 0.9)):
        r_e = resources.r_ent_threshold(k1, k2)
        r_q = resources.r_qt_threshold(k1, k2)
        below = resources.tmst_covmat(r_e - 1e-4, k1, k2)
        above = resources.tmst_covmat(r_e + 1e-4, k1, k2)
        assert not core.simon_inseparable(below).ppt_entangled
        assert core.simon_inseparable(above).ppt_entangled
        below_q = resources.tmst_covmat(r_q - 1e-4, k1, k2)
        above_q = resources.tmst_covmat(r_q + 1e-4, k1, k2)
        assert np.linalg.det(criteria.m_matrix(below_q)) >= 4.0
        assert np.linalg.det(criteria.m_matrix(above_q)) < 4.0


def test_teleportation_needs_more_squeezing_than_entanglement():
    ks = np.linspace(0.5, 3.0, 25)
    for k1 in ks:
        for k2 in ks:
            diff = resources.r_qt_threshold(k1, k2) - resources.r_ent_threshold(k1, k2)
            assert diff >= -1e-12
            if abs(k1 - k2) < 1e-12:
                assert abs(diff) < 1e-9
            elif abs(k1 - k2) > 0.05:
                assert diff > 1e-6


def test_nonclassicality_threshold_values():
    assert resources.nonclassicality_threshold(0.5) == 0.0
    assert abs(resources.nonclassicality_threshold(1.0) - 0.5 * math.log(2.0)) < 1e-15
    ks = np.linspace(0.5, 3.0, 11)
    for k in ks:
        assert abs(
            resources.nonclassicality_threshold(k) - resources.r_ent_threshold(k, k)
        ) < 1e-12


def test_threshold_validation():
    with pytest.raises(InvalidInput):
        resources.r_ent_threshold(0.3, 1.0)
    with pytest.raises(InvalidInput):
        resources.r_qt_threshold(1.0, 0.1)
    with pytest.raises(InvalidInput):
        resources.nonclassicality_threshold(0.0)


def test_thresholds_broadcast():
    k = np.linspace(0.5, 2.0, 7)
    out = resources.r_ent_threshold(k, 1.0)
    assert out.shape == (7,)
    assert isinstance(resources.r_ent_threshold(1.0, 1.0), float)
