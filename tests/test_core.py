"""Validity, symplectic spectra, separability verdicts, standard form, JSON, row writer."""

import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqt.core as core
import gaussqt.criteria as criteria
import gaussqt.resources as resources
import gaussqt.sampling as sampling
import gaussqt.sweep as sweep
from gaussqt.errors import InvalidInput, PreconditionFailed
from conftest import (det_block_nu, exact_ppt_entangled, exact_pt_invariants, reference_rows,
                      williamson_nu, two_mode_squeezer)

VACUUM = 0.5 * np.eye(4)

# Pinned by an independent high-precision evaluation of the determinant
# closed form at exact inputs.
TMSV_HALF_SIMON_LHS = 6.5243913821672628
TMSV_HALF_PPT_NU = 0.183939720585721
SYM_SEPARABLE_LHS = 0.28389999999999938  # eta=zeta=0.8, c1=c2=0.25


def tmsv(r):
    S = two_mode_squeezer(r)
    return S @ VACUUM @ S.T


# ---------------------------------------------------------------- validity


def test_vacuum_is_physical():
    rep = core.validate(VACUUM)
    assert rep.symmetric
    assert rep.physical
    assert abs(rep.nu_minus - 0.5) < 1e-14
    assert abs(rep.nu_plus - 0.5) < 1e-14


def test_subvacuum_is_unphysical():
    rep = core.validate(0.4 * np.eye(4))
    assert rep.symmetric
    assert not rep.physical
    assert abs(rep.nu_minus - 0.4) < 1e-14


def test_nu_minus_never_exceeds_nu_plus():
    # det L / nu_plus rounds on its own, and would pass nu_plus by an ulp on 344 of these
    # c I (0.4 I among them) and on 24,471 of these TMSTs without the cap
    c = np.linspace(0.3, 50.0, 2000)
    stacks = {"c I": c[:, None, None] * np.eye(4),
              "TMST r <= 2": resources.tmst_covmat(np.linspace(0.0, 2.0, 100_000), 1.0, 1.0)}
    for name, V in stacks.items():
        nm, npl = core.symplectic_eigenvalues(V)
        assert np.all(nm <= npl), name
    # c I is its own partial transpose
    assert np.all(core.ppt_nu_minus(stacks["c I"]) <= core.symplectic_eigenvalues(stacks["c I"])[1])
    rep = core.validate(0.4 * np.eye(4))
    assert rep.nu_minus == rep.nu_plus == 0.4


def test_asymmetric_is_unphysical():
    V = 0.5 * np.eye(4)
    V[0, 1] = 1e-6
    rep = core.validate(V)
    assert not rep.symmetric
    assert not rep.physical


def test_indefinite_is_unphysical():
    # Williamson's theorem gives a spectrum only to a positive definite matrix; the
    # |eigenvalues| of i Omega V read (1, 1) on both of these, above the vacuum floor
    # (det M is 0 on the second, so F would divide by zero)
    for V in (-np.eye(4), [[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, -1]]):
        rep = core.validate(V)
        assert math.isnan(rep.nu_minus) and math.isnan(rep.nu_plus) and not rep.physical
        assert math.isnan(core.ppt_nu_minus(V))


def test_validate_rejects_bad_shapes_and_values():
    with pytest.raises(InvalidInput):
        core.validate(np.eye(3))
    with pytest.raises(InvalidInput):
        core.validate(np.diag([1e308, 1e308, 1.0, 1.0]))
    with pytest.raises(InvalidInput):
        core.validate(np.full((4, 4), np.nan))
    with pytest.raises(InvalidInput):
        core.validate(np.full((4, 4), np.inf))


def test_require_physical_messages():
    with pytest.raises(PreconditionFailed):
        core.require_physical(0.4 * np.eye(4))
    V = 0.5 * np.eye(4)
    V[2, 3] = 0.1
    with pytest.raises(PreconditionFailed):
        core.require_physical(V)
    out = core.require_physical(VACUUM)
    assert out.shape == (4, 4)


def test_require_physical_stacked(rng):
    Vs = sampling.random_physical_covmats(rng, 64)
    out = core.require_physical(Vs)
    assert out.shape == (64, 4, 4)
    Vs2 = Vs.copy()
    Vs2[17] = 0.3 * np.eye(4)
    with pytest.raises(PreconditionFailed):
        core.require_physical(Vs2)


def test_pure_squeezed_state_on_the_boundary():
    # the factor keeps nu at 1/2 to machine precision even though the
    # determinant closed form loses ~7e-9 here
    for r in (0.3, 0.5, 1.0, 1.5):
        nm, npl = core.symplectic_eigenvalues(tmsv(r))
        assert abs(nm - 0.5) < 1e-12
        assert abs(npl - 0.5) < 1e-12
        assert core.validate(tmsv(r)).physical


def test_symplectic_eigenvalues_frozen_thermal():
    V = resources.tmst_covmat(0.48, 1.5, 0.75)
    nm, npl = core.symplectic_eigenvalues(V)
    assert abs(nm - 0.75) < 1e-10
    assert abs(npl - 1.5) < 1e-10


def test_symplectic_eigenvalues_match_independent_routes(rng):
    Vs = sampling.random_physical_covmats(rng, 200)
    nm, npl = core.symplectic_eigenvalues(Vs)
    lo, hi = det_block_nu(Vs)
    # closed form suffers cancellation near purity; 1e-6 absorbs it
    assert np.max(np.abs(nm - lo)) < 1e-6
    assert np.max(np.abs(npl - hi)) < 1e-6
    for i in range(0, 200, 25):
        wlo, whi = williamson_nu(Vs[i])
        assert abs(nm[i] - wlo) < 1e-9
        assert abs(npl[i] - whi) < 1e-9


def test_symplectic_invariance_of_spectrum(rng):
    Vs = sampling.random_physical_covmats(rng, 50)
    Sa = sampling.random_local_symplectics(rng, 50)
    Sb = sampling.random_local_symplectics(rng, 50)
    for V, a, b in zip(Vs, Sa, Sb):
        S = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        nm0, np0 = core.symplectic_eigenvalues(V)
        nm1, np1 = core.symplectic_eigenvalues(0.5 * ((S @ V @ S.T) + (S @ V @ S.T).T))
        assert abs(nm0 - nm1) < 1e-9
        assert abs(np0 - np1) < 1e-9


# ------------------------------------------------------- partial transpose


def test_partial_transpose_vacuum_fixed_point():
    assert np.array_equal(core.partial_transpose(VACUUM), VACUUM)


def test_partial_transpose_flips_momentum_correlations():
    V = tmsv(0.5)
    W = core.partial_transpose(V)
    assert np.allclose(W[:2, :2], V[:2, :2])
    assert W[1, 3] == -V[1, 3]
    assert W[0, 2] == V[0, 2]


def test_partial_transpose_involution_bulk(rng):
    Vs = sampling.random_physical_covmats(rng, 10_000)
    for i in range(0, 10_000, 997):
        W = core.partial_transpose(core.partial_transpose(Vs[i]))
        assert np.array_equal(W, Vs[i])  # sign flips only, exact


def test_partial_transpose_determinant_bookkeeping(rng):
    V = sampling.random_physical_covmats(rng, 1)[0]
    W = core.partial_transpose(V)
    A, B, C = core.blocks(V)
    Aw, Bw, Cw = core.blocks(W)
    assert np.isclose(np.linalg.det(Aw), np.linalg.det(A))
    assert np.isclose(np.linalg.det(Bw), np.linalg.det(B))
    assert np.isclose(np.linalg.det(Cw), -np.linalg.det(C))
    assert np.isclose(np.linalg.det(W), np.linalg.det(V))


def test_partial_transpose_requires_symmetry():
    V = VACUUM.copy()
    V[0, 3] = 0.2
    with pytest.raises(InvalidInput):
        core.partial_transpose(V)


# ---------------------------------------------------------- separability


def test_simon_vacuum_sits_exactly_on_the_boundary():
    v = core.simon_inseparable(VACUUM)
    assert v.simon_lhs == 1.0
    assert not v.simon_entangled
    assert not v.ppt_entangled
    assert abs(v.ppt_nu_minus - 0.5) < 1e-14


def test_simon_tmsv_frozen_values():
    v = core.simon_inseparable(tmsv(0.5))
    assert abs(v.simon_lhs - TMSV_HALF_SIMON_LHS) < 1e-12
    assert abs(v.ppt_nu_minus - TMSV_HALF_PPT_NU) < 1e-12
    assert v.simon_entangled
    assert v.ppt_entangled


def test_simon_symmetric_separable_frozen():
    V = core.from_canonical(core.CanonicalParams(0.8, 0.8, 0.25, 0.25))
    v = core.simon_inseparable(V)
    assert abs(v.simon_lhs - SYM_SEPARABLE_LHS) < 1e-13
    assert not v.simon_entangled
    assert not v.ppt_entangled
    # symmetric states factorize: lhs - 1 = -(4(eta+c)^2-1)(4(eta-c)^2-1)
    factor = (4 * 1.05**2 - 1.0) * (4 * 0.55**2 - 1.0)
    assert abs((v.simon_lhs - 1.0) + factor) < 1e-12


def test_symmetric_reduction_matches_factor_sign(rng):
    # for eta=zeta, c1=c2 the determinant test reduces to the sign of
    # (4(eta+c)^2-1)(4(eta-c)^2-1); entangled iff eta - c < 1/2
    for _ in range(200):
        eta = rng.uniform(0.55, 3.0)
        c = rng.uniform(0.0, math.sqrt(eta * eta - 0.25) * 0.999)
        V = core.from_canonical(core.CanonicalParams(eta, eta, c, c))
        v = core.simon_inseparable(V)
        if abs(eta - c - 0.5) < 1e-9:
            continue
        assert v.simon_entangled == (eta - c < 0.5)
        assert v.ppt_entangled == v.simon_entangled


def test_simon_requires_physical_input():
    with pytest.raises(PreconditionFailed):
        core.simon_inseparable(0.4 * np.eye(4))


def test_simon_and_ppt_agree_off_boundary(rng):
    Vs = sampling.random_physical_covmats(rng, 5000)
    lhs = core.simon_lhs(Vs)
    nm = core.ppt_nu_minus(Vs)
    simon = lhs > 1.0
    ppt = nm < 0.5 - 1e-10
    off = (np.abs(lhs - 1.0) > 1e-10) & (np.abs(nm - 0.5) > 1e-10)
    assert np.array_equal(simon[off], ppt[off])
    assert np.sum(off) > 4900  # the boundary band is thin


def test_separable_samples_read_separable(rng):
    Vs = sampling.random_separable_covmats(rng, 2000)
    nm = core.ppt_nu_minus(Vs)
    lhs = core.simon_lhs(Vs)
    assert np.all(nm >= 0.5 - 1e-9)
    assert np.all(lhs <= 1.0 + 1e-9)


def test_simon_lhs_keeps_its_digits_on_strongly_squeezed_tmsts():
    # det V = k1^2 k2^2 from entries of order k e^{2r}, up to 2.4e10 here; a det V
    # whose error is eps |V|^4 (a float Laplace expansion's) moves simon_lhs by up to
    # 1.3e5 times its value, and flips 93 verdicts.  simon_lhs is the exact value on
    # the stored matrix, correctly rounded; the stored entries' own rounding puts that
    # up to 5.8e-11 off the closed form 4 (eta^2 + zeta^2 + 2 c^2) - 16 k1^2 k2^2
    r, k1, k2 = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, 10.0, 51), [0.5, 1.0, 3.0, 10.0, 30.0, 100.0],
        [0.5, 2.0, 7.0, 30.0, 100.0], indexing="ij"))
    V = resources.tmst_covmat(r, k1, k2)
    lhs = core.simon_lhs(V)
    d, det = exact_pt_invariants(V)
    for i, exact in enumerate(4 * d - 16 * det):
        assert lhs[i] == float(exact), (r[i], k1[i], k2[i])
    eta, zeta, c = V[:, 0, 0], V[:, 2, 2], V[:, 0, 2]
    closed = 4.0 * (eta**2 + zeta**2 + 2.0 * c**2) - 16.0 * (k1 * k2) ** 2
    assert np.all(np.abs(lhs - closed) <= 2e-10 * np.abs(closed))
    # e.g. r = 7.6, k1 = k2 = 100 reads physical, so both verdicts are printed; past r = 8,
    # rounding stores some of these matrices not positive definite, and they have no
    # spectrum, no PPT verdict and the label Unphysical
    off = np.abs(r - resources.r_ent_threshold(k1, k2)) > 1e-3
    nm = core.ppt_nu_minus(V)
    pd = ~np.isnan(core.symplectic_eigenvalues(V)[1])
    assert np.array_equal((lhs > 1.0)[off & pd], (nm < PPT_CUT)[off & pd])
    assert np.array_equal(np.isnan(nm), ~pd) and np.all(r[~pd] > 8.0) and np.mean(pd) > 0.85
    assert np.all(criteria.classify(V)[1][~pd] == "Unphysical")
    assert core.simon_inseparable(resources.tmst_covmat(7.6, 100.0, 100.0)).simon_entangled


def test_simon_lhs_is_the_determinant_formula_on_any_matrix(rng):
    # exact on any matrix: rows whose A is not positive definite, and a last row whose
    # entries span 370 decades (a00 = 1e-300 against V_20 = 1e70)
    V = rng.normal(size=(4000, 4, 4))
    V[-1] = np.eye(4)
    V[-1, 0, 0], V[-1, 0, 2], V[-1, 2, 0] = 1e-300, 1e70, 1e70
    A, B, C = V[:, :2, :2], V[:, 2:, 2:], V[:, :2, 2:]
    assert 0.1 < np.mean((A[:, 0, 0] > 0) & (np.linalg.det(A) > 0)) < 0.9
    want = 4.0 * (np.linalg.det(A) + np.linalg.det(B) - 2.0 * np.linalg.det(C)) \
        - 16.0 * np.linalg.det(V)
    norm4 = np.einsum("...ij,...ij->...", V, V) ** 2
    lhs = core.simon_lhs(V)
    assert np.all(np.abs(lhs - want) <= 1e-13 * norm4)
    assert abs(lhs[-1] - 1.6e141) <= 1e-15 * 1.6e141  # 4 (1 + 1e-300) + 16 (1e140 - 1e-300)
    assert core.simon_lhs(np.zeros((4, 4))) == 0.0


# ----------------------------------------------------------- PPT verdict

PPT_CUT = 0.5 - 1e-10


def symmetric_standard_form(eta, c):
    """Stack of states with A = B = eta I, C = diag(c, -c): PPT nu~_minus = eta - c."""
    V = np.zeros(np.shape(eta) + (4, 4))
    for i in range(4):
        V[..., i, i] = eta
    V[..., 0, 2] = V[..., 2, 0] = c
    V[..., 1, 3] = V[..., 3, 1] = -c
    return V


def locally_transformed(rng, V):
    """V conjugated by random local symplectics, which keep both spectra."""
    S = np.zeros(V.shape)
    S[:, :2, :2] = sampling.random_local_symplectics(rng, len(V))
    S[:, 2:, 2:] = sampling.random_local_symplectics(rng, len(V))
    out = S @ V @ np.swapaxes(S, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def ppt_ensembles(rng, n):
    """Adversarial stacks for the PPT verdict, by name."""
    r = rng.uniform(0.0, 3.0, n)
    k = 0.5 + 10.0 ** rng.uniform(-12.0, -3.0, (2, n))
    out = {
        "random physical": sampling.random_physical_covmats(rng, n),
        "separable": sampling.random_separable_covmats(rng, n),
        "near-pure TMSV": locally_transformed(rng, resources.tmst_covmat(r, k[0], k[1])),
        "TMSV r <= 17": resources.tmst_covmat(np.linspace(0.0, 17.0, n), 0.5, 0.5),
        "bs": resources.bs_covmat(3.0 * r, 10.0 ** rng.uniform(math.log10(0.5), 2.0, n),
                                  rng.uniform(0.01, 0.99, n)),
    }
    for name, centre in (("1/2", 0.5), ("the cut", PPT_CUT)):
        delta = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, -6.0, n)
        eta = 10.0 ** rng.uniform(math.log10(0.6), 3.0, n)
        V = symmetric_standard_form(eta, eta - (centre + delta))
        out[f"standard form at {name} +- delta"] = V
        out[f"rotated standard form at {name} +- delta"] = locally_transformed(rng, V)
    return out


def test_ppt_verdict_is_exact_off_the_cut(rng):
    # against exact arithmetic on the stored matrix, wrong verdicts of rows with a spectrum
    # lie within a band of 1.0 eps |V|_F about the cut (0.43 the worst seen)
    for name, V in ppt_ensembles(rng, 10_000).items():
        nm = core._spectrum(core._entries(V))[2]
        wrong = np.flatnonzero(~np.isnan(nm) & ((nm < PPT_CUT) != exact_ppt_entangled(V)))
        delta = 1.0 * np.finfo(float).eps * np.linalg.norm(V[wrong], axis=(1, 2))
        assert np.all(exact_ppt_entangled(V[wrong], PPT_CUT - delta)
                      != exact_ppt_entangled(V[wrong], PPT_CUT + delta)), name
        assert np.array_equal(core._spectrum(core._entries(V.reshape(4, -1, 4, 4)))[2],
                              nm.reshape(4, -1), equal_nan=True), name


def test_a_row_alone_gives_the_bits_it_gives_in_its_stack(rng):
    # numpy rounds +, -, *, / and sqrt alike on scalars and arrays, but not x ** 2 (a factor
    # squaring so fails here); TMSVs past r = 9 that are stored not pd read nan alike
    def same(a, b):
        return np.array_equal(np.array(a, dtype=float), np.array(b, dtype=float), equal_nan=True)

    for name, V in ppt_ensembles(rng, 750).items():
        stack = zip(*core.symplectic_eigenvalues(V), core.ppt_nu_minus(V),
                    *core._spectrum(core._entries(V)))
        for i, row in enumerate(stack):
            rep, one = core.validate(V[i]), core._spectrum(core._entries(V[i]))
            single = (rep.nu_minus, rep.nu_plus, core.ppt_nu_minus(V[i]),
                      *one[:3], rep.physical, one[4])
            assert same(single, row) and same(core.symplectic_eigenvalues(V[i]), row[:2]), (
                name, i)


def test_spectra_are_nan_on_exactly_the_rows_without_one(rng):
    # Williamson's theorem gives a spectrum only to a symmetric positive definite matrix:
    # rows 32-33 are asymmetric, and 34-37 not positive definite: -I, a zero pivot, an
    # indefinite matrix and a pure TMSV at r = 9.078, which rounding stores not pd
    tmsv = resources.tmst_covmat(4.77 + 0.001 * np.arange(4230), 0.5, 0.5)
    ordinary = np.concatenate([sampling.random_physical_covmats(rng, 64), tmsv])
    V = np.concatenate([ordinary[:34], [-np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]),
                        [[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, -1]],
                        resources.tmst_covmat(9.078, 0.5, 0.5)], ordinary[32:]])
    V[32:34, 0, 1] += 1e-6
    # the verdict path's rows are known to be symmetric, and its factor reads the lower
    # triangle, so only its non-pd rows have no spectrum
    for run, first in ((lambda V: (*core.symplectic_eigenvalues(V), core.ppt_nu_minus(V)), 32),
                       (lambda V: core._spectrum(core._entries(V), core._is_symmetric(V)), 32),
                       (lambda V: core._spectrum(core._entries(V)), 34)):
        out = run(V)
        for nu in out[:3]:
            assert np.array_equal(np.isnan(nu), np.isin(np.arange(len(V)), range(first, 38)))
        assert len(out) == 3 or not (out[3] | out[4])[first:38].any()


def test_squeezed_vacua_keep_the_closed_form_verdict():
    # every pure TMSV of a 0.001 grid over [4.77, 9) has its spectrum and reads entangled
    V = resources.tmst_covmat(4.77 + 0.001 * np.arange(4230), 0.5, 0.5)
    nm, npl, pt_nm, _, _ = core._spectrum(core._entries(V))
    assert np.all(pt_nm < PPT_CUT) and np.all(nm <= npl) and np.all(npl < np.inf)


def test_no_label_reads_a_missing_spectrum(rng):
    # a row without a spectrum is Unphysical with every flag False, in the kernel and in
    # classify, and every other row's label is the kernel's: rounding stores the TMSVs
    # singular or indefinite at many points from r = 9.27 on
    stacks = {"TMSV r <= 20": resources.tmst_covmat(0.01 * np.arange(2001), 0.5, 0.5),
              **ppt_ensembles(rng, 1000)}
    for name, V in stacks.items():
        (nm, npl, pt_nm, physical, _), row = criteria._evaluate(core._entries(V))
        missing = np.isnan(npl)
        assert np.array_equal(np.isnan(nm), missing) and np.array_equal(np.isnan(pt_nm), missing)
        assert not physical[missing].any(), name
        assert np.all(criteria.LABELS[row["class"][missing]] == "Unphysical"), name
        assert not (row["entangled"] | row["epr"] | row["qt"])[missing].any(), name
        assert np.array_equal(criteria.classify(V)[1], criteria.LABELS[row["class"]]), name
    tmsv_missing = np.isnan(core._spectrum(core._entries(stacks["TMSV r <= 20"]))[1])
    assert not tmsv_missing[:900].any() and tmsv_missing.sum() > 600  # 672, from r = 9.27


def test_simon_lhs_is_correctly_rounded(rng):
    # simon_lhs is 4 D~ - 16 det V of the stored matrix rounded once, D~ = det A + det B
    # - 2 det C, against the exact rationals on physical stacks, on signed matrices whose
    # entries span twelve decades, and on entries of +-MAX_ENTRY, where |4 D~ - 16 det V|
    # stays below 2.6e302 and the rounding raises no OverflowError (the Hadamard matrix
    # has the largest |det V| of them, 16 MAX_ENTRY^4)
    hadamard = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    n = 400
    r, k1, k2 = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, 10.0, 21), [0.5, 3.0, 100.0], [0.5, 7.0, 100.0], indexing="ij"))
    stacks = {
        "random physical": sampling.random_physical_covmats(rng, n),
        "separable": sampling.random_separable_covmats(rng, n),
        "TMSV r <= 17": resources.tmst_covmat(np.linspace(0.0, 17.0, n), 0.5, 0.5),
        "TMST r <= 10, k <= 100": resources.tmst_covmat(r, k1, k2),
        "bs": resources.bs_covmat(rng.uniform(0.0, 6.0, n), 10.0 ** rng.uniform(
            math.log10(0.5), 2.0, n), rng.uniform(0.01, 0.99, n)),
        "signed": rng.normal(size=(4000, 4, 4)) * 10.0 ** rng.uniform(-6.0, 6.0, (4000, 4, 4)),
        "+-MAX_ENTRY": core.MAX_ENTRY * np.concatenate([
            [hadamard, -hadamard, np.ones((4, 4))], rng.choice([-1.0, 1.0], (200, 4, 4))]),
    }
    for name, V in stacks.items():
        d, det = exact_pt_invariants(V)
        want = [float(x) for x in 4 * d - 16 * det]
        lhs = core.simon_lhs(V)
        assert np.array_equal(lhs, want) and np.all(np.isfinite(lhs)), name
        assert core.simon_lhs(V[1]) == want[1], name
    assert abs(core.simon_lhs(core.MAX_ENTRY * hadamard)) > 1e302


# -------------------------------------------------------- canonical form


def test_canonical_params_validation():
    with pytest.raises(InvalidInput):
        core.CanonicalParams(0.4, 1.0, 0.0, 0.0)
    with pytest.raises(InvalidInput):
        core.CanonicalParams(1.0, 0.3, 0.0, 0.0)
    with pytest.raises(InvalidInput):
        core.CanonicalParams(math.nan, 1.0, 0.0, 0.0)
    p = core.CanonicalParams(0.5, 0.5, 0.0, 0.0)
    assert p.eta == 0.5


def test_from_canonical_layout():
    p = core.CanonicalParams(1.2, 0.9, 0.4, 0.1)
    V = core.from_canonical(p)
    assert np.array_equal(V[:2, :2], 1.2 * np.eye(2))
    assert np.array_equal(V[2:, 2:], 0.9 * np.eye(2))
    assert np.array_equal(V[:2, 2:], np.diag([0.4, -0.1]))
    assert np.array_equal(V, V.T)


def test_from_canonical_reproduces_squeezed_vacuum():
    r = 0.5
    p = core.CanonicalParams(
        math.cosh(2 * r) / 2, math.cosh(2 * r) / 2, math.sinh(2 * r) / 2, math.sinh(2 * r) / 2
    )
    assert np.allclose(core.from_canonical(p), tmsv(r), atol=1e-12)


def test_to_canonical_standard_form_is_fixed_point():
    p = core.CanonicalParams(1.3, 0.8, 0.45, 0.2)
    V = core.from_canonical(p)
    q, S = core.to_canonical(V)
    assert np.array_equal(S, np.eye(4))
    assert q == p


def test_to_canonical_thermal_squeezed_frozen():
    V = resources.tmst_covmat(0.48, 1.5, 0.75)
    p, S = core.to_canonical(V)
    assert np.array_equal(S, np.eye(4))
    assert abs(p.eta - 2.0594565146615045) < 1e-12
    assert abs(p.zeta - 1.3094565146615045) < 1e-12
    assert abs(p.c1 - 1.253702017939503) < 1e-12
    assert abs(p.c2 - 1.253702017939503) < 1e-12


def test_to_canonical_mixed_beam_splitter_frozen():
    V = resources.bs_covmat(0.5, 0.5, 0.5)
    p, S = core.to_canonical(V)
    assert abs(p.eta - 0.5638129826031905) < 1e-12
    assert abs(p.zeta - 0.5638129826031905) < 1e-12
    assert abs(p.c1 - 0.2605476527468737) < 1e-12
    assert abs(p.c2 - 0.2605476527468737) < 1e-12
    resid = np.max(np.abs(S @ V @ S.T - core.from_canonical(p)))
    assert resid < 1e-12


def test_to_canonical_reduces_random_states(rng):
    Vs = sampling.random_physical_covmats(rng, 300)
    for V in Vs:
        p, S = core.to_canonical(V)
        W = S @ V @ S.T
        assert np.max(np.abs(W - core.from_canonical(p))) < 1e-9
        # S is a local (block-diagonal) symplectic
        assert np.array_equal(S[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(S[2:, :2], np.zeros((2, 2)))
        assert abs(np.linalg.det(S[:2, :2]) - 1.0) < 1e-10
        assert abs(np.linalg.det(S[2:, 2:]) - 1.0) < 1e-10
        # normalization: c1 >= |c2|, and c2 keeps the sign of -det C
        assert p.c1 >= abs(p.c2) - 1e-12
        detC = np.linalg.det(V[:2, 2:])
        if abs(detC) > 1e-10:
            assert (p.c2 > 0) == (detC < 0)


def test_to_canonical_preserves_invariants(rng):
    for V in sampling.random_physical_covmats(rng, 100):
        p, S = core.to_canonical(V)
        W = core.from_canonical(p)
        assert abs(np.linalg.det(W) - np.linalg.det(V)) < 1e-8
        a0, b0, c0 = core.blocks(V)
        assert abs(p.eta**2 - np.linalg.det(a0)) < 1e-9
        assert abs(p.zeta**2 - np.linalg.det(b0)) < 1e-9
        assert abs(-p.c1 * p.c2 - np.linalg.det(c0)) < 1e-9


def test_to_canonical_roundtrip_is_stable(rng):
    for V in sampling.random_physical_covmats(rng, 100):
        p, _ = core.to_canonical(V)
        q, S = core.to_canonical(core.from_canonical(p))
        assert np.array_equal(S, np.eye(4))
        assert abs(q.eta - p.eta) < 1e-9
        assert abs(q.zeta - p.zeta) < 1e-9
        assert abs(q.c1 - p.c1) < 1e-9
        assert abs(q.c2 - p.c2) < 1e-9


def test_to_canonical_rejects_unphysical():
    with pytest.raises(PreconditionFailed):
        core.to_canonical(0.4 * np.eye(4))


# ----------------------------------------------------------------- JSON


def test_covmat_json_roundtrip_exact(rng):
    for V in sampling.random_physical_covmats(rng, 20):
        W = core.covmat_from_json(core.covmat_to_json(V))
        assert np.array_equal(W, V)  # 17 significant digits round-trip


def test_covmat_json_schema():
    doc = json.loads(core.covmat_to_json(VACUUM))
    assert doc["convention"] == "xpxp-vac-half"
    assert doc["matrix"] == [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)]


def test_covmat_json_rejects_malformed():
    with pytest.raises(InvalidInput, match="JSON"):
        core.covmat_from_json("{not json")
    with pytest.raises(InvalidInput, match="convention"):
        core.covmat_from_json(json.dumps({"matrix": [[0.5] * 4] * 4}))
    with pytest.raises(InvalidInput, match="convention"):
        core.covmat_from_json(json.dumps({"convention": "xxpp", "matrix": [[0.5] * 4] * 4}))
    with pytest.raises(InvalidInput, match="matrix"):
        core.covmat_from_json(json.dumps({"convention": "xpxp-vac-half"}))
    with pytest.raises(InvalidInput, match="matrix"):
        core.covmat_from_json(
            json.dumps({"convention": "xpxp-vac-half", "matrix": [[0.5] * 3] * 4})
        )
    with pytest.raises(InvalidInput, match="matrix"):
        core.covmat_from_json(
            json.dumps({"convention": "xpxp-vac-half", "matrix": [["x"] * 4] * 4})
        )
    # integer literals past the float range, and past Python's 4,300-digit limit
    # (json rejects those from CPython 3.10.7 on; before, the 1x1 matrix is)
    with pytest.raises(InvalidInput, match="matrix"):
        core.covmat_from_json(
            json.dumps({"convention": "xpxp-vac-half", "matrix": [[10**400] * 4] * 4})
        )
    with pytest.raises(InvalidInput, match="JSON|matrix"):
        core.covmat_from_json(
            '{"convention": "xpxp-vac-half", "matrix": [[1%s]]}' % ("0" * 4300)
        )


def test_covmat_file_roundtrip(tmp_path, rng):
    V = sampling.random_physical_covmats(rng, 1)[0]
    path = tmp_path / "state.json"
    core.save_covmat(V, path)
    assert np.array_equal(core.load_covmat(path), V)


# ------------------------------------------------------------- row writer

# 2**-25 and 3 * 2**-25 are exact 18-digit decimals ending in 5, so their
# 17-digit forms are rounding ties
TIES = [2.0**-25, 3 * 2.0**-25]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e75, -1e75,
           core.MAX_ENTRY, 0.1, 1 / 3, 1e16, 123456789012345680.0, *TIES]
LABELS = np.array(["Separable", "EntangledNoQT", "QTNoEPR", "EPRCorrelated", "Unphysical"])


def rows(columns, fmt, tables=None):
    """The writer's rows, its blocks flattened."""
    return [row for block in core._row_blocks(columns, fmt, tables) for row in block]


def assert_rows_match_reference(columns, tables=None):
    for fmt in ("csv", "json"):
        assert rows(columns, fmt, tables) == reference_rows(columns, fmt, tables), fmt


def tokens(column):
    """The tokens ``core._column`` formats for a column, one per distinct value."""
    return core._column(np.asarray(column), "csv")[0]


def vector_tokens(values, before="", after=""):
    """``core._fmt17_tokens`` of ``values`` through its vectorised route: fewer than
    ``core._FMT_LOOP`` values are repeated up to it, and the copies' tokens dropped."""
    values = np.asarray(values, dtype=float)
    padded = np.resize(values, max(values.size, core._FMT_LOOP))
    return core._fmt17_tokens(padded, before, after)[:values.size]


def assert_tokens_are_fmt17(values, before="", after=""):
    """``vector_tokens`` against fmt17, value by value, in slices; returns the count."""
    values = np.asarray(values, dtype=float).ravel()
    for lo in range(0, values.size, 1 << 18):
        part = values[lo:lo + (1 << 18)]
        got = vector_tokens(part, before, after).tolist()
        want = [before + t + after for t in map(core.fmt17, part.tolist())]
        if got != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            pytest.fail(f"{part[i]!r} ({part[i:i + 1].view(np.int64)[0]:#x}): "
                        f"{got[i]!r} != {want[i]!r}")
    return values.size


def test_tie_values_are_ties():
    for x in TIES:
        digits = decimal.Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=2000, deadline=None)
def test_float_tokens_are_fmt17_on_finite_floats(x):
    assert vector_tokens([x]).tolist() == [core.fmt17(x)]


def test_float_tokens_are_fmt17_on_special_values():
    assert vector_tokens(SPECIAL).tolist() == [format(x, ".17g") for x in SPECIAL]
    assert vector_tokens([np.nan, np.inf, -np.inf]).tolist() == ["null"] * 3


def test_short_float_columns_take_fmt17_with_the_same_bytes(rng, monkeypatch):
    # fmt17 one value at a time below _FMT_LOOP values, where _fmt17_block's fixed cost is
    # the larger; either side of that size the tokens are the same bytes
    blocks = []
    monkeypatch.setattr(core, "_fmt17_block",
                        lambda *a, f=core._fmt17_block: blocks.append(a[0].size) or f(*a))
    values = np.concatenate([SPECIAL, [np.nan, np.inf, -np.inf, -0.0], TIES,
                             np.copysign(10.0 ** rng.uniform(-13, 17, core._FMT_LOOP),
                                         rng.random(core._FMT_LOOP) - 0.5)])
    for n in (core._FMT_LOOP - 1, core._FMT_LOOP):
        blocks.clear()
        got = core._fmt17_tokens(values[:n], '"x": ', "}").tolist()
        assert got == ['"x": ' + core.fmt17(v) + "}" for v in values[:n].tolist()], n
        assert (sum(blocks) > 0) == (n >= core._FMT_LOOP), n


def test_float_tokens_are_fmt17_byte_for_byte(rng):
    """The vectorised fmt17 against fmt17 on over five million values, in and out of
    its window (|x| in [2**-36, 2**51))."""

    def signed(x):
        return np.concatenate([x, -x])

    def steps_around(x, k=4):  # x and its k neighbours on either side
        out = [np.asarray(x, dtype=float)]
        for direction in (-np.inf, np.inf):
            y = out[0]
            for _ in range(k):
                y = np.nextafter(y, direction)
                out.append(y)
        return np.concatenate(out)

    n = assert_tokens_are_fmt17(  # every exponent, subnormals, NaN payloads
        np.frombuffer(rng.bytes(8 * 500_000), np.float64))
    n += assert_tokens_are_fmt17([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, *SPECIAL,
                                  *(-np.array(SPECIAL))])
    n += assert_tokens_are_fmt17(  # log-uniform, inside the window and beyond it
        np.copysign(10.0 ** rng.uniform(-13, 17, 2_500_000), rng.random(2_500_000) - 0.5))
    # exact 17-digit ties: odd m / 2**j with 18 significant digits, the last a 5
    # (j = 2 is odd M/4 with M >= 4e15; TIES are two more at j = 25)
    ties = [np.array(TIES)]
    for j in range(2, 18):
        lo, hi = 10 ** (17 - j) * 2**j, min(10 ** (18 - j) * 2**j, 2**53)
        ties.append((2 * rng.integers(lo // 2, hi // 2, 30_000) + 1) / 2.0**j)
        digits = decimal.Decimal(ties[-1][0]).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    n += assert_tokens_are_fmt17(signed(np.concatenate(ties)))
    # either side of every power of ten in the window and of the window's edges
    powers = np.array([float(f"1e{e}") for e in range(-12, 17)])
    n += assert_tokens_are_fmt17(signed(steps_around(np.concatenate([powers, [2.0**-36, 2.0**51]]))))
    # one-digit values, where every digit but the first is a trailing zero
    n += assert_tokens_are_fmt17(signed(np.array(
        [float(f"{d}e{e}") for d in range(1, 10) for e in range(-13, 17)])))
    assert vector_tokens([0.5, 0.01, 1e-5, 5e-7, 100.0]).tolist() == [
        "0.5", "0.01", "1.0000000000000001e-05", "4.9999999999999998e-07", "100"]
    # every float column of a tmst and a bs sweep
    for family, axes in (("tmst", (("k1", 0.5, 2.5), ("k2", 0.5, 2.5))),
                         ("bs", (("k", 0.5, 2.0), ("T", 0.05, 0.95)))):
        cfg = sweep.SweepConfig(family=family, r=0.48, **{
            key: sweep.AxisSpec(*axis, 301) for key, axis in zip(("axis1", "axis2"), axes)})
        for chunk in sweep.run_sweep(cfg):
            n += assert_tokens_are_fmt17(
                np.stack([c for c in chunk.values() if c.dtype.kind == "f"]))
    # a JSON key with a per cent sign, and a closing brace
    n += assert_tokens_are_fmt17(rng.normal(size=10_000), '"100%": ', "}")
    assert n >= 5_000_000


def test_rows_match_reference_on_special_values(rng):
    n = 64
    distinct = np.concatenate([SPECIAL, rng.normal(size=n - len(SPECIAL))])
    repeated = np.resize(SPECIAL, n)
    signed_zeros = np.resize([0.0, -0.0], n)
    # each distinct value is formatted once, 0.0 and -0.0 by their own bits
    assert tokens(distinct).size == np.unique(distinct.view(np.int64)).size
    assert tokens(repeated).size == np.unique(np.array(SPECIAL).view(np.int64)).size
    assert tokens(signed_zeros).tolist() == ["-0", "0"]
    json_tokens, codes = core._column(distinct, "json", '"x": ', "}")
    assert json_tokens[codes].tolist() == ['"x": ' + core.fmt17(v) + "}" for v in distinct]
    assert rows({"z": signed_zeros}, "csv")[:2] == ["0", "-0"]
    assert_rows_match_reference({
        "distinct": distinct,
        "repeated": repeated,
        "signed_zeros": signed_zeros,
        "equal": np.full(n, 1 / 3),
        "bool": rng.random(n) < 0.5,
        "label": LABELS[rng.integers(0, LABELS.size, n)],
        "code": rng.integers(0, LABELS.size, n).astype(np.int8),
        "int": rng.integers(-3, 3, n),
        "100%": distinct[::-1],  # a key with a per cent sign
    }, {"code": LABELS})


def test_rows_match_reference_with_non_finite_values(rng):
    n = 40
    mixed = rng.normal(size=n)
    mixed[[3, 7, 11, 19]] = [np.nan, np.inf, -np.inf, -np.nan]
    assert tokens(mixed).tolist().count("null") == 4  # nan and -nan have their own bits
    assert rows({"x": mixed}, "json")[3] == '{"x": null}'
    assert_rows_match_reference({
        "mixed": mixed,
        "all_nan": np.full(n, np.nan),
        "repeated": np.resize([np.inf, 1.5, -np.inf, np.nan, -0.0], n),
    })


def test_rows_match_reference_with_repeated_and_coded_values(rng):
    n = 12
    values = rng.normal(size=n)
    at_half = np.resize(values[:6], n)
    past_half = np.resize(values[:7], n)
    assert (tokens(at_half).size, tokens(past_half).size) == (6, 7)  # once per distinct value
    flags = np.resize([True, False, False], n)
    assert core._column(flags, "json")[0].tolist() == ["false", "true"]  # codes, no sort
    long_table = rng.normal(size=3 * n)  # longer than the column: its codes are sorted
    assert_rows_match_reference({"at_half": at_half, "past_half": past_half,
                                 "flags": flags,
                                 "coded": rng.integers(0, long_table.size, n)},
                                {"coded": long_table})


def test_one_row_columns_match_reference():
    for x in [*SPECIAL, np.nan, np.inf, -np.inf]:
        fields = {"x": x, "flag": np.bool_(x > 0), "label": "QTNoEPR", "n": 7,
                  "code": np.int8(3)}
        tables = {"code": LABELS}
        columns = {k: np.atleast_1d(v) for k, v in fields.items()}
        assert_rows_match_reference(columns, tables)
        assert core.record_csv({**fields, "code": LABELS[fields["code"]]}) == (
            "x,flag,label,n,code\n" + reference_rows(columns, "csv", tables)[0])


# ------------------------------------------------------------ properties


@given(
    entries=st.lists(st.floats(-3, 3, allow_nan=False), min_size=10, max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_validate_total_on_symmetric_matrices(entries):
    V = np.zeros((4, 4))
    idx = np.triu_indices(4)
    V[idx] = entries
    V = V + np.triu(V, 1).T
    rep = core.validate(V)
    assert rep.symmetric
    # a spectrum exactly on the positive definite matrices, whose factor takes them
    lowest = np.linalg.eigvalsh(V)[0]
    if math.isnan(rep.nu_plus):
        assert math.isnan(rep.nu_minus) and not rep.physical and lowest < 1e-10
    else:
        assert rep.nu_plus >= rep.nu_minus >= 0.0 and lowest > -1e-10
    if rep.physical:
        core.require_physical(V)
    else:
        with pytest.raises(PreconditionFailed):
            core.require_physical(V)


@given(
    eta=st.floats(0.5, 4.0),
    zeta=st.floats(0.5, 4.0),
    c1=st.floats(0.0, 2.0),
    frac=st.floats(-1.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_canonical_roundtrip_property(eta, zeta, c1, frac):
    p = core.CanonicalParams(eta, zeta, c1, c1 * frac)
    V = core.from_canonical(p)
    if not core.validate(V).physical:
        return
    q, S = core.to_canonical(V)
    W = S @ V @ S.T
    assert np.max(np.abs(W - core.from_canonical(q))) < 1e-9
    assert abs(q.eta - p.eta) < 1e-9
    assert abs(q.zeta - p.zeta) < 1e-9
