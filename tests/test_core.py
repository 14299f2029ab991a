"""Validity, symplectic spectra, separability verdicts, standard form, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqt.core as core
import gaussqt.resources as resources
import gaussqt.sampling as sampling
from gaussqt.errors import InvalidInput, PreconditionFailed
from conftest import det_block_nu, williamson_nu, two_mode_squeezer

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


def test_asymmetric_is_unphysical():
    V = 0.5 * np.eye(4)
    V[0, 1] = 1e-6
    rep = core.validate(V)
    assert not rep.symmetric
    assert not rep.physical


def test_indefinite_is_unphysical():
    rep = core.validate(-np.eye(4))
    assert rep.nu_minus == 1.0  # above the vacuum floor, yet not a covariance matrix
    assert not rep.physical
    # symplectic pair (1, 1) too; det M is 0 here, so F would divide by zero
    V = np.array([[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, -1]])
    rep = core.validate(V)
    assert rep.nu_minus >= 0.5 and not rep.physical


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
    # eigendecomposition route keeps nu at 1/2 to machine precision even
    # though the determinant closed form loses ~7e-9 here
    for r in (0.3, 0.5, 1.0, 1.5):
        nm, npl = core.symplectic_eigenvalues(tmsv(r))
        assert abs(nm - 0.5) < 1e-12
        assert abs(npl - 0.5) < 1e-12
        assert core.validate(tmsv(r)).physical


def test_symplectic_eigenvalues_frozen_thermal():
    V = resources.tmst(resources.TmstSpec(0.48, 1.5, 0.75))
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
    V = resources.tmst(resources.TmstSpec(0.48, 1.5, 0.75))
    p, S = core.to_canonical(V)
    assert np.array_equal(S, np.eye(4))
    assert abs(p.eta - 2.0594565146615045) < 1e-12
    assert abs(p.zeta - 1.3094565146615045) < 1e-12
    assert abs(p.c1 - 1.253702017939503) < 1e-12
    assert abs(p.c2 - 1.253702017939503) < 1e-12


def test_to_canonical_mixed_beam_splitter_frozen():
    V = resources.bs_resource(resources.BsSpec(0.5, 0.5, 0.5))
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


def test_covmat_file_roundtrip(tmp_path, rng):
    V = sampling.random_physical_covmats(rng, 1)[0]
    path = tmp_path / "state.json"
    core.save_covmat(V, path)
    assert np.array_equal(core.load_covmat(path), V)


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
    assert rep.nu_minus >= 0.0
    assert rep.nu_plus >= rep.nu_minus - 1e-12
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
