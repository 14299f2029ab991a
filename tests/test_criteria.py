"""EPR uncertainty, teleportation matrix, fidelity, and region labels."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussqt.cli as cli
import gaussqt.core as core
import gaussqt.criteria as criteria
import gaussqt.resources as resources
import gaussqt.sampling as sampling
import gaussqt.sweep as sweep
from gaussqt.errors import PreconditionFailed
from conftest import epr_combo_variance, m_entries, m_matmul, two_mode_squeezer

VACUUM = 0.5 * np.eye(4)

# Pinned by independent evaluation of the closed-form expressions.
TMSV_HALF_DELTA = 0.73575888234288422
TMSV_HALF_M_DIAG = 1.3678794411714421
TMSV_HALF_FID = 0.73105857863000501
BS_HALF_DELTA = 1.3678794411714423
BS_HALF_DETM = 2.7357588823428847
BS_HALF_FID = 0.60459018294626854
BS_T030_DETM = 2.8885354481751975
BS_T030_FID = 0.5883843994197081
BS_T025_DELTA = 1.5253265465619159
BS_T025_FID = 0.57901559550150739
TMST_DELTA = 2.2346338670613424  # r=0.35, k1=1.5, k2=0.75
TMST_DETM = 4.4830309970157254


def tmsv(r):
    S = two_mode_squeezer(r)
    return S @ (0.5 * np.eye(4)) @ S.T


def bs(T, r=0.5, k=0.5):
    return resources.bs_covmat(r, k, T)


# ------------------------------------------------------- EPR uncertainty


def test_epr_uncertainty_vacuum_exact():
    assert criteria.epr_uncertainty(VACUUM) == 2.0
    assert criteria.epr_degree(VACUUM) == 0.0


def test_epr_uncertainty_frozen_values():
    assert abs(criteria.epr_uncertainty(tmsv(0.5)) - TMSV_HALF_DELTA) < 1e-13
    assert abs(criteria.epr_uncertainty(bs(0.5)) - BS_HALF_DELTA) < 1e-13
    assert abs(criteria.epr_uncertainty(bs(0.25)) - BS_T025_DELTA) < 1e-13


def test_epr_uncertainty_squeezing_dependence():
    # the combination Var(x_a - x_b) + Var(p_a + p_b) equals 2 e^{-2r}
    # for the pure squeezed state
    for r in (0.1, 0.5, 1.2):
        assert abs(criteria.epr_uncertainty(tmsv(r)) - 2.0 * math.exp(-2 * r)) < 1e-12


def test_epr_degree_clamps_at_zero():
    V = np.diag([1.0, 1.0, 1.0, 1.0])  # uncorrelated thermal, Delta = 4
    assert criteria.epr_uncertainty(V) == 4.0
    assert criteria.epr_degree(V) == 0.0
    assert abs(criteria.epr_degree(tmsv(0.5)) - (2.0 - TMSV_HALF_DELTA)) < 1e-13


def test_epr_uncertainty_matches_entry_arithmetic(rng):
    Vs = sampling.random_physical_covmats(rng, 500)
    assert np.max(np.abs(criteria.epr_uncertainty(Vs) - epr_combo_variance(Vs))) < 1e-12


def test_epr_uncertainty_rejects_unphysical():
    with pytest.raises(PreconditionFailed):
        criteria.epr_uncertainty(0.4 * np.eye(4))


# --------------------------------------------------- teleportation matrix


def test_m_matrix_vacuum_exact():
    assert np.array_equal(criteria.m_matrix(VACUUM), 2.0 * np.eye(2))


def test_m_matrix_frozen_diagonals():
    M = criteria.m_matrix(tmsv(0.5))
    assert abs(M[0, 0] - TMSV_HALF_M_DIAG) < 1e-13
    assert abs(M[1, 1] - TMSV_HALF_M_DIAG) < 1e-13
    assert abs(M[0, 1]) < 1e-14
    Mb = criteria.m_matrix(bs(0.5))
    assert abs(Mb[0, 0] - BS_HALF_DELTA) < 1e-13  # x-quadrature carries the squeezing
    assert abs(Mb[1, 1] - 2.0) < 1e-13
    assert abs(Mb[0, 1]) < 1e-14


def test_m_matrix_matches_entry_arithmetic(rng):
    Vs = sampling.random_physical_covmats(rng, 500)
    Ms = criteria.m_matrix(Vs)
    assert Ms.shape == (500, 2, 2)
    assert np.max(np.abs(Ms - m_entries(Vs))) < 1e-12
    assert np.array_equal(Ms, np.swapaxes(Ms, -1, -2))


def bits(x):
    return np.asarray(x).view(np.int64)


def test_entrywise_m_is_bit_identical_to_the_matmul_expression(rng):
    n = 20_000
    signs = rng.choice([0.0, -0.0], (n, 4, 4))
    signed_zero_vacuum = np.triu(signs, 1) + np.swapaxes(np.triu(signs, 1), -1, -2)
    signed_zero_vacuum[:, range(4), range(4)] = 0.5
    physical = {
        "random physical": sampling.random_physical_covmats(rng, n),
        "separable": sampling.random_separable_covmats(rng, n),
        "bs": resources.bs_covmat(rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 5.0, n),
                                  rng.uniform(0.01, 0.99, n)),
        "vacuum with signed zeros": signed_zero_vacuum,
    }
    stacks = {
        **physical,
        "TMSV r <= 17": resources.tmst_covmat(np.linspace(0.0, 17.0, n), 0.5, 0.5),
        # mostly +-0 entries, so every sum in M meets a signed zero
        "signed zeros": rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.0], (n, 4, 4)),
    }
    for name, V in stacks.items():
        want = m_matmul(V)
        det = want[..., 0, 0] * want[..., 1, 1] - want[..., 0, 1] * want[..., 1, 0]
        assert np.array_equal(bits(criteria._m_raw(core._entries(V))), bits(want)), name
        assert np.array_equal(bits(criteria._det_m(core._entries(V))), bits(det)), name
    for name, V in physical.items():
        assert np.array_equal(bits(criteria.m_matrix(V)), bits(m_matmul(V))), name
    one = physical["random physical"][0]
    assert np.array_equal(bits(criteria.m_matrix(one)), bits(m_matmul(one)))


def test_m_matrix_dominates_identity(rng):
    Vs = sampling.random_physical_covmats(rng, 2000)
    ev = np.linalg.eigvalsh(criteria.m_matrix(Vs))
    assert np.min(ev) >= 1.0 - 1e-10


def test_m_trace_is_epr_uncertainty_plus_two(rng):
    Vs = sampling.random_physical_covmats(rng, 2000)
    tr = np.trace(criteria.m_matrix(Vs), axis1=-2, axis2=-1)
    assert np.max(np.abs(tr - (criteria.epr_uncertainty(Vs) + 2.0))) < 1e-10


# --------------------------------------------------------------- fidelity


def test_fidelity_vacuum_is_classical_limit():
    assert criteria.fidelity(VACUUM) == 0.5


def test_fidelity_frozen_values():
    assert abs(criteria.fidelity(tmsv(0.5)) - TMSV_HALF_FID) < 1e-13
    assert abs(criteria.fidelity(bs(0.5)) - BS_HALF_FID) < 1e-13
    assert abs(criteria.fidelity(bs(0.3)) - BS_T030_FID) < 1e-13
    assert abs(criteria.fidelity(bs(0.25)) - BS_T025_FID) < 1e-13
    assert abs(criteria.fidelity(bs(0.75)) - BS_T025_FID) < 1e-13  # T <-> 1-T symmetry


def test_fidelity_closed_form_relation(rng):
    Vs = sampling.random_physical_covmats(rng, 500)
    F = criteria.fidelity(Vs)
    detm = np.linalg.det(criteria.m_matrix(Vs))
    assert np.max(np.abs(F - 1.0 / np.sqrt(detm))) < 1e-12
    off = np.abs(detm - 4.0) > 1e-12
    assert np.array_equal((F > 0.5)[off], (detm < 4.0)[off])


def test_fidelity_increases_with_squeezing():
    rs = np.linspace(0.0, 2.0, 21)
    F = np.array([criteria.fidelity(tmsv(r)) for r in rs])
    assert np.all(np.diff(F) > 0)
    assert F[0] == 0.5
    assert F[-1] < 1.0


def test_fidelity_rejects_unphysical():
    with pytest.raises(PreconditionFailed):
        criteria.fidelity(0.45 * np.eye(4))


# --------------------------------------------- canonical determinant forms


def test_detm_values_frozen():
    assert criteria.detm_values(0.5, 0.5, 0.0, 0.0) == 4.0
    assert abs(criteria.detm_values(1.0, 0.8, 0.7, 0.5) - 2.52) < 1e-14
    r = 0.5
    ch, sh = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    assert abs(criteria.detm_values(ch, ch, sh, sh) - (1.0 + math.exp(-1.0)) ** 2) < 1e-14


def test_detm_matches_direct_determinant(rng):
    for _ in range(300):
        eta, zeta = rng.uniform(0.5, 3.0, size=2)
        c1 = rng.uniform(0.0, 1.5)
        c2 = rng.uniform(-c1, c1)
        p = core.CanonicalParams(eta, zeta, c1, c2)
        V = core.from_canonical(p)
        if not core.validate(V).physical:
            continue
        direct = float(np.linalg.det(criteria.m_matrix(V)))
        assert abs(criteria.detm_values(eta, zeta, c1, c2) - direct) < 1e-10


def test_detm_epsilon_form_is_the_same_polynomial(rng):
    eta = rng.uniform(0.5, 4.0, size=100_000)
    zeta = rng.uniform(0.5, 4.0, size=100_000)
    c1 = rng.uniform(-4.0, 4.0, size=100_000)
    c2 = rng.uniform(-4.0, 4.0, size=100_000)
    a = criteria.detm_values(eta, zeta, c1, c2)
    b = criteria.detm_epsilon_values(eta, zeta, c1, c2)
    assert np.max(np.abs(a - b)) < 1e-10


def test_qt_epr_values_frozen():
    lhs, rhs, qt = criteria.qt_epr_values(1.0, 0.8, 0.7, 0.5)
    assert abs(lhs - 0.6) < 1e-14
    assert abs(rhs - 1.0099751242241779) < 1e-14
    assert qt


def test_qt_epr_bound_rhs_is_one_for_equal_correlations(rng):
    c = rng.uniform(0.0, 2.0, size=1000)
    _, rhs, _ = criteria.qt_epr_values(1.0, 1.0, c, c)
    assert np.all(rhs == 1.0)


def test_qt_epr_values_agrees_with_determinant(rng):
    Vs = sampling.random_physical_covmats(rng, 500)
    for V in Vs:
        p, _ = core.to_canonical(V)
        detm = criteria.detm_values(p.eta, p.zeta, p.c1, p.c2)
        if abs(detm - 4.0) < 1e-10:
            continue
        _, _, qt = criteria.qt_epr_values(p.eta, p.zeta, p.c1, p.c2)
        assert qt == (detm < 4.0)


# ------------------------------------------------------- classification


def test_classify_frozen_labels():
    _, lab = criteria.classify(VACUUM)
    assert lab is criteria.Classification.SEPARABLE
    _, lab = criteria.classify(tmsv(0.5))
    assert lab is criteria.Classification.EPR_CORRELATED
    _, lab = criteria.classify(resources.tmst_covmat(0.35, 1.5, 0.75))
    assert lab is criteria.Classification.ENTANGLED_NO_QT
    _, lab = criteria.classify(core.from_canonical(core.CanonicalParams(1.7, 1.7, 1.5, 0.8)))
    assert lab is criteria.Classification.QT_NO_EPR


def test_classify_report_frozen_values():
    rep, _ = criteria.classify(VACUUM)
    assert rep == criteria.CriteriaReport(2.0, 0.0, 4.0, 0.5, False, False, False)
    rep, _ = criteria.classify(resources.tmst_covmat(0.35, 1.5, 0.75))
    assert abs(rep.delta_epr - TMST_DELTA) < 1e-12
    assert abs(rep.det_m - TMST_DETM) < 1e-12
    assert rep.f_epr == 0.0
    assert rep.entangled and not rep.epr_correlated and not rep.qt


def test_classify_qt_no_epr_witness():
    rep, lab = criteria.classify(core.from_canonical(core.CanonicalParams(1.7, 1.7, 1.5, 0.8)))
    assert lab is criteria.Classification.QT_NO_EPR
    assert abs(rep.delta_epr - 2.2) < 1e-12
    assert abs(rep.det_m - 3.92) < 1e-12
    assert rep.entangled and rep.qt and not rep.epr_correlated


def test_classify_folds_malformed_input():
    for bad in (0.4 * np.eye(4), np.eye(3), np.full((4, 4), np.nan), "hello", None):
        rep, lab = criteria.classify(bad)
        assert lab is criteria.Classification.UNPHYSICAL
        assert math.isnan(rep.delta_epr)
        assert math.isnan(rep.fidelity)
        assert not (rep.entangled or rep.epr_correlated or rep.qt)


def test_classify_asymmetric_is_unphysical():
    V = 0.5 * np.eye(4)
    V[1, 2] = 1e-3
    _, lab = criteria.classify(V)
    assert lab is criteria.Classification.UNPHYSICAL


def test_classify_out_of_range_and_indefinite_are_unphysical():
    huge = np.diag([1e308, 1e308, 1.0, 1.0])  # physical, but Delta and det M overflow
    stack = np.stack([huge, -np.eye(4), 0.5 * np.eye(4)])  # -I: every nu is 1
    _, labels = criteria.classify(stack)
    assert labels.tolist() == ["Unphysical", "Unphysical", "Separable"]
    assert criteria.classify(huge)[1] is criteria.Classification.UNPHYSICAL


def test_classify_stack_matches_per_row(rng):
    asymmetric = sampling.random_physical_covmats(rng, 6)
    asymmetric[:, 1, 2] += 1e-3
    nonfinite = sampling.random_physical_covmats(rng, 5)
    nonfinite[:2, 0, 0] = np.nan
    nonfinite[2, 1, 3] = nonfinite[2, 3, 1] = np.inf
    nonfinite[3, 0, 2], nonfinite[3, 2, 0] = -np.inf, np.inf  # inf - inf in the symmetry test
    nonfinite[4, 2, 2] = -np.inf
    huge = np.stack([1e100 * sampling.random_physical_covmats(rng, 1)[0],  # beyond MAX_ENTRY
                     np.diag([1e308, 1e308, 1.0, 1.0])])  # Delta and det M overflow
    stack = np.concatenate([
        sampling.random_physical_covmats(rng, 30),
        sampling.random_separable_covmats(rng, 12),
        0.2 * sampling.random_physical_covmats(rng, 10),  # mostly below the bound
        asymmetric,
        nonfinite,
        huge,
    ])[rng.permutation(65)]
    rep, labels = criteria.classify(stack)
    assert labels.shape == (65,)
    assert {"Unphysical", "Separable"} <= set(labels.tolist())
    for i, V in enumerate(stack):
        one, label = criteria.classify(V)
        assert labels[i] == label.value
        for f in dataclasses.fields(one):
            got, want = getattr(rep, f.name)[i], getattr(one, f.name)
            assert got == want or (math.isnan(got) and math.isnan(want)), (i, f.name)
    rep2, labels2 = criteria.classify(stack.reshape(5, 13, 4, 4))
    assert labels2.shape == (5, 13)
    assert np.array_equal(labels2.ravel(), labels)
    assert np.array_equal(rep2.det_m.ravel(), rep.det_m, equal_nan=True)


def test_classify_factors_each_row_once(rng, monkeypatch):
    # one factor gives both the physicality rule and the PPT verdict, in one kernel call over
    # the stack as given: asymmetric rows reach it too, marked not valid
    calls = []
    monkeypatch.setattr(core, "_spectrum",
                        lambda e, *a, f=core._spectrum: calls.append(e[0].size) or f(e, *a))
    stack = sampling.random_physical_covmats(rng, 50)
    stack[:10, 1, 2] += 1e-3
    _, labels = criteria.classify(stack)
    assert calls == [50]
    assert np.all(labels[:10] == "Unphysical")
    calls.clear()
    criteria.classify(VACUUM)
    assert calls == [1]


def test_classify_precedence_consistency(rng):
    Vs = sampling.random_physical_covmats(rng, 2000)
    for V in Vs[::7]:
        rep, lab = criteria.classify(V)
        if not rep.entangled:
            want = criteria.Classification.SEPARABLE
        elif rep.epr_correlated:
            want = criteria.Classification.EPR_CORRELATED
        elif rep.qt:
            want = criteria.Classification.QT_NO_EPR
        else:
            want = criteria.Classification.ENTANGLED_NO_QT
        assert lab is want
        assert rep.qt == (rep.det_m < 4.0)
        assert rep.epr_correlated == (rep.delta_epr < 2.0)
        if rep.epr_correlated:
            assert rep.qt


def test_output_row_is_stated_once(tmp_path, capsys, monkeypatch):
    names = list(criteria._evaluate(core._entries(VACUUM))[1])
    assert list(criteria._UNPHYSICAL_ROW) == names
    config = sweep.SweepConfig("tmst", 0.5, sweep.AxisSpec("k1", 0.5, 1.5, 3),
                               sweep.AxisSpec("k2", 0.5, 1.5, 3))
    assert next(sweep.text(config, "csv")) == ",".join(["axis1", "axis2", *names]) + "\n"
    monkeypatch.setattr(sweep, "_CHUNK", 4)
    chunks = list(sweep.run_sweep(config))
    assert len(chunks) == 3
    assert all(list(chunk) == ["axis1", "axis2", *names] for chunk in chunks)
    path = tmp_path / "vac.json"
    core.save_covmat(VACUUM, path)
    assert cli.main(["analyze", str(path), "--format", "csv"]) == cli.EXIT_OK
    assert capsys.readouterr().out.split("\n")[0] == ",".join(names)
    # _report and classify build CriteriaReport from the first seven values by position
    fields = [f.name for f in dataclasses.fields(criteria.CriteriaReport)]
    assert fields == [{"epr": "epr_correlated"}.get(n, n) for n in names[:7]]


# a report is written as ``core.record_json(vars(report))``: the "report"
# object of the analyze JSON


def test_report_json_frozen_string():
    rep, _ = criteria.classify(VACUUM)
    assert core.record_json(vars(rep)) == (
        '{"delta_epr": 2, "f_epr": 0, "det_m": 4, "fidelity": 0.5, '
        '"entangled": false, "epr_correlated": false, "qt": false}'
    )


def test_report_json_roundtrips_all_digits(rng):
    rep, _ = criteria.classify(sampling.random_physical_covmats(rng, 1)[0])
    doc = json.loads(core.record_json(vars(rep)))
    assert doc["delta_epr"] == rep.delta_epr
    assert doc["fidelity"] == rep.fidelity
    assert doc["det_m"] == rep.det_m
    assert doc["qt"] is rep.qt
    assert list(doc) == [
        "delta_epr", "f_epr", "det_m", "fidelity", "entangled", "epr_correlated", "qt",
    ]


def test_report_json_nan_becomes_null():
    rep, _ = criteria.classify(0.1 * np.eye(4))
    doc = json.loads(core.record_json(vars(rep)))
    assert doc["delta_epr"] is None
    assert doc["fidelity"] is None


# ------------------------------------------------------------ properties


def test_epr_correlation_implies_teleportation(rng):
    Vs = sampling.random_physical_covmats(rng, 10_000)
    delta = criteria.epr_uncertainty(Vs)
    detm = np.linalg.det(criteria.m_matrix(Vs))
    assert not np.any((delta < 2.0) & (detm >= 4.0))


def test_separable_states_never_beat_classical_fidelity(rng):
    Vs = sampling.random_separable_covmats(rng, 10_000)
    assert np.max(criteria.fidelity(Vs)) <= 0.5 + 1e-10


@given(
    eta=st.floats(0.5, 4.0),
    zeta=st.floats(0.5, 4.0),
    c1=st.floats(-4.0, 4.0),
    c2=st.floats(-4.0, 4.0),
)
@settings(max_examples=300, deadline=None)
def test_detm_forms_agree_everywhere(eta, zeta, c1, c2):
    a = criteria.detm_values(eta, zeta, c1, c2)
    b = criteria.detm_epsilon_values(eta, zeta, c1, c2)
    assert abs(a - b) < 1e-9


@given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_qt_epr_rhs_at_least_one(c1, c2):
    _, rhs, _ = criteria.qt_epr_values(1.0, 1.0, c1, c2)
    assert rhs >= 1.0
