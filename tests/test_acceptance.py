"""Acceptance gate: the ten end-to-end checks, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines on the terminal.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

import gaussqt.core as core
import gaussqt.criteria as criteria
import gaussqt.oracle as oracle
import gaussqt.resources as resources
import gaussqt.sampling as sampling
import gaussqt.sweep as sweep
from conftest import two_mode_squeezer

SEED = 715517


def _line(num, ok, desc):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def tmsv(r):
    S = two_mode_squeezer(r)
    return S @ (0.5 * np.eye(4)) @ S.T


def _columns(config):
    """A sweep's column arrays: its chunks concatenated, by column name."""
    chunks = list(sweep.run_sweep(config))
    return {name: np.concatenate([chunk[name] for chunk in chunks]) for name in chunks[0]}


def test_criterion_01_closed_form_matches_quadrature():
    states = [
        0.5 * np.eye(4),
        tmsv(0.1),
        tmsv(0.5),
        tmsv(1.0),
        resources.tmst_covmat(0.48, 1.5, 0.75),
        resources.bs_covmat(0.5, 0.5, 0.25),
        resources.bs_covmat(0.5, 0.5, 0.5),
        resources.bs_covmat(0.5, 0.5, 0.75),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for V in states:
        closed = criteria.fidelity(V)
        quad = oracle.fidelity_by_quadrature(V).value
        worst = max(worst, abs(closed - quad))
    vac_quad = oracle.fidelity_by_quadrature(0.5 * np.eye(4)).value
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and abs(vac_quad - 0.5) < 1e-6 and elapsed < 30.0
    _line(
        1, ok,
        f"closed-form fidelity matches quadrature on 8 reference states "
        f"(worst |diff| = {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_epr_correlation_suffices_for_teleportation():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    Vs = sampling.random_physical_covmats(rng, 100_000)
    delta = criteria.epr_uncertainty(Vs)
    detm = np.linalg.det(criteria.m_matrix(Vs))
    violations = int(np.sum((delta < 2.0) & (detm >= 4.0)))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _line(
        2, ok,
        f"Delta < 2 implies det M < 4 on 1e5 random states "
        f"({violations} violations, {elapsed:.1f}s)",
    )


def test_criterion_03_equal_correlation_class_collapses_qt_to_epr():
    rng = np.random.default_rng(SEED)
    n = 100_000
    r = rng.uniform(0.0, 2.0, size=n)
    k1 = rng.uniform(0.5, 3.0, size=n)
    k2 = rng.uniform(0.5, 3.0, size=n)
    ch, sh = np.cosh(r), np.sinh(r)
    eta = ch * ch * k1 + sh * sh * k2
    zeta = sh * sh * k1 + ch * ch * k2
    c = ch * sh * (k1 + k2)
    _, _, qt = criteria.qt_epr_values(eta, zeta, c, c)
    delta = 2.0 * (eta + zeta) - 4.0 * c
    exceptions = int(np.sum(qt != (delta < 2.0)))
    ok = exceptions == 0
    _line(
        3, ok,
        f"qt iff Delta < 2 on 1e5 equal-correlation canonical states "
        f"({exceptions} exceptions)",
    )


def _threshold_grid():
    rng = np.random.default_rng(SEED)
    pairs = list(zip(rng.uniform(0.5, 3.0, 100), rng.uniform(0.5, 3.0, 100)))
    return pairs


def test_criterion_04_entanglement_threshold_matches_bisection():
    worst = 0.0
    for k1, k2 in _threshold_grid():
        def gap(r):
            V = resources.tmst_covmat(r, k1, k2)
            return float(core.ppt_nu_minus(V)) - 0.5

        r_formula = resources.r_ent_threshold(k1, k2)
        r_bisect = brentq(gap, 0.0, 4.0, xtol=1e-10)
        worst = max(worst, abs(r_formula - r_bisect))
    ok = worst < 1e-6
    _line(
        4, ok,
        f"entanglement threshold formula matches PPT bisection on 100 "
        f"thermal pairs (worst |diff| = {worst:.2e})",
    )


def test_criterion_05_teleportation_threshold_matches_bisection():
    worst = 0.0
    order_ok = True
    for k1, k2 in _threshold_grid():
        def gap(r):
            V = resources.tmst_covmat(r, k1, k2)
            return float(core._det2(criteria.m_matrix(V))) - 4.0

        r_formula = resources.r_qt_threshold(k1, k2)
        r_bisect = brentq(gap, 0.0, 4.0, xtol=1e-10)
        worst = max(worst, abs(r_formula - r_bisect))
        if r_formula < resources.r_ent_threshold(k1, k2) - 1e-12:
            order_ok = False
    sym_ok = all(
        abs(resources.r_qt_threshold(k, k) - resources.r_ent_threshold(k, k)) < 1e-9
        for k in (0.5, 1.0, 1.7, 2.9)
    )
    ok = worst < 1e-6 and order_ok and sym_ok
    _line(
        5, ok,
        f"teleportation threshold matches det M = 4 bisection, sits above the "
        f"entanglement threshold, and merges on the diagonal "
        f"(worst |diff| = {worst:.2e})",
    )


def test_criterion_06_thermal_plane_region_topology():
    n = 201
    cfg = sweep.SweepConfig(
        family="tmst",
        r=0.48,
        axis1=sweep.AxisSpec("k1", 0.5, 2.5, n),
        axis2=sweep.AxisSpec("k2", 0.5, 2.5, n),
    )
    g = _columns(cfg)
    ent = g["entangled"].reshape(n, n)
    qt = g["qt"].reshape(n, n)
    k1 = g["axis1"].reshape(n, n)
    k2 = g["axis2"].reshape(n, n)

    containment = bool(np.all(~qt | ent)) and bool((ent & ~qt).any())
    idx = np.arange(n)
    diagonal = bool(np.all(ent[idx, idx] == qt[idx, idx]))

    s_true = math.exp(0.96)  # det M = 4 exactly at k1 + k2 = e^{2r}
    cell = float(k2[0, 1] - k2[0, 0])
    boundary = True
    for i in range(n):
        row = qt[i]  # qt holds below the threshold sum, so rows switch off
        base = float(k1[i, 0])
        if row.all():
            boundary &= s_true >= base + 2.5 - cell
        elif not row.any():
            boundary &= s_true <= base + 0.5 + cell
        else:
            j = int(np.argmax(~row))
            lo = base + float(k2[i, j - 1])
            hi = base + float(k2[i, j])
            boundary &= lo <= s_true <= hi
    ok = containment and diagonal and boundary
    _line(
        6, ok,
        "thermal-plane sweep: teleportation region sits strictly inside "
        "entanglement, collapses onto it on the diagonal, and its boundary "
        "tracks k1 + k2 = e^{2r} within one cell",
    )


def test_criterion_07_beam_splitter_plane_region_topology():
    n = 151
    cfg = sweep.SweepConfig(
        family="bs",
        r=0.5,
        axis1=sweep.AxisSpec("k", 0.5, 2.0, n),
        axis2=sweep.AxisSpec("T", 0.05, 0.95, n),
    )
    g = _columns(cfg)
    ent = g["entangled"].reshape(n, n)
    qt = g["qt"].reshape(n, n)
    epr = g["epr"].reshape(n, n)
    T = g["axis2"].reshape(n, n)

    no_epr_without_qt = int((epr & ~qt).sum()) == 0
    some_qt_without_epr = int((qt & ~epr).sum()) >= 1
    j = int(np.argmin(np.abs(T[0] - 0.5)))
    balanced = bool(
        np.all(ent[:, j] == qt[:, j]) and np.all(qt[:, j] == epr[:, j])
    )
    ok = no_epr_without_qt and some_qt_without_epr and balanced
    _line(
        7, ok,
        "beam-splitter sweep: EPR correlation never outruns teleportation, "
        "teleportation without EPR exists, and the balanced column ties all "
        "three flags together",
    )


def test_criterion_08_determinant_and_ppt_verdicts_agree():
    rng = np.random.default_rng(SEED)
    Vs = sampling.random_physical_covmats(rng, 100_000)
    lhs = core.simon_lhs(Vs)
    nm = core.ppt_nu_minus(Vs)
    simon = lhs > 1.0
    ppt = nm < 0.5 - 1e-10
    off_boundary = (np.abs(lhs - 1.0) > 1e-10) & (np.abs(nm - 0.5) > 1e-10)
    disagreements = int(np.sum((simon != ppt) & off_boundary))
    ok = disagreements == 0
    _line(
        8, ok,
        f"determinant-form and PPT verdicts agree off-boundary on 1e5 states "
        f"({disagreements} disagreements)",
    )


def test_criterion_09_separable_states_obey_classical_bound():
    rng = np.random.default_rng(SEED)
    Vs = sampling.random_separable_covmats(rng, 100_000)
    worst = float(np.max(criteria.fidelity(Vs)))
    ok = worst <= 0.5 + 1e-10
    _line(
        9, ok,
        f"1e5 separable products never beat fidelity 1/2 (max = {worst:.12f})",
    )


def test_criterion_10_fidelity_grows_with_epr_degree():
    eps = 0.05 * np.arange(1, 21)
    c = 0.5 * (1.0 + eps)  # eta = zeta = 1 puts the EPR degree at eps
    detm = criteria.detm_values(1.0, 1.0, c, c)
    fid = 1.0 / np.sqrt(detm)
    increasing = bool(np.all(np.diff(fid) > 0))
    closed = bool(np.max(np.abs(detm - (2.0 - eps) ** 2)) < 1e-12)
    ok = increasing and closed
    _line(
        10, ok,
        "fidelity increases strictly along the EPR-degree ladder "
        "(det M = (2 - eps)^2 throughout)",
    )
