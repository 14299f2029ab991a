"""Shared fixtures and independent cross-check routes for the test suite.

The helpers here deliberately avoid the package's own kernels: symplectic
spectra come from the block-determinant closed form or a Hermitian
eigenproblem, resource states from explicit symplectic products, and the
teleportation matrix from entrywise arithmetic.  Tests compare the package
against these routes so that a shared bug cannot hide.
"""

import math

import numpy as np
import pytest

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def det_block_nu(V):
    """Symplectic pair via the block-determinant closed form.

    Accurate to ~1e-7 near pure states (the discriminant cancels), so
    comparisons against it use a loose tolerance there.
    """
    V = np.asarray(V, dtype=float)
    a = np.linalg.det(V[..., :2, :2])
    b = np.linalg.det(V[..., 2:, 2:])
    c = np.linalg.det(V[..., :2, 2:])
    delta = a + b + 2.0 * c
    disc = np.clip(delta * delta - 4.0 * np.linalg.det(V), 0.0, None)
    root = np.sqrt(disc)
    lo = np.sqrt(np.clip(0.5 * (delta - root), 0.0, None))
    hi = np.sqrt(0.5 * (delta + root))
    return lo, hi


def det_block_ppt_nu(V):
    """Same closed form after flipping the sign of det C (partial transpose)."""
    V = np.asarray(V, dtype=float)
    a = np.linalg.det(V[..., :2, :2])
    b = np.linalg.det(V[..., 2:, 2:])
    c = np.linalg.det(V[..., :2, 2:])
    delta = a + b - 2.0 * c
    disc = np.clip(delta * delta - 4.0 * np.linalg.det(V), 0.0, None)
    root = np.sqrt(disc)
    return np.sqrt(np.clip(0.5 * (delta - root), 0.0, None))


def williamson_nu(V):
    """Symplectic pair via eigvalsh of i V^{1/2} Omega V^{1/2}.

    Hermitian route: no cancellation, accurate for pure states too.
    """
    V = np.asarray(V, dtype=float)
    w, U = np.linalg.eigh(V)
    half = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    herm = 1j * (half @ OMEGA @ half)
    ev = np.sort(np.abs(np.linalg.eigvalsh(herm)))
    return 0.5 * (ev[0] + ev[1]), 0.5 * (ev[2] + ev[3])


def two_mode_squeezer(r):
    """Symplectic matrix of the two-mode squeezer in (x_a, p_a, x_b, p_b)."""
    ch, sh = math.cosh(r), math.sinh(r)
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )


def squeezed_thermal_blocks(r, k, T):
    """Beam-splitter output blocks from the closed mixing formulas."""
    sigma = np.diag([k * math.exp(-2.0 * r), k * math.exp(2.0 * r)])
    eye = 0.5 * np.eye(2)
    A = T * sigma + (1.0 - T) * eye
    B = (1.0 - T) * sigma + T * eye
    C = math.sqrt(T * (1.0 - T)) * (eye - sigma)
    return A, B, C


def m_entries(V):
    """Teleportation matrix assembled entry by entry from covariances."""
    V = np.asarray(V, dtype=float)
    m00 = V[..., 0, 0] + V[..., 2, 2] - 2.0 * V[..., 0, 2] + 1.0
    m11 = V[..., 1, 1] + V[..., 3, 3] + 2.0 * V[..., 1, 3] + 1.0
    m01 = V[..., 0, 1] - (V[..., 1, 2] - V[..., 0, 3]) - V[..., 2, 3]
    out = np.empty(V.shape[:-2] + (2, 2))
    out[..., 0, 0] = m00
    out[..., 1, 1] = m11
    out[..., 0, 1] = m01
    out[..., 1, 0] = m01
    return out


def epr_combo_variance(V):
    """Var(x_a - x_b) + Var(p_a + p_b) read off the covariance entries."""
    V = np.asarray(V, dtype=float)
    return (
        V[..., 0, 0]
        + V[..., 2, 2]
        - 2.0 * V[..., 0, 2]
        + V[..., 1, 1]
        + V[..., 3, 3]
        + 2.0 * V[..., 1, 3]
    )


def m_matmul(V):
    """Teleportation matrix by the defining expression, with sigma_z products
    as batched 2x2 matmuls: the order of operations the package's entrywise
    M must reproduce bit for bit."""
    V = np.asarray(V, dtype=float)
    A, B, C = V[..., :2, :2], V[..., 2:, 2:], V[..., :2, 2:]
    sz = np.diag([1.0, -1.0])
    return A - (C @ sz + sz @ np.swapaxes(C, -1, -2)) + sz @ B @ sz + np.eye(2)


def integrate_einsum(V, radius, n):
    """The oracle's midpoint grid integral in its original form: an (n, n, 4)
    stack of displacement vectors on the meshgrid and a three-operand einsum,
    whose bits ``oracle._integrate`` must reproduce."""
    h = 2.0 * radius / n
    x = -radius + (np.arange(n) + 0.5) * h
    w = np.full(n, h)
    re, im = np.meshgrid(x, x, indexing="ij")
    u = math.sqrt(2.0) * np.stack([im, -re, -im, -re], axis=-1)
    q = np.einsum("...i,ij,...j->...", u, V, u)
    integrand = np.exp(-(re * re + im * im) - 0.5 * q)
    return float(np.sum(integrand * np.outer(w, w))) / math.pi


def reference_rows(columns, fmt, tables=None):
    """``core._row_blocks``'s rows, one value at a time: each value's own
    ``_token_rule`` token (a coded column's value looked up in its table
    first), then one ``%s`` per field of a row template written here.  The token rules are the
    package's by design; what this checks is the writer's deduplication, its
    inline conversions and its joins."""
    from gaussqt import core

    tables = tables or {}
    if fmt == "csv":
        template = ",".join(["%s"] * len(columns))
    else:
        template = "{" + ", ".join(f'"{k.replace("%", "%%")}": %s' for k in columns) + "}"
    values = [(np.asarray(tables[k])[column] if k in tables else np.asarray(column)).tolist()
              for k, column in columns.items()]
    return [template % tuple(core._token_rule(v, fmt)(v) for v in row) for row in zip(*values)]
