"""Random covariance-matrix samplers for the property suites.

Physical states are drawn by building a random two-mode squeezed thermal
state (r in [0, 1.5], k1, k2 in [0.5, 3]) and conjugating it with random
local symplectics, each a rotation-squeezer-rotation product (angles
uniform on [0, 2pi), log squeeze uniform on [-0.5, 0.5]).  Physicality is
guaranteed by construction while covering asymmetric, rotated states.

Separable states are products of two independently rotated and squeezed
thermal modes (k S S^T per mode), which bound the teleportation fidelity
by the classical value 1/2.
"""

from __future__ import annotations

import numpy as np

from .resources import tmst_covmat

__all__ = [
    "random_local_symplectics",
    "random_physical_covmats",
    "random_separable_covmats",
]


def _rotations(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.stack(
        [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2
    )


def random_local_symplectics(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2, 2) stack of single-mode symplectics R(t1) diag(e^s, e^-s) R(t2)."""
    t1 = rng.uniform(0.0, 2.0 * np.pi, n)
    t2 = rng.uniform(0.0, 2.0 * np.pi, n)
    s = rng.uniform(-0.5, 0.5, n)
    sq = np.zeros((n, 2, 2))
    sq[:, 0, 0] = np.exp(s)
    sq[:, 1, 1] = np.exp(-s)
    return _rotations(t1) @ sq @ _rotations(t2)


def _block_diag(Sa: np.ndarray, Sb: np.ndarray) -> np.ndarray:
    n = Sa.shape[0]
    S = np.zeros((n, 4, 4))
    S[:, :2, :2] = Sa
    S[:, 2:, 2:] = Sb
    return S


def random_physical_covmats(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4, 4) stack of random physical two-mode covariance matrices."""
    r = rng.uniform(0.0, 1.5, n)
    k1 = rng.uniform(0.5, 3.0, n)
    k2 = rng.uniform(0.5, 3.0, n)
    V = tmst_covmat(r, k1, k2)
    S = _block_diag(
        random_local_symplectics(rng, n), random_local_symplectics(rng, n)
    )
    out = S @ V @ np.swapaxes(S, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def random_separable_covmats(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4, 4) stack of random separable products of single-mode
    rotated/squeezed thermal states."""
    k1 = rng.uniform(0.5, 3.0, n)
    k2 = rng.uniform(0.5, 3.0, n)
    S1 = random_local_symplectics(rng, n)
    S2 = random_local_symplectics(rng, n)
    Va = k1[:, None, None] * (S1 @ np.swapaxes(S1, -1, -2))
    Vb = k2[:, None, None] * (S2 @ np.swapaxes(S2, -1, -2))
    V = np.zeros((n, 4, 4))
    V[:, :2, :2] = 0.5 * (Va + np.swapaxes(Va, -1, -2))
    V[:, 2:, 2:] = 0.5 * (Vb + np.swapaxes(Vb, -1, -2))
    return V
