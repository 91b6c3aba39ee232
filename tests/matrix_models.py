"""Matrix-model samplers of simple spectra, independent of the package's densities.

Trace-normalized Ginibre matrices G G^dagger follow the Hilbert-Schmidt
ensemble, and A A^dagger with A = (I + U) G, U Haar-unitary, follows the
Bures ensemble.  The tests compare the rejection samplers against them.
"""

import math

import numpy as np


def _descending_spectra(W: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvalsh(W)
    ev /= ev.sum(axis=1, keepdims=True)
    return ev[:, ::-1]


def _ginibre(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))


def ginibre_spectra(rng: np.random.Generator, m: int, n: int = 3) -> np.ndarray:
    """m Hilbert-Schmidt spectra of dimension n, rows descending."""
    G = _ginibre(rng, m, n)
    return _descending_spectra(G @ np.conj(np.swapaxes(G, 1, 2)))


def bures_spectra(rng: np.random.Generator, m: int, n: int = 3) -> np.ndarray:
    """m Bures spectra of dimension n from the (I + U) G model, rows descending."""
    G = _ginibre(rng, m, n)
    Z = _ginibre(rng, m, n) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    diag = np.einsum("nii->ni", R)
    U = Q * (diag / np.abs(diag))[:, None, :]
    A = (np.eye(n) + U) @ G
    return _descending_spectra(A @ np.conj(np.swapaxes(A, 1, 2)))
