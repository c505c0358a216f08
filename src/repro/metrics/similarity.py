"""Cosine similarity.

Used everywhere the paper compares preference-space vectors: item vector
vs. group profile (Eq. 1 and 4), member vs. member (uniformity), and
median-user agreement (Table 3).
"""

from __future__ import annotations

import numpy as np

#: Norms inside this range are exact enough as ``np.linalg.norm`` gives
#: them.  Outside it the squares went subnormal (precision lost) or
#: overflowed, so the vector is first rescaled by a power of two --
#: exact, and cosine does not depend on scale.
_NORM_LOW, _NORM_HIGH = 2.0 ** -500, 2.0 ** 500


def _rescaled(vector: np.ndarray) -> np.ndarray:
    """``vector`` times the power of two that brings its largest
    magnitude into ``[0.5, 1)`` (unchanged when all-zero or non-finite)."""
    if vector.size == 0:
        return vector
    return np.ldexp(vector, -np.frexp(np.max(np.abs(vector)))[1])


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors.

    Returns 0.0 when either vector is all-zero: a zero profile carries
    no preference signal, and treating it as orthogonal to everything
    is the conservative reading.

    >>> cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    1.0
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if not (_NORM_LOW <= norm_a <= _NORM_HIGH
            and _NORM_LOW <= norm_b <= _NORM_HIGH):
        a, b = _rescaled(a), _rescaled(b)
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    norm = float(norm_a * norm_b)
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / norm)


def cosine_rows(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine(row, b)`` for every row of a C-contiguous ``(m, d)``
    matrix, bit for bit.

    Each row's dot products run numpy's 1-D ``dot`` kernel (a ``matmul``
    of ``(1, d)`` by ``(d, 1)`` blocks calls it per block), so norms and
    products are the ones :func:`cosine` computes.  When a norm is one
    ``cosine`` would rescale, every row goes through ``cosine`` itself.
    """
    if rows.shape[1:] != b.shape:
        raise ValueError(f"shape mismatch: {rows.shape[1:]} vs {b.shape}")
    stacked = rows[:, None, :]
    norms = np.sqrt(np.matmul(stacked, rows[:, :, None]).ravel())
    norm_b = np.sqrt(b.dot(b))
    if not (rows.size and _NORM_LOW <= norm_b <= _NORM_HIGH
            and _NORM_LOW <= norms.min() and norms.max() <= _NORM_HIGH):
        return np.array([cosine(row, b) for row in rows], dtype=float)
    return np.matmul(stacked, b[:, None]).ravel() / (norms * norm_b)


def cosine_matrix(rows: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix for the rows of an ``(n, d)`` array.

    Zero rows produce zero similarity against everything (diagonal
    included), consistent with :func:`cosine`.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    outside = (norms < _NORM_LOW) | (norms > _NORM_HIGH)
    if outside.any() and arr.shape[1]:
        arr = arr.copy()
        peaks = np.max(np.abs(arr[outside]), axis=1)
        arr[outside] = np.ldexp(arr[outside], -np.frexp(peaks)[1][:, None])
        norms = np.linalg.norm(arr, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = arr / safe[:, None]
    sims = unit @ unit.T
    zero = norms == 0.0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims
