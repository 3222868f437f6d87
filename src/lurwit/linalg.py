"""Dense complex linear algebra for one- and two-qubit operators.

Everything works on plain numpy arrays of dtype complex128 and shape (2, 2)
or (4, 4). Spectra come from numpy's LAPACK wrapper; the package itself only
validates, combines and re-indexes operators.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10


class NumericsError(RuntimeError):
    """An internal numerical invariant failed (not a caller mistake)."""


def first_failure(ok: np.ndarray) -> tuple | None:
    """Index of the first False entry of a check mask (C order), or None if all pass.

    Write masks as `deviation <= tol` so that a NaN deviation fails.
    """
    if ok.all():
        return None
    return np.unravel_index(int(np.argmin(ok)), ok.shape)


def as_operator(m, dim: int | None = None) -> np.ndarray:
    """Validate and return `m` as a square complex matrix of dim 2 or 4."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in (2, 4):
        raise ValueError(f"only 2x2 and 4x4 matrices are supported, got {a.shape[0]}x{a.shape[0]}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators.

    Block (i, j) of the result equals a[i, j] * b, which realizes the basis
    ordering |HH>, |HV>, |VH>, |VV>.
    """
    a = as_operator(a, dim=2)
    b = as_operator(b, dim=2)
    return np.kron(a, b)


def transpose_second_qubit(a: np.ndarray) -> np.ndarray:
    """Partial transpose on the second qubit of every 4x4 matrix in a (..., 4, 4) array.

    Entry <i,j|out|k,l> equals <i,l|m|k,j>. Applying the map twice returns
    the original array exactly (pure index shuffling, no arithmetic). The
    shape is not validated; `partial_transpose_second` is the checked form.
    """
    return a.reshape(a.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(a.shape)


def partial_transpose_second(m) -> np.ndarray:
    """Transpose the second-qubit indices of one two-qubit operator."""
    return transpose_second_qubit(as_operator(m, dim=4))
