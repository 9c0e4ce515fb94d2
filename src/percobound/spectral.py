"""Dense symmetric eigensolver wrappers: full spectra, operator norm, lambda_2."""
from __future__ import annotations

import numpy as np

__all__ = ["eig_sym", "spectral_norm", "lambda2"]

# Relative symmetry tolerance, measured against the max absolute row sum
# (an upper bound on the spectral norm for symmetric matrices).
_SYMMETRY_RTOL = 1e-10


def _checked_symmetric(M) -> np.ndarray:
    # one check over the last two axes: a 2-d M, or each matrix of a
    # (c, m, m) stack
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[-1] == 0:
        raise ValueError("matrix must have at least one row")
    # Every matrix the library builds equals its transpose bit for bit.  The
    # tolerance check cannot fail on such input, and symmetrizing it gives
    # back M unless an entry overflows when doubled, so return M as it is.
    # Comparing bits, not values, sends -0.0 against +0.0 and unequal NaN
    # payloads down the full path.
    bits = M.view(np.uint64)
    if np.array_equal(bits, bits.mT):
        return M
    T = M.mT
    scale = np.abs(M).sum(axis=-1).max(axis=-1, initial=1.0)
    asym = np.abs(M - T).max(axis=(-2, -1))
    bad = asym > _SYMMETRY_RTOL * scale
    if np.count_nonzero(bad):
        k = int(np.flatnonzero(bad)[0])
        which = f"matrix {k} of the stack" if M.ndim == 3 else "matrix"
        raise ValueError(
            f"{which} is not symmetric: max |M - M^T| entry is {asym.flat[k]:.3e}"
        )
    # Exact symmetry keeps LAPACK deterministic regardless of which triangle
    # it reads.
    return 0.5 * (M + T)


def eig_sym(M) -> np.ndarray:
    """Full spectrum of a symmetric matrix, ascending with multiplicity.

    M may also be a (c, m, m) stack; the result then has shape (c, m), row k
    bit for bit the spectrum eig_sym(M[k]) gives.  Raises ValueError for
    non-square input or when M (or any matrix of the stack, named by its
    index) deviates from symmetry by more than 1e-10 relative to its largest
    absolute row sum.  Input within that tolerance is solved as
    0.5 * (M + M^T), so LAPACK sees exact symmetry; input already equal to
    its transpose bit for bit (every matrix the library builds) skips the
    check and is solved as it is.
    """
    return np.linalg.eigvalsh(_checked_symmetric(M))


def _per_matrix(values: np.ndarray):
    # a matrix gives a Python float, a stack one array entry per matrix
    return float(values) if values.ndim == 0 else values


def spectral_norm(M):
    """Spectral norm, max |eigenvalue|, of a symmetric matrix or of each
    matrix of a (c, m, m) stack.

    A matrix gives a float; a stack gives an array whose entry k is, bit for
    bit, spectral_norm(M[k]).  The spectrum is ascending, so the largest
    magnitude sits at one of its ends.
    """
    vals = eig_sym(M)
    return _per_matrix(np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1])))


def lambda2(M):
    """Second smallest eigenvalue (with multiplicity) of a symmetric matrix
    or of each matrix of a (c, m, m) stack, as spectral_norm returns it."""
    vals = eig_sym(M)
    if vals.shape[-1] < 2:
        raise ValueError("lambda2 needs a matrix of order at least 2")
    return _per_matrix(vals[..., 1])
