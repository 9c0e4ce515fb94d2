"""The symmetry check of spectral.eig_sym without its bitwise fast path: every
input is checked against the tolerance and solved as 0.5 * (M + M^T).  Kept as
the reference the fast path must match bit for bit."""
from __future__ import annotations

import numpy as np

from percobound import spectral


def checked_symmetric(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[-1] == 0:
        raise ValueError("matrix must have at least one row")
    T = M.mT
    scale = np.abs(M).sum(axis=-1).max(axis=-1, initial=1.0)
    asym = np.abs(M - T).max(axis=(-2, -1))
    bad = asym > spectral._SYMMETRY_RTOL * scale
    if np.count_nonzero(bad):
        k = int(np.flatnonzero(bad)[0])
        which = f"matrix {k} of the stack" if M.ndim == 3 else "matrix"
        raise ValueError(
            f"{which} is not symmetric: max |M - M^T| entry is {asym.flat[k]:.3e}"
        )
    return 0.5 * (M + T)
