"""The reduced Poincare function on (I, theta) grids, for portraits.

The cells go to scattering._primary a block at a time and the value is
taken with reduced_poincare's operations on arrays, so each cell holds the
float reduced_poincare returns, or NaN where that raises: where the segment
misses the crest (holes) or the crest is singular.
"""
from __future__ import annotations

import numpy as np

from .model import ModelParams, amp_A00, amp_A01, amp_A10
from .scattering import _BLOCK, CrestBranch, _per_action, _primary


def reduced_poincare_grid(params: ModelParams, I_values: np.ndarray,
                          theta_values: np.ndarray,
                          crest: CrestBranch = CrestBranch.MAXIMUM) -> np.ndarray:
    """Grid of the reduced function, shape (len(I_values), len(theta_values))."""
    I_values = np.asarray(I_values, dtype=float)
    thetas = np.asarray(theta_values, dtype=float)
    a10, = _per_action(params, I_values, amp_A10)
    out = np.empty((len(I_values), len(thetas)))
    flat = out.reshape(-1)
    # one kernel block per call, refined in one brentq_many call; 1,024-cell
    # blocks raise a grid's traced peak by 0.3-0.8 MB over 256-cell chunks
    for start in range(0, flat.size, _BLOCK):
        row, col = np.divmod(np.arange(start, min(start + _BLOCK, flat.size)), len(thetas))
        _, psi, sigma, _ = _primary(params, I_values[row], thetas[col], 0.0, crest)
        flat[start:start + len(row)] = (amp_A00(params) + a10[row] * np.cos(psi)
                                        + amp_A01(params) * np.cos(sigma))
    return out
