"""The reduced Poincare function on (I, theta) grids, for portraits.

The cells go through the crossing kernel (scattering._CrossingScan) _CHUNK
at a time; the primary crossing and the value are then taken with
reduced_poincare's operations on arrays, so each cell holds the float
reduced_poincare returns, or NaN where its segment misses the crest (holes).
"""
from __future__ import annotations

import numpy as np

from .model import TWO_PI, ModelParams, amp_A00, amp_A01, amp_A10, crest_coefficient
from .scattering import _CHUNK, CrestBranch, _CrossingScan


def reduced_poincare_grid(params: ModelParams, I_values: np.ndarray,
                          theta_values: np.ndarray,
                          crest: CrestBranch = CrestBranch.MAXIMUM) -> np.ndarray:
    """Grid of the reduced function, shape (len(I_values), len(theta_values))."""
    I_values = np.asarray(I_values, dtype=float)
    thetas = np.asarray(theta_values, dtype=float)
    coeff = np.array([crest_coefficient(params, I) for I in I_values.tolist()])
    a10 = np.array([amp_A10(params, I) for I in I_values.tolist()])
    out = np.full((len(I_values), len(thetas)), np.nan)
    flat = out.reshape(-1)
    scan = _CrossingScan(crest, flat.size)
    for start in range(0, flat.size, _CHUNK):
        row, col = np.divmod(np.arange(start, min(start + _CHUNK, flat.size)),
                             len(thetas))
        I, phi = I_values[row], thetas[col]
        point, sigma = scan.crossings(coeff[row], I, phi, np.zeros(len(row)))
        # each point's smallest |tau| = |0 - sigma|, ties toward the smaller tau
        first = np.flatnonzero(np.diff(point, prepend=-1))
        nearest = np.minimum.reduceat(np.abs(sigma), first)
        tied = np.abs(sigma) == np.repeat(nearest, np.diff(first, append=len(point)))
        sigma = np.maximum.reduceat(np.where(tied, sigma, -np.inf), first)
        k = point[first]
        psi = _wrap_angles(phi[k] - I[k] * (0.0 - sigma))
        flat[start + k] = (amp_A00(params) + a10[row[k]] * np.cos(psi)
                           + amp_A01(params) * np.cos(sigma))
    return out


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """model.wrap_angle on arrays, with its operations."""
    y = np.fmod(x, TWO_PI)
    y = np.where(y < 0.0, y + TWO_PI, y)
    return np.where(y >= TWO_PI, 0.0, y) + 0.0
