"""Vectorized evaluation of the reduced Poincare function on (I, theta) grids.

The scalar path in scattering.py is the reference; this module redoes the
crossing search with numpy so a 400x400 portrait stays interactive.  The
primary crossing is picked by its refined root, smallest |sigma| first and
ties toward the larger sigma, as in the scalar path.  Cells whose torus
segment misses the crest (holes) come back as NaN.
"""
from __future__ import annotations

import numpy as np

from .model import ModelParams, amp_A00, amp_A01, amp_A10, crest_coefficient
from .scattering import CrestBranch, _sigma_window

_N_SIGMA = 256
_BISECT_ITERS = 48


def reduced_poincare_row(params: ModelParams, I: float, thetas: np.ndarray,
                         crest: CrestBranch = CrestBranch.MAXIMUM) -> np.ndarray:
    """Minimal-|tau| reduced function for one action and many thetas."""
    a = crest_coefficient(params, I)
    lo, hi = _sigma_window(crest)
    sig = np.linspace(lo, hi, _N_SIGMA)[None, :]
    th = np.asarray(thetas, dtype=float)[:, None]
    c = a * np.sin(th + I * sig) + np.sin(sig)

    sign_change = c[:, :-1] * c[:, 1:] < 0.0
    if abs(a) > 1.0:
        # vertical crest: keep only the component through (0, 0) (cos psi > 0
        # for the maximum crest); the rest belongs to the other crest family
        mid_sig = 0.5 * (sig[0, :-1] + sig[0, 1:])[None, :]
        cos_psi = np.cos(th + I * mid_sig)
        keep = cos_psi > 0.0 if crest is CrestBranch.MAXIMUM else cos_psi < 0.0
        sign_change &= keep
    any_root = sign_change.any(axis=1)

    # bisect the bracketing cell whose midpoint minimizes |sigma|
    abs_mid = np.abs(0.5 * (sig[0, :-1] + sig[0, 1:]))
    penalty = np.where(sign_change, abs_mid[None, :], np.inf)
    best = np.argmin(penalty, axis=1)
    rows = np.arange(th.shape[0])
    s_root = _bisect(a, I, th[:, 0], sig[0], best, c[rows, best])

    # a root lies within half a step of its cell's midpoint, so in a theta
    # with several brackets another cell can hold a smaller |root| only if
    # its |midpoint| is within one step of the best one; bisect those too and
    # pick by the refined root, ties toward the larger sigma (the smaller
    # tau), as the scalar path does
    multi = np.nonzero(sign_change.view(np.uint8).sum(axis=1, dtype=np.uint16) > 1)[0]
    pen = penalty[multi]
    at = np.arange(multi.size)
    near = pen <= pen[at, best[multi]][:, None] + (sig[0, 1] - sig[0, 0])
    near[at, best[multi]] = False
    k, j = np.nonzero(near)
    if k.size:
        k = multi[k]
        other = _bisect(a, I, th[k, 0], sig[0], j, c[k, j])
        for r, cand in zip(k.tolist(), other.tolist()):
            if (abs(cand), -cand) < (abs(s_root[r]), -s_root[r]):
                s_root[r] = cand

    psi = th[:, 0] + I * s_root
    out = (amp_A00(params) + amp_A10(params, I) * np.cos(psi)
           + amp_A01(params) * np.cos(s_root))
    out[~any_root] = np.nan
    return out


def _bisect(a: float, I: float, th: np.ndarray, sig: np.ndarray,
            cell: np.ndarray, f_lo: np.ndarray) -> np.ndarray:
    """Root of c in the scan cell [sig[cell], sig[cell + 1]] of each theta."""
    s_lo = sig[cell]
    s_hi = sig[cell + 1]
    for _ in range(_BISECT_ITERS):
        s_mid = 0.5 * (s_lo + s_hi)
        f_mid = a * np.sin(th + I * s_mid) + np.sin(s_mid)
        take_low = f_lo * f_mid <= 0.0
        s_hi = np.where(take_low, s_mid, s_hi)
        s_lo = np.where(take_low, s_lo, s_mid)
        f_lo = np.where(take_low, f_lo, f_mid)
    return 0.5 * (s_lo + s_hi)


def reduced_poincare_grid(params: ModelParams, I_values: np.ndarray,
                          theta_values: np.ndarray,
                          crest: CrestBranch = CrestBranch.MAXIMUM) -> np.ndarray:
    """Grid of the reduced function, shape (len(I_values), len(theta_values))."""
    out = np.empty((len(I_values), len(theta_values)))
    for k, I in enumerate(I_values):
        out[k] = reduced_poincare_row(params, float(I), theta_values, crest)
    return out
