"""Independent reference for the crest crossing and the reduced Poincare function.

Nothing here imports scatmap.  The closed forms are restated from the model
(H = p^2/2 + cos q - 1 + I^2/2 + eps cos q (mu cos phi + cos s), that is
a00 = 0, a10 = mu, a01 = 1, as in every workload):

    A00 = 0,  A10(I) = 2 pi mu I / sinh(pi I / 2),  A01 = 2 pi / sinh(pi / 2)
    alpha(I) = sinh(pi/2) I^2 / sinh(pi |I| / 2),  beta(I) = |I| alpha(I)

The crossing of the torus segment through (I, theta) with the maximum crest is
a root sigma in [-pi/2, pi/2] of

    c(sigma) = mu * alpha_signed(I) * sin(theta + I sigma) + sin(sigma).

The reference finds every root by a dense sigma scan plus bisection of each
bracket, keeps only roots on the crest side cos(psi) > 0 (psi = theta + I
sigma) when the crest is vertical (|mu alpha| > 1), and picks the refined root
of smallest |sigma| (ties toward the larger sigma, i.e. the smaller tau).
"""
from __future__ import annotations

import math

import numpy as np

SINH_HALF_PI = math.sinh(math.pi / 2.0)
A01 = 2.0 * math.pi / SINH_HALF_PI

# 8 sub-samples per cell of a 256-sample scan, so every sign change such a
# scan sees is seen here too
N_SIGMA = 255 * 8 + 1
_BISECT_ITERS = 60
_CHUNK = 16
ROOT_RESIDUAL = 1e-12


def alpha(I):
    a = np.abs(np.asarray(I, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = SINH_HALF_PI * a * a / np.sinh(math.pi * a / 2.0)
    return np.where(a < 1e-8, 2.0 * SINH_HALF_PI * a / math.pi, out)


def alpha_signed(I):
    return np.sign(I) * alpha(I)


def beta(I):
    return np.abs(I) * alpha(I)


def amplitude_10(mu: float, I):
    """A10(I) = 2 pi mu I / sinh(pi I / 2), 4 mu at I = 0."""
    I = np.asarray(I, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        a_10 = 2.0 * math.pi * mu * I / np.sinh(math.pi * I / 2.0)
    return np.where(np.abs(I) < 1e-8, 4.0 * mu, a_10)


def crest_function(mu: float, I, theta, sigma):
    """c(sigma); broadcasts over all three arguments."""
    return mu * alpha_signed(I) * np.sin(theta + I * sigma) + np.sin(sigma)


def all_crossings(mu: float, I, theta):
    """Every admissible maximum-crest root of each (I[k], theta[k]) segment.

    Returns (cell, sigma): cell[j] is the index k the root sigma[j] belongs
    to.  theta is a 1-D array; I is a scalar (one grid row) or an array of
    the same length.  The dense scan runs over chunks of segments so that its
    arrays stay small next to the program's own memory; the brackets it
    finds are then refined all at once.
    """
    theta = np.asarray(theta, dtype=float)
    row = np.ndim(I) == 0
    I = np.broadcast_to(np.asarray(I, dtype=float), theta.shape)
    sig = np.linspace(-math.pi / 2.0, math.pi / 2.0, N_SIGMA)
    br_k, br_j, zero_k, zero_j = [], [], [], []
    for start in range(0, len(theta), _CHUNK):
        part = slice(start, start + _CHUNK)
        c = _scan(mu, I[start] if row else I[part], theta[part], sig)
        k, j = np.nonzero(c == 0.0)
        zero_k.append(k + start)
        zero_j.append(j)
        k, j = np.nonzero(c[:, :-1] * c[:, 1:] < 0.0)
        br_k.append(k + start)
        br_j.append(j)
    br_k, br_j = np.concatenate(br_k), np.concatenate(br_j)
    zero_k, zero_j = np.concatenate(zero_k), np.concatenate(zero_j)

    lo = sig[br_j]
    hi = sig[br_j + 1]
    Ib = I[br_k]
    thb = theta[br_k]
    f_lo = crest_function(mu, Ib, thb, lo)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f_mid = crest_function(mu, Ib, thb, mid)
        left = f_lo * f_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        f_lo = np.where(left, f_lo, f_mid)
    # of the two bracket ends keep the one with the smaller residual
    r_lo = np.abs(crest_function(mu, Ib, thb, lo))
    r_hi = np.abs(crest_function(mu, Ib, thb, hi))
    root = np.where(r_lo <= r_hi, lo, hi)

    cell = np.concatenate([br_k, zero_k])
    sigma = np.concatenate([root, sig[zero_j]])
    vertical = np.abs(mu * alpha(I[cell])) > 1.0
    keep = ~vertical | (np.cos(theta[cell] + I[cell] * sigma) > 0.0)
    return cell[keep], sigma[keep]


def _scan(mu: float, I, theta, sig):
    """c on the dense sigma samples, one row per segment."""
    if np.ndim(I) == 0:
        # one action: expand sin(theta + I sigma) so that no 2-D sine is needed
        a = mu * float(alpha_signed(I))
        return a * (np.sin(theta)[:, None] * np.cos(I * sig)
                    + np.cos(theta)[:, None] * np.sin(I * sig)) + np.sin(sig)
    return crest_function(mu, I[:, None], theta[:, None], sig[None, :])


def pick_primary(cell, sigma, n: int):
    """Per segment, the root of smallest |sigma| (ties toward the larger
    sigma, i.e. the smaller tau); NaN where a segment has none."""
    out = np.full(n, np.nan)
    order = np.lexsort((-sigma, np.abs(sigma), cell))
    cell, sigma = cell[order], sigma[order]
    first = np.ones(cell.shape, dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    out[cell[first]] = sigma[first]
    return out


def primary_crossing(mu: float, I, theta):
    """sigma of the primary crossing per segment; NaN where none is admissible."""
    theta = np.asarray(theta, dtype=float)
    return pick_primary(*all_crossings(mu, I, theta), len(theta))


def reduced_value(mu: float, I, theta, sigma):
    """A10(I) cos(psi) + A01 cos(sigma) at psi = theta + I sigma."""
    return amplitude_10(mu, I) * np.cos(theta + I * sigma) + A01 * np.cos(sigma)


def reduced_poincare(mu: float, I, theta):
    """Reference reduced function; NaN where the segment misses the crest."""
    I = np.asarray(I, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sigma = primary_crossing(mu, I, theta)
    return reduced_value(mu, I, theta, sigma)


def continue_root(mu: float, I, theta, sigma0, iters: int = 30):
    """Root of c near sigma0 after a small change of (I, theta), by Newton."""
    s = np.asarray(sigma0, dtype=float).copy()
    a = mu * alpha_signed(I)
    for _ in range(iters):
        psi = theta + I * s
        f = a * np.sin(psi) + np.sin(s)
        df = a * I * np.cos(psi) + np.cos(s)
        s = s - f / df
    return s


def finite_diff_gradient(mu: float, I, theta, sigma, h: float = 1e-5):
    """Central differences (d/dI, d/dtheta) of the reduced function on the
    branch of the crossing sigma, continued to the neighbouring points."""
    def value(ii, tt):
        return reduced_value(mu, ii, tt, continue_root(mu, ii, tt, sigma))

    d_i = (value(I + h, theta) - value(I - h, theta)) / (2.0 * h)
    d_t = (value(I, theta + h) - value(I, theta - h)) / (2.0 * h)
    return d_i, d_t


def _argmax_dense(f, lo: float, hi: float, n: int = 200_001) -> tuple[float, float]:
    """Maximum of a smooth unimodal f: dense scan, then golden-section polish."""
    xs = np.linspace(lo, hi, n)
    k = int(np.argmax(f(xs)))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, n - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        x1 = b - g * (b - a)
        x2 = a + g * (b - a)
        if float(f(x1)) >= float(f(x2)):
            b = x2
        else:
            a = x1
    x = 0.5 * (a + b)
    return x, float(f(x))


def regime_thresholds() -> tuple[float, float]:
    """(1/max beta, 1/max alpha) over I > 0."""
    _, b_max = _argmax_dense(beta, 1e-3, 10.0)
    _, a_max = _argmax_dense(alpha, 1e-3, 10.0)
    return 1.0 / b_max, 1.0 / a_max


def in_breakage_band(mu: float, I) -> np.ndarray:
    """Actions where the maximum crest has a tangency or is vertical:
    |mu| * max(alpha(I), beta(I)) >= 1."""
    return abs(mu) * np.maximum(alpha(I), beta(I)) >= 1.0 - 1e-12
