"""Tests of the benchmark's independent reference crossing.

    python -m pytest bench/test_reference.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from scatmap import ModelParams  # noqa: E402
from scatmap.gridkernels import reduced_poincare_grid  # noqa: E402
from scatmap.scattering import reduced_poincare, tau_star  # noqa: E402


def _points(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 2.0 * math.pi, n)


@pytest.mark.parametrize("mu", [0.6, 0.9, 1.5])
def test_every_root_has_tiny_residual(mu):
    I, theta = _points()
    cell, sigma = ref.all_crossings(mu, I, theta)
    assert cell.size >= len(I) // 2
    res = ref.crest_function(mu, I[cell], theta[cell], sigma)
    assert np.abs(res).max() <= ref.ROOT_RESIDUAL
    assert np.all(np.abs(sigma) <= math.pi / 2.0)


@pytest.mark.parametrize("mu", [0.9, 1.5])
def test_grid_row_path_matches_pointwise_path(mu):
    theta = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    for I in (-2.8972431077694236, -0.5, 1.3, 2.4):
        row = ref.primary_crossing(mu, I, theta)
        pointwise = ref.primary_crossing(mu, np.full(theta.shape, I), theta)
        assert np.array_equal(np.isnan(row), np.isnan(pointwise))
        ok = ~np.isnan(row)
        assert np.abs(row[ok] - pointwise[ok]).max() <= 1e-12


def test_single_regime_one_root_and_agrees_with_tau_star():
    mu = 0.6
    params = ModelParams(0.0, mu, 1.0)
    I, theta = _points(200, seed=1)
    cell, _ = ref.all_crossings(mu, I, theta)
    assert np.array_equal(np.bincount(cell, minlength=len(I)), np.ones(len(I), dtype=int))
    sigma = ref.primary_crossing(mu, I, theta)
    for k in range(len(I)):
        ts = tau_star(params, float(I[k]), float(theta[k]))
        assert abs(ts.sigma - sigma[k]) <= 1e-12


def test_crest_side_filter_makes_holes():
    # vertical crest at mu = 1.5, I = 1.3: some torus lines miss the crest
    theta = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    sigma = ref.primary_crossing(1.5, 1.3, theta)
    assert np.isnan(sigma).any() and not np.isnan(sigma).all()


def test_grid_selection_fault_cell():
    # the 400-grid cell I = -2.8972, theta = 2.5761 at mu = 1.5: the grid picks
    # its crossing by coarse-cell midpoint; reference and scalar path agree
    mu = 1.5
    I = np.linspace(-4.0, 4.0, 400)[55]
    theta = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    want = ref.reduced_poincare(mu, np.full(theta.shape, I), theta)[164]
    assert want == pytest.approx(2.029773, abs=1e-6)
    assert reduced_poincare(ModelParams(0.0, mu, 1.0), float(I), float(theta[164])) \
        == pytest.approx(want, abs=1e-10)
    grid = reduced_poincare_grid(ModelParams(0.0, mu, 1.0), np.array([I]), theta)[0, 164]
    assert grid == pytest.approx(2.647687, abs=1e-6)


def test_regime_thresholds():
    mu_low, mu_high = ref.regime_thresholds()
    assert 0.62 < mu_low < 0.63 and 0.97 < mu_high < 0.98
    # the maxima are stationary: nearby values are not larger
    for f, m in ((ref.beta, 1.0 / mu_low), (ref.alpha, 1.0 / mu_high)):
        xs = np.linspace(0.1, 6.0, 100_001)
        assert float(f(xs).max()) <= m * (1.0 + 1e-12)
