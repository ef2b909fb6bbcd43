import math

import numpy as np
import pytest

from scatmap import ModelParams
from scatmap.errors import NoCrossing, ScatmapError
from scatmap.gridkernels import reduced_poincare_grid, reduced_poincare_row
from scatmap.model import TWO_PI
from scatmap.scattering import reduced_poincare

THETAS = np.linspace(0.0, TWO_PI, 40, endpoint=False)


def scalar_row(params, I):
    out = np.empty(len(THETAS))
    for j, th in enumerate(THETAS):
        try:
            out[j] = reduced_poincare(params, I, float(th))
        except NoCrossing:
            out[j] = np.nan
    return out


def test_matches_scalar_single_regime(p06):
    I_vals = np.linspace(-2.5, 2.5, 7)
    Z = reduced_poincare_grid(p06, I_vals, THETAS)
    for i, I in enumerate(I_vals):
        ref = scalar_row(p06, float(I))
        np.testing.assert_allclose(Z[i], ref, atol=1e-10)


def test_matches_scalar_holes_regime(p15):
    Z = reduced_poincare_grid(p15, np.array([1.0]), THETAS)[0]
    ref = scalar_row(p15, 1.0)
    assert np.array_equal(np.isnan(Z), np.isnan(ref))
    good = ~np.isnan(ref)
    assert good.sum() > 0 and (~good).sum() > 0
    np.testing.assert_allclose(Z[good], ref[good], atol=1e-9)


def test_even_rows(p06):
    Z = reduced_poincare_grid(p06, np.array([-1.3, 1.3]), THETAS)
    np.testing.assert_allclose(Z[0], Z[1], atol=1e-12)


# every 10th action and every 8th angle of the README 400x400 portrait grid;
# the subset holds the cell (I, theta) = (-2.8972, 2.5761)
README_I = np.linspace(-4.0, 4.0, 400)
README_THETA = np.linspace(0.0, TWO_PI, 400, endpoint=False)


@pytest.mark.parametrize("mu", [0.6, 0.9, 1.5])
def test_full_grid_matches_scalar(mu):
    params = ModelParams(0.0, mu, 1.0, eps=0.01)
    I_vals, thetas = README_I[5::10], README_THETA[4::8]
    Z = reduced_poincare_grid(params, I_vals, thetas)
    ref = np.empty_like(Z)
    for i, I in enumerate(I_vals.tolist()):
        for j, th in enumerate(thetas.tolist()):
            try:
                ref[i, j] = reduced_poincare(params, I, th)
            except NoCrossing:
                ref[i, j] = np.nan
    assert np.array_equal(np.isnan(Z), np.isnan(ref))
    np.testing.assert_allclose(Z, ref, atol=1e-12)


def test_primary_crossing_picked_by_root(p15):
    # two brackets whose midpoints tie in |sigma|: the refined root decides
    I, theta = float(README_I[55]), float(README_THETA[164])
    assert (round(I, 4), round(theta, 4)) == (-2.8972, 2.5761)
    value = reduced_poincare_row(p15, I, README_THETA)[164]
    assert round(value, 6) == 2.029773
    assert value == pytest.approx(reduced_poincare(p15, I, theta), abs=1e-12)
