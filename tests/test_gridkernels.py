
import numpy as np
import pytest

from scatmap import ModelParams
from scatmap.crests import CrestBranch
from scatmap.errors import NoCrossing, SingularCrest
from scatmap.gridkernels import reduced_poincare_grid
from scatmap.model import TWO_PI, crest_coefficient
from scatmap.scattering import _BLOCK, reduced_poincare

THETAS = np.linspace(0.0, TWO_PI, 40, endpoint=False)


def scalar_grid(params, I_vals, thetas, crest=CrestBranch.MAXIMUM):
    """Scalar reduced_poincare cell by cell, NaN where it raises: the segment
    misses the crest or the crest is singular."""
    out = np.empty((len(I_vals), len(thetas)))
    for i, I in enumerate(np.asarray(I_vals).tolist()):
        for j, th in enumerate(np.asarray(thetas).tolist()):
            try:
                out[i, j] = reduced_poincare(params, I, th, crest)
            except (NoCrossing, SingularCrest):
                out[i, j] = np.nan
    return out


def test_matches_scalar_single_regime(p06):
    I_vals = np.linspace(-2.5, 2.5, 7)
    Z = reduced_poincare_grid(p06, I_vals, THETAS)
    assert np.array_equal(Z, scalar_grid(p06, I_vals, THETAS), equal_nan=True)


def test_matches_scalar_holes_regime(p15):
    # at theta = pi (THETAS[20]) many of these actions have two admissible
    # roots +-r, exactly symmetric; the tie goes to +r (the smaller tau).
    # The last action makes the crest coefficient exactly 1: a singular row
    I_vals = np.append(np.linspace(-3.5, 3.5, 141), 0.5041156496613117)
    assert crest_coefficient(p15, I_vals[-1]) == 1.0
    Z = reduced_poincare_grid(p15, I_vals, THETAS)
    ref = scalar_grid(p15, I_vals, THETAS)
    good = ~np.isnan(ref)
    assert good.sum() > 0 and (~good).sum() > 0 and np.isnan(ref[-1]).all()
    assert np.array_equal(Z, ref, equal_nan=True)


@pytest.mark.parametrize("mu", [0.6, 0.9, 1.5])
def test_minimum_crest_matches_scalar(mu):
    params = ModelParams(0.0, mu, 1.0, eps=0.01)
    I_vals = np.linspace(-3.3, 3.1, 9)
    Z = reduced_poincare_grid(params, I_vals, THETAS, CrestBranch.MINIMUM)
    ref = scalar_grid(params, I_vals, THETAS, CrestBranch.MINIMUM)
    assert np.array_equal(Z, ref, equal_nan=True)


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
    assert np.array_equal(Z, scalar_grid(params, I_vals, thetas), equal_nan=True)


def test_primary_crossing_picked_by_root(p15):
    # two brackets whose midpoints tie in |sigma|: the refined root decides
    I, theta = float(README_I[55]), float(README_THETA[164])
    assert (round(I, 4), round(theta, 4)) == (-2.8972, 2.5761)
    value = reduced_poincare_grid(p15, README_I[55:56], README_THETA)[0, 164]
    assert round(value, 6) == 2.029773
    assert value == reduced_poincare(p15, I, theta)


def test_partial_last_block(p15):
    # 37 x 41 = 1,517 cells, not a multiple of the kernel block: the last
    # block is partial, and the singular row (24) holds the first block edge
    I_vals = np.linspace(-3.5, 3.5, 37)
    I_vals[24] = 0.5041156496613117
    thetas = np.linspace(0.0, TWO_PI, 41, endpoint=False)
    thetas[20] = np.pi   # the theta = pi ties of the holes regime
    assert I_vals.size * thetas.size % _BLOCK and 24 * 41 < _BLOCK < 25 * 41
    Z = reduced_poincare_grid(p15, I_vals, thetas)
    ref = scalar_grid(p15, I_vals, thetas)
    assert np.isnan(ref[24]).all() and not np.isnan(ref).all()
    assert np.array_equal(Z, ref, equal_nan=True)
