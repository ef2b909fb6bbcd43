"""roots.brentq and roots.golden_max against SciPy, float for float,
scattering.brentq_many against roots.brentq, and roots.linspace and
roots.arange against NumPy.

Every bracket the library solves is drawn here: crest crossings in all three
regimes (both crests, s != 0), highway lanes, the critical-action scans and
the tangency-band theta inversions.  Results are compared with ==, errors by
type and message.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

import scatmap.scattering as sc
from scatmap import ModelParams
from scatmap.crests import (
    CrestBranch,
    alpha_max,
    beta_max,
    tangency_points,
    theta_of_psi,
)
from scatmap.highways import level_gap
from scatmap.model import TWO_PI, alpha, beta, crest_coefficient
from scatmap.roots import MAX_SAMPLES, arange, brentq, check_samples, golden_max, linspace
from scatmap.scattering import brentq_many

MUS = (0.6, 0.9, 1.5)   # single map, tangency, holes


def params(mu: float) -> ModelParams:
    return ModelParams(a00=0.0, a10=mu, a01=1.0, eps=0.01)


def outcome(solver, f, a, b, **kw):
    """The root, or the (type, message) of the exception raised."""
    try:
        return solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same(f, a, b, **kw):
    ours = outcome(brentq, f, a, b, **kw)
    ref = outcome(optimize.brentq, f, a, b, **kw)
    assert ours == ref, (a, b, ours, ref)
    return ours


def sign_brackets(f, xs):
    """Adjacent samples of xs where f changes sign."""
    vals = [f(x) for x in xs]
    return [(x0, x1) for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:])
            if v0 * v1 < 0.0]


def crest_brackets(p, crest, I, phi, s):
    """The crest function's arguments and its brackets on the kernel's scan,
    with sub-brackets as fine as the grazing rescan's (1/256 of a cell)."""
    args = (crest_coefficient(p, I), phi, I, s)
    f = lambda x: sc._crest_fn(x, *args)
    lo, hi = sc._sigma_window(crest)
    n = max(8, int(math.ceil((hi - lo) / sc._SCAN_STEP)))
    xs = np.linspace(lo, hi, n + 1).tolist()
    brackets = sign_brackets(f, xs)
    for x0, x1 in brackets[:2]:
        sub = np.linspace(x0, x1, 257).tolist()
        brackets += sign_brackets(f, sub)
    return args, brackets


@given(st.sampled_from(MUS), st.sampled_from([CrestBranch.MAXIMUM, CrestBranch.MINIMUM]),
       st.floats(-4.0, 4.0), st.floats(0.0, TWO_PI), st.floats(-1.5, 4.5))
@settings(max_examples=150, deadline=None)
def test_crest_brackets(mu, crest, I, phi, s):
    args, brackets = crest_brackets(params(mu), crest, I, phi, s)
    for x0, x1 in brackets:
        r = assert_same(sc._crest_fn, x0, x1, args=args, xtol=1e-15)
        assert isinstance(r, float)


@given(st.sampled_from(MUS), st.sampled_from([CrestBranch.MAXIMUM, CrestBranch.MINIMUM]),
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, TWO_PI),
                          st.floats(-1.5, 4.5)), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_brentq_many_equals_brentq(mu, crest, points):
    # one lockstep call over every bracket of several segments: coarse and
    # fine brackets converge after different numbers of iterations, and a
    # segment through the origin (phi = s = 0) has c(0) = 0 at a bracket end
    p = params(mu)
    lanes = []
    for I, phi, s in points + [(points[0][0], 0.0, 0.0)]:
        args, brackets = crest_brackets(p, crest, I, phi, s)
        lanes += [(x0, x1, *args) for x0, x1 in brackets]
        if s == 0.0 and phi == 0.0:
            lanes += [(0.0, 0.25, *args), (-0.25, 0.0, *args)]
    x0, x1, *args = (np.array(v) for v in zip(*lanes))
    # the lockstep lanes reproduce brentq only if np.sin gives math.sin's floats
    ends = np.concatenate([x0, x1])
    assert sc._crest_many(ends, *(np.tile(v, 2) for v in args)).tolist() == [
        sc._crest_fn(x, *lane[2:]) for x, lane in zip(ends.tolist(), lanes + lanes)
    ], "np.sin and math.sin differ here: brentq_many cannot equal brentq"
    roots = brentq_many(sc._crest_many, x0, x1, args=tuple(args), xtol=1e-15)
    assert roots.tolist() == [brentq(sc._crest_fn, a, b, args=tuple(rest), xtol=1e-15)
                              for a, b, *rest in lanes]


@given(st.sampled_from(MUS), st.sampled_from(["left", "right"]),
       st.floats(-4.0, 4.0), st.floats(0.02, 0.2))
@settings(max_examples=150, deadline=None)
def test_highway_brackets(mu, side, I, h):
    p = params(mu)
    if abs(crest_coefficient(p, I)) >= 1.0 - 1e-12:
        return  # no lane where the crest is not horizontal
    lo, hi = (0.0, math.pi) if side == "left" else (math.pi, TWO_PI)
    f = lambda psi: level_gap(p, I, psi)
    root = assert_same(f, lo + 1e-13, hi - 1e-13, xtol=1e-14)
    # the traced lane's hinted bracket around the previous root
    if isinstance(root, float):
        a, b = max(lo + 1e-13, root - 0.5 * h), min(hi - 1e-13, root + h)
        if f(a) * f(b) < 0.0:
            assert_same(f, a, b, xtol=1e-14)


@pytest.mark.parametrize("I", [-4.0, -3.996, -3.992])
def test_underflowing_extrapolation_bisects(I):
    # amplitudes near 1e-100: the extrapolation's denominator underflows to
    # 0, where SciPy's C step is inf or NaN and bisects
    p = ModelParams(a00=0.0, a10=1e-105, a01=1e-98)
    f = lambda psi: level_gap(p, I, psi)
    assert isinstance(assert_same(f, math.pi + 1e-13, TWO_PI - 1e-13, xtol=1e-14), float)


@given(st.floats(0.63, 50.0))
@settings(max_examples=25, deadline=None)
def test_root_scan_brackets(mu):
    # critical_actions scans beta - 1/mu and alpha - 1/mu on [1e-6, 30]
    target = 1.0 / mu
    n = int(math.ceil((30.0 - 1e-6) / 1e-2))
    xs = [1e-6 + (30.0 - 1e-6) * k / n for k in range(n + 1)]
    found = 0
    for g in (beta, alpha):
        f = lambda x: g(x) - target
        for x0, x1 in sign_brackets(f, xs):
            assert isinstance(assert_same(f, x0, x1, xtol=1e-14), float)
            found += 1
    assert found >= 2   # beta - 1/mu changes sign twice once mu > 1/max(beta)


@given(st.floats(1.05, 3.4))
@settings(max_examples=60, deadline=None)
def test_theta_inversion_brackets(I):
    # _branch_psi_domains inverts theta(psi) at the tangency-band edges
    p = params(0.9)
    info = tangency_points(p, I)
    if info is None:
        return
    th = lambda psi: theta_of_psi(p, I, psi)
    assert_same(lambda q: th(q) - info.theta1, info.psi2, TWO_PI, xtol=1e-14)
    assert_same(lambda q: th(q) - info.theta2, 0.0, info.psi1, xtol=1e-14)


def test_band_domains_match_scipy():
    p = params(0.9)
    domains = sc._branch_psi_domains(p, 1.5)
    info = tangency_points(p, 1.5)
    th = lambda psi: theta_of_psi(p, 1.5, psi)
    psi_t1 = optimize.brentq(lambda q: th(q) - info.theta1, info.psi2, TWO_PI, xtol=1e-14)
    psi_t2 = optimize.brentq(lambda q: th(q) - info.theta2, 0.0, info.psi1, xtol=1e-14)
    assert domains[sc.Branch.B][1][0] == psi_t1
    assert domains[sc.Branch.A][0][1] == psi_t2


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * x + 1.0, -1.0, 1.0),                      # same sign
    (lambda x: x - 0.5, 1.0, 2.0),                           # same sign, both positive
    (lambda x: math.nan, 0.0, 1.0),                          # NaN at a
    (lambda x: x - 0.5 if x < 1.5 else math.nan, 0.0, 2.0),  # NaN at b
    (lambda x: math.nan if 0.3 < x < 1.5 else x - 0.5, 0.0, 2.0),  # NaN inside
    (lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 1e300),  # too many bisections
])
def test_errors_match_scipy(f, a, b):
    ours = outcome(brentq, f, a, b, xtol=1e-300)
    assert isinstance(ours, tuple)
    assert ours == outcome(optimize.brentq, f, a, b, xtol=1e-300)


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * x + 1.0, -1.0, 1.0),
    (lambda x: math.nan, 0.0, 1.0),
    (lambda x: x - 0.5 if x < 1.5 else math.nan, 0.0, 2.0),
    (lambda x: math.nan if 0.3 < x < 1.5 else x - 0.5, 0.0, 2.0),
    (lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 1e300),
])
def test_brentq_many_errors_match_brentq(f, a, b):
    many = lambda x: np.array([f(v) for v in x.tolist()])
    ours = outcome(lambda g, a, b, **kw: brentq_many(g, [a], [b], **kw), many, a, b,
                   xtol=1e-300)
    assert isinstance(ours, tuple)
    assert ours == outcome(brentq, f, a, b, xtol=1e-300)


def test_xtol_must_be_positive():
    with pytest.raises(ValueError, match="xtol too small"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 0.0), (np.float64(-0.25), 2)])
def test_endpoint_roots_and_float_result(a, b):
    r = assert_same(lambda x: x, a, b)
    assert type(r) is float


def test_alpha_beta_max_match_minimize_scalar():
    for fn, g, bracket in ((alpha_max, alpha, (0.5, 1.2, 3.0)),
                           (beta_max, beta, (1.0, 1.9, 4.0))):
        res = optimize.minimize_scalar(lambda x: -g(x), bracket=bracket,
                                       method="golden", options={"xtol": 1e-12})
        x = float(res.x)
        assert repr(fn()) == repr((x, g(x)))


@given(st.floats(-3.0, 3.0), st.floats(0.1, 2.0), st.floats(0.05, 0.95),
       st.floats(1e-12, 1e-6))
@settings(max_examples=100, deadline=None)
def test_golden_max_matches_minimize_scalar(centre, width, where, xtol):
    g = lambda x: math.cos(x - centre) - 0.1 * (x - centre) ** 3
    xa, xc = centre - width, centre + width
    xb = xa + where * (xc - xa)
    if not (g(xb) > g(xa) and g(xb) > g(xc)):
        with pytest.raises(ValueError):
            golden_max(g, xa, xb, xc, xtol)
        return
    res = optimize.minimize_scalar(lambda x: -g(x), bracket=(xa, xb, xc),
                                   method="golden", options={"xtol": xtol})
    assert golden_max(g, xa, xb, xc, xtol) == float(res.x)
    assert golden_max(g, xc, xb, xa, xtol) == float(res.x)


def bits(values) -> list[str]:
    """Floats as hex: stricter than == (the sign of zero counts), and NaN
    matches NaN."""
    return [float(v).hex() for v in values]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_subnormal = st.integers(-2**20, 2**20).map(lambda k: k * 5e-324)


@given(st.one_of(
           st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),   # either sign
           st.tuples(_finite, _finite),              # large magnitudes; the span may overflow
           _finite.map(lambda a: (a, a)),            # zero span
           st.tuples(_subnormal, _subnormal)),       # subnormal span: NumPy's step == 0 branch
       st.integers(2, 3000), st.booleans())
@example((0.0, 1.5e-323), 10, True)
@example((-5e-324, 5e-324), 7, False)
@example((-0.0, -0.0), 3, True)
@example((-1.7e308, 1.7e308), 5, True)
@settings(max_examples=400, deadline=None)
def test_linspace_equals_numpy(ends, num, endpoint):
    start, stop = ends
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(start, stop, num, endpoint=endpoint)
    assert bits(linspace(start, stop, num, endpoint)) == bits(expected)


@given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
       st.one_of(st.floats(1e-2, 10.0), st.floats(-10.0, -1e-2), st.just(1e-2)))
@example(0.9, 0.9 + 1e-2 * 37, 1e-2)    # stop on a multiple of the step
@example(1.0, 1.0, 0.5)                  # empty
@settings(max_examples=300, deadline=None)
def test_arange_equals_numpy(start, stop, step):
    assert bits(arange(start, stop, step)) == bits(np.arange(start, stop, step))


@pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 1e300, math.inf, math.nan])
def test_sample_count_bound(n):
    check_samples(MAX_SAMPLES)
    with pytest.raises(ValueError, match="sample count"):
        check_samples(n)


# counts just over the bound: were the check gone, these would build a
# million floats or fail at math.ceil(inf), never exhaust memory
@pytest.mark.parametrize("make", [
    lambda: linspace(0.0, 1.0, MAX_SAMPLES + 1),
    lambda: linspace(0.0, 1.0, MAX_SAMPLES + 1, endpoint=False),
    lambda: arange(0.0, 1.0, 5e-324),
    lambda: arange(0.0, MAX_SAMPLES + 0.5, 1.0),
])
def test_ranges_refuse_a_count_before_sampling(make):
    with pytest.raises(ValueError, match="sample count"):
        make()


@pytest.mark.parametrize("endpoint", [True, False])
@pytest.mark.parametrize("num", [-1, 0, 1])
def test_linspace_takes_two_samples_or_more(num, endpoint):
    # num = 1 used to divide by zero and num <= 0 to index an empty list
    with pytest.raises(ValueError, match=rf"^sample count {num}: must be at least 2$"):
        linspace(0.0, 1.0, num, endpoint=endpoint)
