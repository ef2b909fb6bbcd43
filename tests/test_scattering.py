import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

import scatmap.scattering as sc
from scatmap import ModelParams
from scatmap.crests import CrestBranch, critical_actions, tangency_points, theta_of_psi, xi
from scatmap.errors import (
    BranchUnavailable,
    DomainError,
    NoCrossing,
    ScatmapError,
    SingularCrest,
    TangencyPoint,
)
from scatmap.highways import in_intervals
from scatmap.model import (
    TWO_PI,
    amp_A00,
    amp_A01,
    amp_A10,
    amp_A10_deriv,
    crest_coefficient,
    wrap_angle,
    wrap_signed,
)

MAX, MIN = CrestBranch.MAXIMUM, CrestBranch.MINIMUM
MUS = (0.6, 0.9, 1.5)   # single map, tangency, holes


def ref_crossings(params, I, phi, s, crest):
    """The per-point scan the crossing kernel replaced, kept as its reference.

    Python-loop scan over the sigma samples, brentq on each bracket, a fine
    rescan of each grazing-pair cell, dedup and the cos(psi) filter.
    """
    a = crest_coefficient(params, I)
    lo, hi = ((-math.pi / 2.0, math.pi / 2.0) if crest is MAX
              else (math.pi / 2.0, 3.0 * math.pi / 2.0))

    def c(sig):
        return a * math.sin(phi + I * (sig - s)) + math.sin(sig)

    n = max(8, int(math.ceil((hi - lo) / sc._SCAN_STEP)))
    xs = np.linspace(lo, hi, n + 1)
    vs = np.array([c(x) for x in xs])
    roots = []

    def refine(x0, x1):
        r = brentq(c, x0, x1, xtol=1e-15)
        if abs(c(r)) <= 1e-12:
            roots.append(r)

    for i in range(n):
        if vs[i] == 0.0:
            roots.append(xs[i])
        elif vs[i] * vs[i + 1] < 0.0:
            refine(xs[i], xs[i + 1])
    if vs[-1] == 0.0:
        roots.append(xs[-1])
    absv = np.abs(vs)
    for i in range(1, n):
        if absv[i] < 2e-3 and absv[i] <= absv[i - 1] and absv[i] <= absv[i + 1]:
            if vs[i - 1] * vs[i] > 0.0 and vs[i] * vs[i + 1] > 0.0:
                sub = np.linspace(xs[i - 1], xs[i + 1], 257)
                sv = np.array([c(x) for x in sub])
                for j in range(256):
                    if sv[j] * sv[j + 1] < 0.0:
                        refine(sub[j], sub[j + 1])
                    elif sv[j] == 0.0:
                        roots.append(sub[j])
    roots.sort()
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-10:
            dedup.append(r)
    if abs(a) > 1.0:
        dedup = [r for r in dedup
                 if (math.cos(phi + I * (r - s)) > 0.0) == (crest is MAX)]
    return dedup


def ref_tau_star(params, I, phi, s=0.0, crest=MAX, branch=sc.Branch.SINGLE):
    """Primary crossing on the reference scan, one point at a time; raises
    the error tau_star_full raises, with its message."""
    if abs(abs(crest_coefficient(params, I)) - 1.0) <= 1e-12:
        raise SingularCrest(f"crest is singular at I = {I!r}")
    s = wrap_angle(s)
    if s > 1.5 * math.pi:
        s -= TWO_PI
    sigmas = ref_crossings(params, I, phi, s, crest)
    if not sigmas:
        raise NoCrossing(f"segment through (I={I!r}, phi={phi!r}, s={s!r}) misses "
                         f"the {crest.value} crest")
    # off the SINGLE branch, inside a tangency band, only the crossings with
    # psi in the branch's psi-domain count
    domains = None if branch is sc.Branch.SINGLE else sc._branch_psi_domains(params, I)
    if domains is not None:
        sigmas = [x for x in sigmas
                  if in_intervals(wrap_angle(phi + I * (x - s)), domains[branch], tol=1e-9)]
        if not sigmas:
            raise BranchUnavailable(
                f"no crossing with psi in branch-{branch.value} domain at I={I!r}")
    sig = min(sigmas, key=lambda x: (abs(s - x), s - x))
    tau = s - sig
    return sc.TauStar(tau=tau, psi=wrap_angle(phi - I * tau), sigma=sig,
                      crest=crest, branch=branch)


def ref_grad(params, I, ts):
    """Envelope gradient (d/dI, d/dtheta) at a crossing, written out."""
    a10 = amp_A10(params, I)
    d_theta = -a10 * math.sin(ts.psi)
    d_i = amp_A10_deriv(params, I) * math.cos(ts.psi) + ts.tau * a10 * math.sin(ts.psi)
    return d_i, d_theta


def crossing_lists(params, I, phi, s, crest):
    """The kernel's crossings of each point, as one sorted list per point."""
    I, phi, s = sc._points(I, phi, s)
    a, = sc._per_action(params, I, crest_coefficient)
    point, sigma = sc._crossings(a, I, phi, s, crest)
    return [sigma[point == k].tolist() for k in range(len(I))]


def assert_same_roots(params, I, phi, s, crest):
    got = crossing_lists(params, I, phi, s, crest)
    want = [ref_crossings(params, float(i), float(p), float(q), crest)
            for i, p, q in zip(I, phi, s)]
    assert got == want
    return got


@contextlib.contextmanager
def recorded_fills():
    """The delta of each sc._fill call in the block: > 0 where sine tables filled."""
    deltas, fill = [], sc._fill

    def recorded(*args):
        row, delta = fill(*args)
        deltas.append(delta)
        return row, delta

    with mock.patch.object(sc, "_fill", recorded):
        yield deltas


def as_mu(mu):
    return ModelParams(a00=0.0, a10=mu, a01=1.0, eps=0.01)


@st.composite
def table_batches(draw):
    """(mu, crest, I, phi, s): one to three actions, each over 64 to 100
    points, shuffled.  Each action is a draw, a far one (|I| up to 2,000), a
    tangency action or, at mu = 1.5, the singular one.  Each point is a theta
    = pi tie, a segment through the crest at a scan sample (phi = 0, s the
    window's middle sample), a grazing pair 1e-7 to 1e-3 inside a band edge,
    or uniform in phi with s zero, across the window or beyond it."""
    mu, crest = draw(st.sampled_from(MUS)), draw(st.sampled_from([MAX, MIN]))
    p = as_mu(mu)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([0.0, 1.0, 10.0]))
    middle = sc._scan_samples(crest)[100]
    I, phi, s = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        act = draw(st.one_of(st.floats(-3.5, 3.5), st.floats(-2000.0, 2000.0),
                             st.sampled_from([1.5, 2.2, 0.5041156496613117])))
        info = tangency_points(p, act)
        for _ in range(draw(st.integers(64, 100))):
            kind = rng.integers(4)
            if kind == 0:
                point = (math.pi, 0.0)
            elif kind == 1:
                point = (0.0, middle)
            elif kind == 2 and info is not None:
                delta = 10.0 ** rng.uniform(-7.0, -3.0)
                point = rng.choice([info.theta1 - delta, info.theta2 + delta]), 0.0
            else:
                point = (rng.uniform(0.0, TWO_PI), rng.uniform(-span, span) if span != 1.0
                         else rng.uniform(-math.pi / 2.0, 1.5 * math.pi))
            I.append(act)
            phi.append(float(point[0]))
            s.append(float(point[1]))
    order = rng.permutation(len(I)).tolist()
    return (mu, crest, *([v[j] for j in order] for v in (I, phi, s)))


def crossing_residual(params, I, ts):
    """Critical-point condition I*A10*sin(psi) + A01*sin(sigma) at the root."""
    return (I * amp_A10(params, I) * math.sin(ts.psi)
            + amp_A01(params) * math.sin(ts.sigma))


class TestTauStar:
    def test_zero_on_crest(self, p06):
        # a point already on the maximum crest has crossing time zero
        for I, phi in [(1.2, 0.7), (0.4, 2.9), (2.5, 5.0)]:
            s = xi(p06, MAX, I, phi)
            ts = sc.tau_star_full(p06, I, phi, s, MAX)
            assert abs(ts.tau) <= 1e-12

    def test_shift_identity(self, p06):
        I, phi, s = 1.1, 2.3, 0.8
        base = sc.tau_star_full(p06, I, phi, s, MAX)
        for sigma in (-1.0, -0.25, 0.4, 1.3):
            shifted = sc.tau_star_full(p06, I, phi - I * sigma, s - sigma, MAX)
            assert shifted.tau == pytest.approx(base.tau - sigma, abs=1e-10)

    def test_grid_argmin_oracle(self, p06):
        # brute-force oracle: densely sample the crossing condition in sigma
        I, theta = 1.2, 1.0
        a = crest_coefficient(p06, I)
        sig = np.linspace(-math.pi / 2, math.pi / 2, 200_001)
        c = a * np.sin(theta + I * sig) + np.sin(sig)
        brute = sig[np.argmin(np.abs(c))]
        ts = sc.tau_star(p06, I, theta, MAX)
        assert ts.sigma == pytest.approx(brute, abs=1e-4)
        assert abs(crossing_residual(p06, I, ts)) <= 1e-12

    @given(st.floats(0.15, 0.62), st.floats(-3.0, 3.0), st.floats(0.0, TWO_PI))
    @settings(max_examples=150, deadline=None)
    def test_residual_property(self, mu, I, theta):
        p = ModelParams(a00=0.0, a10=mu, a01=1.0)
        assume(abs(abs(crest_coefficient(p, I)) - 1.0) > 1e-9)
        for crest in (MAX, MIN):
            ts = sc.tau_star(p, I, theta, crest)
            assert abs(crossing_residual(p, I, ts)) <= 1e-12
            assert -math.pi / 2 < ts.sigma <= 3 * math.pi / 2

    def test_three_crossings_in_band(self, p09):
        info = tangency_points(p09, 1.5)
        theta = 0.5 * (info.theta1 + info.theta2)
        sigmas, = crossing_lists(p09, [1.5], [theta], [0.0], MAX)
        assert len(sigmas) == 3

    def test_no_crossing_in_hole(self, p15):
        with pytest.raises(NoCrossing):
            sc.tau_star(p15, 1.0, math.pi, MAX)

    def test_singular_rejected(self):
        p = ModelParams(0.0, 1.0, 1.0)
        with pytest.raises(SingularCrest):
            sc.tau_star(p, 1.0, 1.0, MAX)


class TestCrossingKernel:
    """The array kernel returns the reference scan's root lists bit for bit."""

    @given(st.sampled_from(MUS), st.sampled_from([MAX, MIN]),
           st.lists(st.tuples(st.floats(-3.5, 3.5), st.floats(0.0, TWO_PI),
                              st.floats(-3.0, 3.0)),
                    min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, mu, crest, points):
        p = as_mu(mu)
        points = [(I, phi, s) for I, phi, s in points
                  if abs(abs(crest_coefficient(p, I)) - 1.0) > 1e-9]
        assume(points)
        I, phi, s = (list(v) for v in zip(*points))
        assert_same_roots(p, I, phi, s, crest)

    @given(table_batches())
    @example((0.6, MAX, [-2.5] * 64, [math.pi] * 64, [0.0] * 64))   # a root at -2.8e-16
    @settings(max_examples=30, deadline=None)
    def test_table_path_matches_reference(self, batch):
        # few actions, each over 64 or more points in random order: chunks
        # fill their scan from sine tables and still give the reference roots
        mu, crest, I, phi, s = batch
        with recorded_fills() as deltas:
            assert_same_roots(as_mu(mu), I, phi, s, crest)
        assert max(deltas) > 0.0

    @given(st.floats(-1e4, 1e4), st.floats(-10.0, 10.0),
           st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e3, 1e3)),
                    min_size=sc._TABLE_MIN, max_size=sc._TABLE_MIN + 20))
    @settings(max_examples=100, deadline=None)
    def test_table_within_bound(self, I, a, points):
        # one action over _TABLE_MIN or more points: the table fills the chunk,
        # each value within delta_k of _crest_many's float, extreme I, phi, s
        phi, s = (np.array(v) for v in zip(*points))
        n = len(phi)
        xs = sc._scan_samples(MAX)
        v = np.empty((n, len(xs)))
        row, delta = sc._fill(v, xs, np.full(n, a), np.full(n, I), phi, s)
        exact = sc._crest_many(xs, a, phi[row, None], I, s[row, None])
        bound = 1e-12 * (1.0 + abs(a) * (1.0 + np.abs(phi) + abs(I) * (np.abs(s) + 5.0)))
        assert delta == bound.max() > 0.0
        assert (np.abs(v - exact) <= bound[row, None]).all()

    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("crest", [MAX, MIN])
    def test_table_equals_sine_fill(self, mu, crest, monkeypatch):
        # every action of the grid tests (the singular one included) over the
        # 40 grid thetas, 0 and pi among them, and grazing pairs inside each
        # band edge: the table fill gives the sine fill's crossings
        p = as_mu(mu)
        I = np.append(np.linspace(-3.5, 3.5, 141), 0.5041156496613117)
        phi = np.linspace(0.0, TWO_PI, 40, endpoint=False)
        I, phi = np.repeat(I, len(phi)), np.tile(phi, len(I))
        for act in np.linspace(1.2, 2.8, 9):
            info = tangency_points(p, float(act))
            if info is not None:
                delta = np.repeat(10.0 ** np.arange(-7.0, -2.0), 4)
                I = np.append(I, np.full(2 * len(delta), act))
                phi = np.concatenate([phi, info.theta1 - delta, info.theta2 + delta])
        with recorded_fills() as deltas:
            got = crossing_lists(p, I, phi, 0.0, crest)
        assert min(deltas) > 0.0 and len(deltas) == math.ceil(len(I) / sc._CHUNK)
        monkeypatch.setattr(sc, "_TABLE_MIN", len(I) + 1)
        assert crossing_lists(p, I, phi, 0.0, crest) == got

    def test_table_selection(self, p09):
        # a batch of one is filled with sines; a 400-cell grid row (a 256-point
        # chunk and a 144-point one) from sine tables, and so is every chunk
        # of the error-bound constants' stencil
        from scatmap.diffusion import _region_constants
        from scatmap.gridkernels import reduced_poincare_grid
        with recorded_fills() as deltas:
            sc.tau_star(p09, 1.5, 2.0)
            sc.tau_star_full(p09, 2.0, 1.0, 0.4, MIN)
        assert deltas == [0.0, 0.0]
        with recorded_fills() as deltas:
            reduced_poincare_grid(p09, [1.5], np.linspace(0.0, TWO_PI, 400, endpoint=False))
        assert len(deltas) == 2 and min(deltas) > 0.0
        with recorded_fills() as deltas:
            _region_constants.__wrapped__(p09, -3.0, 3.0, 25)
        assert len(deltas) == math.ceil(25 * 25 * 5 / sc._CHUNK) and min(deltas) > 0.0

    def test_theta_pi_ties(self, p15):
        # at theta = pi the admissible roots come in exactly symmetric pairs
        I = np.linspace(-3.5, 3.5, 141).tolist()
        got = assert_same_roots(p15, I, [math.pi] * len(I), [0.0] * len(I), MAX)
        assert any(len(r) == 2 and r[0] == -r[1] for r in got)
        # the primary crossing of a tie is +r, the smaller tau
        sigma = sc._primary(p15, I, math.pi, 0.0)[2].tolist()
        assert all(sig == r[1] > 0.0 for r, sig in zip(got, sigma)
                   if len(r) == 2 and r[0] == -r[1])

    def test_grazing_pairs_near_tangency(self, p09):
        # just inside the band edges two roots sit closer than one scan step,
        # so the coarse samples see no sign change and only the fine rescan
        # of the grazing cell finds them
        I, phi = [], []
        for act in np.linspace(1.2, 2.8, 9):
            info = tangency_points(p09, float(act))
            for delta in (1e-7, 1e-5, 1e-4, 1e-3):
                I += [float(act)] * 2
                phi += [info.theta1 - delta, info.theta2 + delta]
        got = assert_same_roots(p09, I, phi, [0.0] * len(I), MAX)
        assert any(len(r) == 3 and min(np.diff(r)) < sc._SCAN_STEP for r in got)

    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("n", [3, 300, 2 * sc._BLOCK + 37])
    def test_both_refinement_paths(self, mu, n, monkeypatch):
        # a block with fewer than _LOCKSTEP_MIN brackets refines them with
        # the brentq loop, a larger one in exactly one brentq_many call
        lockstep, looped = [], []   # the block of each lane, per call
        many, one = sc.brentq_many, sc.brentq

        def counted_many(f, a, b, args, **kw):
            lockstep.append([block[v] for v in args[1].tolist()])
            return many(f, a, b, args=args, **kw)

        def counted_one(f, a, b, args, **kw):
            looped.append(block[args[1]])
            return one(f, a, b, args=args, **kw)

        monkeypatch.setattr(sc, "brentq_many", counted_many)
        monkeypatch.setattr(sc, "brentq", counted_one)
        rng = np.random.default_rng(n)
        I = rng.uniform(-3.5, 3.5, n)
        I = I[np.abs(np.abs([crest_coefficient(as_mu(mu), v) for v in I]) - 1.0) > 1e-9]
        phi, s = rng.uniform(0.0, TWO_PI, len(I)), rng.uniform(-1.0, 1.0, len(I))
        block = {v: k // sc._BLOCK for k, v in enumerate(phi.tolist())}
        assert len(block) == len(phi)   # phi tells the point, hence its block
        assert_same_roots(as_mu(mu), I.tolist(), phi.tolist(), s.tolist(), MAX)
        # each call holds one block's brackets, each block's go to one path
        assert all(len(set(blocks)) == 1 and len(blocks) >= sc._LOCKSTEP_MIN
                   for blocks in lockstep)
        stepped = [blocks[0] for blocks in lockstep]
        assert len(set(stepped)) == len(stepped)
        assert not set(stepped) & set(looped)
        assert all(looped.count(b) < sc._LOCKSTEP_MIN for b in set(looped))
        assert bool(lockstep) == (n > sc._LOCKSTEP_MIN)
        if n > 2 * sc._BLOCK:
            assert {0, 1} <= set(stepped)

    def test_scalar_arguments(self, p09):
        # a batch of one, as tau_star_full and scattering_branches make
        assert crossing_lists(p09, 1.5, 2.0, 0.3, MAX) == [
            ref_crossings(p09, 1.5, 2.0, 0.3, MAX)]

    @pytest.mark.parametrize("mu, region, grid_n", [
        *((mu, (-3.0, 3.0), 15) for mu in MUS),
        # cells straddle the tangency locus: K is about 1.9e5 here
        (0.9, (-1.2591006923797505, 1.2591006923797505), 25),
        # I_plus of mu = 0.9: the line theta = pi (a grid column at 16)
        # touches the crest at psi = pi, inside _TANGENCY_GUARD
        (0.9, (1.089313871950611, 1.089313871950611), 16),
        # every cell centre sits on the singular crest: no cell qualifies
        (1.5, (0.5041156496613117, 0.5041156496613117), 15),
    ], ids=["0.6", "0.9", "1.5", "0.9-tangency", "0.9-guard", "1.5-singular"])
    def test_region_constants_match_loop(self, mu, region, grid_n):
        from scatmap.diffusion import _region_constants
        p = as_mu(mu)
        h = 1e-5
        L = K = 0.0
        for I in np.linspace(*region, grid_n):
            for theta in np.linspace(0.0, TWO_PI, grid_n, endpoint=False):
                stencil = [(float(I), float(theta)), (float(I) + h, float(theta)),
                           (float(I) - h, float(theta)), (float(I), float(theta) + h),
                           (float(I), float(theta) - h)]
                try:
                    grads = []
                    for ii, tt in stencil:
                        ts = ref_tau_star(p, ii, tt)
                        if abs(sc.dtheta_dpsi_at(p, ii, ts.psi)) < sc._TANGENCY_GUARD:
                            raise TangencyPoint("near tangency")
                        grads.append(ref_grad(p, ii, ts))
                except ScatmapError:
                    continue
                (gi, gt), (gi_p, gt_p), (gi_m, gt_m), (gi_tp, gt_tp), (gi_tm, gt_tm) = grads
                L = max(L, math.hypot(gi, gt))
                hess = np.array([
                    [(gi_p - gi_m) / (2 * h), (gi_tp - gi_tm) / (2 * h)],
                    [(gt_p - gt_m) / (2 * h), (gt_tp - gt_tm) / (2 * h)],
                ])
                K = max(K, float(np.linalg.norm(hess, 2)))
        assert _region_constants.__wrapped__(p, *region, grid_n) == (L, K)
        if grid_n == 25:
            assert K > 1e5   # the straddling cells are kept
        if mu == 1.5 and region[0] == region[1]:
            assert (L, K) == (0.0, 0.0)

    @pytest.mark.parametrize("mu", MUS)
    def test_admissible_window_matches_loop(self, mu):
        from scatmap.diffusion import _admissible_window
        p = as_mu(mu)
        for I in np.linspace(1.0, 3.5, 6).tolist():
            if tangency_points(p, I) is not None:
                continue   # the window then comes from the band edges
            good = []
            for theta in np.linspace(math.pi, TWO_PI, 257).tolist():
                try:
                    ts = ref_tau_star(p, I, theta)
                except ScatmapError:
                    continue
                if math.pi < ts.psi < TWO_PI:
                    good.append(theta)
            if good:
                assert _admissible_window(p, I) == (min(good), max(good))
            else:
                with pytest.raises(BranchUnavailable):
                    _admissible_window(p, I)

    @pytest.mark.parametrize("mu, I_range", [
        (0.6, (0.1, 2.0)), (0.9, (0.1, 1.0)), (1.5, (0.1, 0.45)),
        (1.5, (0.1, 1.0)),   # reaches the holes: both must raise NoCrossing
    ])
    def test_symmetry_check_matches_loop(self, mu, I_range):
        p = as_mu(mu)
        flipped = ModelParams(a00=p.a00, a10=p.a10, a01=-p.a01, eps=p.eps)
        max_di = max_dphi = 0.0
        try:
            for I in np.linspace(I_range[0], I_range[1], 8).tolist():
                for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False).tolist():
                    steps = []
                    for q, s, crest in ((p, math.pi, MIN), (flipped, 0.0, MAX)):
                        ts = ref_tau_star(q, I, phi, s, crest)
                        d_i, d_phi = ref_grad(q, I, ts)
                        steps.append((I + q.eps * d_phi, phi - q.eps * d_i))
                    max_di = max(max_di, abs(steps[0][0] - steps[1][0]))
                    max_dphi = max(max_dphi, abs(steps[0][1] - steps[1][1]))
        except ScatmapError as exc:
            with pytest.raises(type(exc)):
                sc.symmetry_check_mu(p, n=8, I_range=I_range)
            return
        rep = sc.symmetry_check_mu(p, n=8, I_range=I_range)
        assert (rep.max_discrepancy_I, rep.max_discrepancy_phi) == (max_di, max_dphi)


class TestPrimary:
    """_primary on a batch gives, point by point, the reference pick and
    tau_star_full's result; where there is none, tau_star_full's error."""

    WHY = {SingularCrest: sc._SINGULAR, NoCrossing: sc._MISSES,
           BranchUnavailable: sc._OFF_BRANCH}

    @given(st.sampled_from(MUS), st.sampled_from([MAX, MIN]), st.sampled_from(list(sc.Branch)),
           st.sampled_from([0.0, math.pi, None]), st.integers(1, sc._CHUNK + 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_tau_star_full(self, mu, crest, branch, s0, n, seed):
        p = as_mu(mu)
        rng = np.random.default_rng(seed)
        I = rng.uniform(-3.5, 3.5, n)
        I[rng.random(n) < 0.05] = 0.5041156496613117   # singular at mu = 1.5
        phi = rng.uniform(0.0, TWO_PI, n)
        s = rng.uniform(-7.0, 7.0, n) if s0 is None else np.full(n, s0)
        self.assert_batch_equals(p, I, phi, s, crest, branch)

    @pytest.mark.parametrize("mu", MUS)
    def test_block_edges(self, mu):
        # two blocks and 37 points; next to each block edge sit theta = pi
        # ties (mu = 1.5), grazing pairs just inside the band (mu = 0.9) and
        # a singular action (mu = 1.5)
        p = as_mu(mu)
        n = 2 * sc._BLOCK + 37
        rng = np.random.default_rng(29)
        I, phi = rng.uniform(-3.5, 3.5, n), rng.uniform(0.0, TWO_PI, n)
        for edge in (sc._BLOCK, 2 * sc._BLOCK):
            phi[edge - 2:edge + 2] = math.pi
            I[edge - 3] = 0.5041156496613117
            for k, act in zip(range(edge - 9, edge - 3), np.linspace(1.2, 2.8, 6)):
                info = tangency_points(p, float(act))
                if info is not None:
                    I[[k, k + 8]] = act
                    phi[[k, k + 8]] = info.theta1 - 1e-5, info.theta2 + 1e-5
        got = crossing_lists(p, I, phi, 0.0, MAX)
        edges = [k for edge in (sc._BLOCK, 2 * sc._BLOCK) for k in range(edge - 9, edge + 6)]
        if mu == 0.9:
            assert any(len(got[k]) == 3 for k in edges)
        if mu == 1.5:
            assert any(len(got[k]) == 2 and got[k][0] == -got[k][1] for k in edges)
        self.assert_batch_equals(p, I, phi, np.zeros(n), MAX, sc.Branch.SINGLE)

    def assert_batch_equals(self, p, I, phi, s, crest, branch):
        tau, psi, sigma, why = sc._primary(p, I, phi, s, crest, branch)
        for k, point in enumerate(zip(I.tolist(), phi.tolist(), s.tolist())):
            try:
                want = ref_tau_star(p, *point, crest, branch)
            except ScatmapError as exc:
                with pytest.raises(ScatmapError) as got:
                    sc.tau_star_full(p, *point, crest, branch)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                assert why[k] == self.WHY[type(exc)]
                assert np.isnan([tau[k], psi[k], sigma[k]]).all()
                continue
            assert sc.tau_star_full(p, *point, crest, branch) == want
            assert why[k] == sc._OK
            assert (tau[k], psi[k], sigma[k]) == (want.tau, want.psi, want.sigma)


class TestReducedPoincare:
    def test_value_at_top(self, p06):
        # theta = 0 crosses at psi = 0, where all cosines are 1
        expected = amp_A00(p06) + amp_A10(p06, 1.2) + amp_A01(p06)
        assert sc.reduced_poincare(p06, 1.2, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_psi_form_trivials(self, p06):
        top = amp_A00(p06) + amp_A10(p06, 1.2) + amp_A01(p06)
        assert sc.reduced_poincare_psi(p06, 1.2, 0.0) == pytest.approx(top)
        mid = amp_A00(p06) - amp_A10(p06, 1.2) + amp_A01(p06)
        assert sc.reduced_poincare_psi(p06, 1.2, math.pi) == pytest.approx(mid)

    def test_theta_psi_consistency(self, p06):
        for I in np.linspace(-2.5, 2.5, 9):
            for theta in np.linspace(0.0, TWO_PI, 9, endpoint=False):
                ts = sc.tau_star(p06, float(I), float(theta))
                via_psi = sc.reduced_poincare_psi(p06, float(I), ts.psi)
                via_theta = sc.reduced_poincare(p06, float(I), float(theta))
                assert via_psi == pytest.approx(via_theta, abs=1e-12)

    def test_even_in_action(self, p06):
        worst = 0.0
        for I in np.linspace(0.05, 3.0, 20):
            for theta in np.linspace(0.0, TWO_PI, 20, endpoint=False):
                worst = max(worst, abs(
                    sc.reduced_poincare(p06, float(I), float(theta))
                    - sc.reduced_poincare(p06, -float(I), float(theta))))
        assert worst <= 1e-10


class TestGradient:
    def test_dtheta_at_quarter(self, p06):
        # construct theta whose crossing angle is exactly pi/2
        I = 1.2
        theta = theta_of_psi(p06, I, math.pi / 2)
        d_i, d_theta = sc.grad_reduced_poincare(p06, I, wrap_angle(theta))
        assert d_theta == pytest.approx(-amp_A10(p06, I), abs=1e-9)

    def test_finite_difference_oracle(self, p06):
        rng = np.random.default_rng(7)
        checked = 0
        worst = 0.0
        while checked < 300:
            I = float(rng.uniform(-3.0, 3.0))
            theta = float(rng.uniform(0.0, TWO_PI))
            if abs(I) < 0.05:
                continue
            try:
                gi, gt = sc.grad_reduced_poincare(p06, I, theta)
                fi, ft = sc.finite_diff_grad(p06, I, theta)
            except TangencyPoint:
                continue
            worst = max(worst, abs(gi - fi) / (1 + abs(gi)),
                        abs(gt - ft) / (1 + abs(gt)))
            checked += 1
        assert worst <= 1e-6

    @pytest.mark.parametrize("branch", [sc.Branch.A, sc.Branch.B, sc.Branch.C])
    def test_finite_difference_oracle_in_band(self, p09, branch):
        # each branch inside the tangency band, away from the tangency locus
        rng = np.random.default_rng(17)
        checked = 0
        worst = 0.0
        while checked < 60:
            I = float(rng.uniform(0.5, 3.5) * rng.choice([-1.0, 1.0]))
            info = tangency_points(p09, I)
            if info is None:
                continue
            theta = float(rng.uniform(info.theta2 + 1e-3, info.theta1 - 1e-3))
            ts = sc.tau_star(p09, I, theta, MAX, branch)
            if abs(sc.dtheta_dpsi_at(p09, I, ts.psi)) < 0.05:
                continue
            gi, gt = sc.grad_reduced_poincare(p09, I, theta, MAX, branch)
            fi, ft = sc.finite_diff_grad(p09, I, theta, MAX, branch)
            worst = max(worst, abs(gi - fi) / (1 + abs(gi)),
                        abs(gt - ft) / (1 + abs(gt)))
            checked += 1
        assert worst <= 1e-6

    def test_finite_difference_oracle_holes(self, p15):
        # admissible points of the holes regime, away from the hole edges
        rng = np.random.default_rng(19)
        checked = 0
        worst = 0.0
        while checked < 150:
            I = float(rng.uniform(-3.5, 3.5))
            theta = float(rng.uniform(0.0, TWO_PI))
            try:
                ts = sc.tau_star(p15, I, theta)
                if abs(sc.dtheta_dpsi_at(p15, I, ts.psi)) < 0.05:
                    continue
                gi, gt = sc.grad_reduced_poincare(p15, I, theta)
                fi, ft = sc.finite_diff_grad(p15, I, theta)
            except (NoCrossing, SingularCrest):
                continue
            worst = max(worst, abs(gi - fi) / (1 + abs(gi)),
                        abs(gt - ft) / (1 + abs(gt)))
            checked += 1
        assert worst <= 1e-6

    def test_positive_drift_on_right_lane(self, p06):
        from scatmap.highways import Side, highway_psi
        for I in (0.0, 0.8, 2.0, 3.5):
            psi = highway_psi(p06, I, Side.RIGHT)
            theta = wrap_angle(theta_of_psi(p06, I, psi))
            _, d_theta = sc.grad_reduced_poincare(p06, I, theta)
            assert d_theta > 0.0


class TestGradientBatch:
    """_gradient on a batch gives, point by point, the floats of
    grad_reduced_poincare (its batch of one); where that raises, the reason
    code of its error, and a gradient wherever there is a primary crossing."""

    WHY = {**TestPrimary.WHY, TangencyPoint: sc._TANGENT, DomainError: sc._EDGE}

    @staticmethod
    def special_points(p):
        """(I, theta) next to each failure: the 0.9-guard point (I_plus of
        mu = 0.9, theta = pi), tangency-band edges, the singular action of
        mu = 1.5 and, where the crest is vertical, crossings at the edges
        sigma = +-pi/2 of the crest window."""
        pts = [(1.089313871950611, math.pi), (0.5041156496613117, 1.0)]
        for I in (0.6, 1.2, 1.8, 2.6):
            info = tangency_points(p, I)
            if info is not None:
                pts += [(I, info.theta1), (I, info.theta2)]
            a = crest_coefficient(p, I)
            if abs(a) > 1.0:
                psi = TWO_PI - math.asin(1.0 / a)
                pts += [(I, wrap_angle(psi - I * sig) + d)
                        for sig in (math.pi / 2, -math.pi / 2) for d in (-1e-10, 0.0, 1e-10)]
        return pts

    @pytest.mark.parametrize("crest", [MAX, MIN])
    @pytest.mark.parametrize("branch", list(sc.Branch))
    @pytest.mark.parametrize("mu", MUS)
    def test_batch_equals_grad_reduced_poincare(self, mu, branch, crest):
        p = as_mu(mu)
        rng = np.random.default_rng(41)
        special_I, special_theta = zip(*self.special_points(p))
        I = np.append(rng.uniform(-3.5, 3.5, 150), special_I)
        theta = np.append(rng.uniform(0.0, TWO_PI, 150), special_theta)
        why = self.assert_batch_equals(p, I, theta, crest, branch)
        if (crest, branch) == (MAX, sc.Branch.SINGLE):
            assert {0.9: sc._TANGENT, 1.5: sc._EDGE}.get(mu, sc._OK) in why

    @pytest.mark.parametrize("mu", MUS)
    def test_block_edge(self, mu):
        # the special points straddle the edge of the first block
        p = as_mu(mu)
        n = sc._BLOCK + 37
        rng = np.random.default_rng(43)
        I, theta = rng.uniform(-3.5, 3.5, n), rng.uniform(0.0, TWO_PI, n)
        special = self.special_points(p)
        start = sc._BLOCK - len(special) // 2
        I[start:start + len(special)], theta[start:start + len(special)] = zip(*special)
        self.assert_batch_equals(p, I, theta, MAX, sc.Branch.SINGLE)

    def test_tangency_at_the_guard_point(self, p09):
        # I_plus of mu = 0.9: the line theta = pi touches the crest at psi = pi
        with pytest.raises(TangencyPoint) as exc:
            sc.grad_reduced_poincare(p09, critical_actions(p09)[0], math.pi)
        assert str(exc.value) == "gradient undefined near tangency: |d theta/d psi| < 1e-06"

    def assert_batch_equals(self, p, I, theta, crest, branch):
        d_i, d_theta, why = sc._gradient(p, I, theta, 0.0, crest, branch)
        for k, point in enumerate(zip(I.tolist(), theta.tolist())):
            crossing = why[k] in (sc._OK, sc._TANGENT, sc._EDGE)
            assert np.isfinite([d_i[k], d_theta[k]]).all() == crossing
            try:
                want = sc.grad_reduced_poincare(p, *point, crest, branch)
            except ScatmapError as exc:
                assert why[k] == self.WHY[type(exc)]
                continue
            assert why[k] == sc._OK
            assert (d_i[k], d_theta[k]) == want
        return why


class TestScatteringStep:
    def test_identity_at_zero_eps(self):
        p = ModelParams(0.0, 0.6, 1.0, eps=0.0)
        pt = sc.ReducedPoint(I=1.1, theta=2.2)
        assert sc.scattering_step(p, pt) == pt

    def test_level_drift_is_second_order(self):
        # one step changes the reduced function by O(eps^2): halving eps
        # shrinks the drift by ~4 (Hamiltonian-flow property of the map)
        from scatmap.highways import Side, highway_psi
        drifts = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            p = ModelParams(0.0, 0.6, 1.0, eps=eps)
            psi = highway_psi(p, 1.0, Side.RIGHT)
            pt = sc.ReducedPoint(I=1.0, theta=theta_of_psi(p, 1.0, psi))
            before = sc.reduced_poincare(p, pt.I, pt.theta)
            after_pt = sc.scattering_step(p, pt)
            after = sc.reduced_poincare(p, after_pt.I, after_pt.theta)
            drifts.append(abs(after - before))
        for a, b in zip(drifts, drifts[1:]):
            assert a / b == pytest.approx(4.0, rel=0.25)

    def test_action_mirror(self, p06):
        # step at (-I, theta): equal action increment, opposite angle increment
        for I, theta in [(0.9, 1.0), (1.7, 4.2), (2.4, 2.6)]:
            plus = sc.scattering_step(p06, sc.ReducedPoint(I=I, theta=theta))
            minus = sc.scattering_step(p06, sc.ReducedPoint(I=-I, theta=theta))
            assert (plus.I - I) == pytest.approx(minus.I - (-I), abs=1e-12)
            d_plus = wrap_signed(plus.theta - theta)
            d_minus = wrap_signed(minus.theta - theta)
            assert d_plus == pytest.approx(-d_minus, abs=1e-12)


class TestBranches:
    def test_single_everywhere_in_single_regime(self):
        p = ModelParams(0.0, 0.5, 1.0)
        for I in np.linspace(0.1, 4.0, 7):
            for theta in np.linspace(0.0, TWO_PI, 7, endpoint=False):
                bs = sc.scattering_branches(p, float(I), float(theta))
                assert bs.available == (sc.Branch.SINGLE,)

    def test_three_in_band(self, p09):
        info = tangency_points(p09, 1.5)
        theta = 0.5 * (info.theta1 + info.theta2)
        bs = sc.scattering_branches(p09, 1.5, theta)
        assert set(bs.available) == {sc.Branch.A, sc.Branch.B, sc.Branch.C}
        assert set(bs.domains) == {sc.Branch.A, sc.Branch.B, sc.Branch.C}

    def test_one_outside_band(self, p09):
        info = tangency_points(p09, 1.5)
        bs = sc.scattering_branches(p09, 1.5, wrap_angle(info.theta1 + 0.5))
        assert bs.available == (sc.Branch.SINGLE,)

    def test_empty_in_hole(self, p15):
        assert sc.scattering_branches(p15, 1.0, math.pi).available == ()
        assert sc.scattering_branches(p15, 1.0, 0.5).available == (sc.Branch.SINGLE,)

    def test_hole_only_when_vertical(self, p09, p15):
        # empty branch sets occur exactly where |mu*alpha(I)| > 1
        rng = np.random.default_rng(3)
        for p in (p09, p15):
            for _ in range(120):
                I = float(rng.uniform(0.1, 3.5))
                theta = float(rng.uniform(0.0, TWO_PI))
                if abs(abs(crest_coefficient(p, I)) - 1.0) <= 1e-6:
                    continue
                bs = sc.scattering_branches(p, I, theta)
                if not bs.available:
                    assert abs(crest_coefficient(p, I)) > 1.0

    def test_each_branch_resolves_every_theta(self, p09):
        # the three branch restrictions are bijections onto the whole circle
        domains = sc._branch_psi_domains(p09, 1.5)
        for branch in (sc.Branch.A, sc.Branch.B, sc.Branch.C):
            for theta in np.linspace(0.0, TWO_PI, 60, endpoint=False):
                ts = sc.tau_star(p09, 1.5, float(theta), MAX, branch)
                assert in_intervals(ts.psi, domains[branch], tol=1e-9)

    def test_branches_agree_outside_band(self, p09):
        info = tangency_points(p09, 1.5)
        theta = wrap_angle(info.theta1 + 0.8)
        vals = {b: sc.reduced_poincare(p09, 1.5, theta, MAX, b)
                for b in (sc.Branch.SINGLE, sc.Branch.A, sc.Branch.B, sc.Branch.C)}
        assert len({round(v, 12) for v in vals.values()}) == 1

    def test_branches_differ_inside_band(self, p09):
        info = tangency_points(p09, 1.5)
        # off-center: at the band midpoint A and B mirror onto the same value
        theta = info.theta2 + 0.3 * (info.theta1 - info.theta2)
        picks = {b: sc.tau_star(p09, 1.5, theta, MAX, b)
                 for b in (sc.Branch.A, sc.Branch.B, sc.Branch.C)}
        psis = {round(t.psi, 9) for t in picks.values()}
        assert len(psis) == 3
        vals = {round(sc.reduced_poincare(p09, 1.5, theta, MAX, b), 9)
                for b in picks}
        assert len(vals) == 3

    def test_band_psi_monotonicity(self, p09):
        # theta(psi) rises outside [psi1, psi2] and falls inside
        info = tangency_points(p09, 1.5)
        h = 1e-6
        rising = [0.5 * info.psi1, info.psi2 + 0.5 * (TWO_PI - info.psi2)]
        falling = [0.5 * (info.psi1 + info.psi2)]
        for psi in rising:
            slope = (theta_of_psi(p09, 1.5, psi + h)
                     - theta_of_psi(p09, 1.5, psi - h)) / (2 * h)
            assert slope > 0.0
        for psi in falling:
            slope = (theta_of_psi(p09, 1.5, psi + h)
                     - theta_of_psi(p09, 1.5, psi - h)) / (2 * h)
            assert slope < 0.0


class TestSymmetries:
    def test_mu_flip_identity(self, p06):
        rep = sc.symmetry_check_mu(p06, n=20)
        assert rep.max_discrepancy <= 1e-10

    def test_mu_flip_identity_tangency(self, p09):
        rep = sc.symmetry_check_mu(p09, n=20, I_range=(0.1, 1.0))
        assert rep.max_discrepancy <= 1e-10

    def test_identity_at_zero_eps(self):
        p = ModelParams(0.0, 0.6, 1.0, eps=0.0)
        rep = sc.symmetry_check_mu(p, n=6)
        assert rep.max_discrepancy == 0.0


class TestReducedFlow:
    def test_identity_at_zero_time(self, p06):
        pt = sc.ReducedPoint(I=1.0, theta=2.0)
        assert sc.flow_reduced_hamiltonian(p06, pt, 0.0) == pt

    def test_conserves_reduced_function(self, p06):
        pt = sc.ReducedPoint(I=0.8, theta=2.0)
        before = sc.reduced_poincare(p06, pt.I, pt.theta)
        end = sc.flow_reduced_hamiltonian(p06, pt, 10.0)
        after = sc.reduced_poincare(p06, end.I, end.theta)
        assert abs(after - before) <= 1e-8

    def test_domain_exit_in_hole(self, p15):
        with pytest.raises(NoCrossing):
            sc.flow_reduced_hamiltonian(p15, sc.ReducedPoint(I=1.0, theta=math.pi), 1.0)

    def test_matches_iterated_steps(self):
        p = ModelParams(0.0, 0.6, 1.0, eps=1e-3)
        pt = sc.ReducedPoint(I=0.9, theta=2.2)
        n = 50
        walked = pt
        for _ in range(n):
            walked = sc.scattering_step(p, walked)
        flowed = sc.flow_reduced_hamiltonian(p, pt, n * p.eps)
        # Euler-vs-flow gap is O(n * eps^2)
        gap = math.hypot(walked.I - flowed.I, wrap_signed(walked.theta - flowed.theta))
        assert gap <= 50 * n * p.eps**2
