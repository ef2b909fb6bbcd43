import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import shichi

import scatmap.diffusion as df
import scatmap.scattering as sc
from scatmap import ModelParams
from scatmap.errors import DomainError, NotInDomain, ScatmapError
from scatmap.highways import Side, highway_psi
from scatmap.model import TWO_PI, wrap_signed
from scatmap.scattering import ReducedPoint, flow_reduced_hamiltonian, scattering_step

P05 = ModelParams(0.0, 0.6, 1.0, eps=0.05)


class TestErgodization:
    def test_half_integer_action(self):
        k, ti = df.inner_ergodization_time(0.5, eps=0.05, a=1.0)
        assert k == 2
        assert ti == pytest.approx(4 * math.pi)

    def test_bound(self):
        for I in (0.37, 0.9, math.sqrt(3) - 1, 2.31):
            for eps, a in ((0.05, 1.0), (0.01, 0.5)):
                k, ti = df.inner_ergodization_time(I, eps, a)
                n = math.ceil(TWO_PI / eps**a - 1)
                assert ti <= TWO_PI * n

    def test_continued_fraction_oracle(self):
        # best rational approximations of sqrt(2)-1 have convergent
        # denominators 1, 2, 5, 12, 29, 70, ...; the first meeting the
        # 0.05-window is 70
        I = math.sqrt(2) - 1
        k, ti = df.inner_ergodization_time(I, eps=0.05, a=1.0)
        assert k == 70
        # brute re-check against every smaller k
        tol = 0.05
        for kk in range(1, k):
            assert abs(math.remainder(TWO_PI * kk * I, TWO_PI)) >= tol
        assert abs(math.remainder(TWO_PI * k * I, TWO_PI)) < tol

    def test_dirichlet_inequality(self):
        # |I - l/k| < eps^a / (2 pi k) at the accepted k
        I, eps, a = 0.7312, 0.01, 0.5
        k, _ = df.inner_ergodization_time(I, eps, a)
        l = round(k * I)
        assert abs(I - Fraction(l, k)) < eps**a / (TWO_PI * k)

    def test_degenerate(self):
        with pytest.raises(ScatmapError, match="rotor effectively frozen"):
            df.inner_ergodization_time(0.001, eps=0.05, a=0.5)


@pytest.fixture(scope="module")
def orbit():
    return df.build_pseudo_orbit_highway(P05, -4.0, 4.0)


class TestHighwayOrbit:
    def test_reaches_target(self, orbit):
        assert orbit.final_point.I >= 4.0
        assert orbit.legs[0].points[0].I == -4.0

    def test_monotone_action_on_scattering_legs(self, orbit):
        for leg in orbit.legs:
            if leg.mechanism is df.Mechanism.SCATTERING:
                for a, b in zip(leg.points, leg.points[1:]):
                    assert b.I > a.I

    def test_burst_length_cap(self, orbit):
        cap = math.ceil(P05.eps**-0.5)
        for leg in orbit.legs:
            if leg.mechanism is df.Mechanism.SCATTERING:
                assert len(leg.points) - 1 <= cap

    def test_inner_legs_land_near_lane(self, orbit):
        tol = P05.eps**0.25
        for leg in orbit.legs:
            if leg.mechanism is df.Mechanism.INNER:
                assert leg.deviation_end <= tol

    def test_deviation_within_bound(self, orbit):
        for leg in orbit.legs:
            if leg.mechanism is df.Mechanism.SCATTERING:
                assert leg.deviation_end <= leg.error_bound

    def test_step_increment_matches_gradient(self, orbit):
        # action gain per step tracks eps * dL/dtheta along the lane
        from scatmap.scattering import grad_reduced_poincare
        leg = next(l for l in orbit.legs
                   if l.mechanism is df.Mechanism.SCATTERING and l.points[0].I > 0.5)
        a, b = leg.points[0], leg.points[1]
        _, d_theta = grad_reduced_poincare(P05, a.I, a.theta)
        assert b.I - a.I == pytest.approx(P05.eps * d_theta, rel=1e-12)

    def test_step_count_matches_flow_time(self, orbit):
        # the number of map steps from -4 to 4 tracks Ts/eps
        total_steps = sum(len(l.points) - 1 for l in orbit.legs
                          if l.mechanism is df.Mechanism.SCATTERING)
        predicted = df.time_Ts(P05, -4.0, 4.0, Side.RIGHT) / P05.eps
        assert total_steps == pytest.approx(predicted, rel=0.05)

    def test_scattering_points_have_available_branches(self, orbit):
        from scatmap.scattering import scattering_branches
        pts = [pt for leg in orbit.legs
               if leg.mechanism is df.Mechanism.SCATTERING for pt in leg.points]
        for pt in pts[:: max(1, len(pts) // 60)]:
            assert scattering_branches(P05, pt.I, pt.theta).available

    def test_zero_eps_stalls(self, monkeypatch):
        # both builders refuse eps = 0 before any step is taken
        def step(*args, **kwargs):
            raise AssertionError("scattering_step called at eps = 0")

        monkeypatch.setattr(df, "scattering_step", step)
        p = ModelParams(0.0, 0.6, 1.0, eps=0.0)
        for build in (lambda: df.build_pseudo_orbit_highway(p, -1.0, 1.0),
                      lambda: df.build_pseudo_orbit_general(p, 1.0)):
            with pytest.raises(ScatmapError, match="eps = 0: the scattering map does not move I"):
                build()

    def test_domain_error_mid_burst_ends_the_burst(self, monkeypatch):
        # a step onto the crest window's edge raises DomainError: the burst
        # ends at the step before it, and the orbit still reaches the target
        calls = []

        def step(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 3:
                raise DomainError("slope of horizontal parameterization undefined")
            return scattering_step(*args, **kwargs)

        monkeypatch.setattr(df, "scattering_step", step)
        orbit = df.build_pseudo_orbit_highway(P05, -1.0, 1.0)
        assert orbit.final_point.I >= 1.0
        cap = math.ceil(P05.eps**-0.5)
        assert cap > 3   # the error falls inside the first burst
        first = orbit.legs[0]
        assert first.mechanism is df.Mechanism.SCATTERING
        assert first.points == tuple(calls[:3])   # start, then two good steps
        assert orbit.legs[1].mechanism is df.Mechanism.INNER

    def test_burst_reaching_the_end_is_not_stalled(self):
        # at I = 9 a step gains about 5e-7 < eps * 1e-3, but it passes I_end
        p = ModelParams(0.0, 0.6, 1.0, eps=0.01)
        orbit = df.build_pseudo_orbit_highway(p, 9.0, 9.0 + 1e-9)
        assert len(orbit.legs) == 1
        assert orbit.final_point.I >= 9.0 + 1e-9

    def test_breakage_band_rejected(self, p09):
        p = ModelParams(0.0, 0.9, 1.0, eps=0.01)
        with pytest.raises(NotInDomain):
            df.build_pseudo_orbit_highway(p, 0.0, 2.0)


class TestGeneralOrbit:
    def test_delegates_in_single_regime(self):
        orb = df.build_pseudo_orbit_general(P05, 1.0)
        assert orb.final_point.I >= 1.0
        assert orb.legs[0].points[0].I == -1.0
        # no action is in a band, so the drift is the highway orbit
        lane = df.build_pseudo_orbit_highway(P05, -1.0, 1.0, df._rising_side(P05))
        assert repr(orb.legs) == repr(lane.legs)

    @pytest.mark.parametrize("mu, eps, I_star", [
        (0.3, 0.01, 3.0), (0.6, 0.05, 2.0), (0.9, 0.02, 2.5), (1.5, 0.02, 2.0),
        (0.9, 0.031354066700506104, 1.2591006923797505),
    ])
    def test_lane_solved_once_per_action(self, mu, eps, I_star, monkeypatch):
        # each leg starts where the last one ended, with its deviation, and
        # the lane theta and the band flag are found once for each action a
        # leg starts or ends at
        solved, banded = [], []
        in_band = df._in_band

        def counted(params, I, *args, **kwargs):
            solved.append(I)
            return highway_psi(params, I, *args, **kwargs)

        def band_counted(params, I):
            banded.append(I)
            return in_band(params, I)

        monkeypatch.setattr(df, "highway_psi", counted)
        monkeypatch.setattr(df, "_in_band", band_counted)
        orb = df.build_pseudo_orbit_general(ModelParams(0.0, mu, 1.0, eps=eps), I_star)
        for prev, leg in zip(orb.legs, orb.legs[1:]):
            assert leg.points[0] == prev.points[-1]
            assert repr(leg.deviation_start) == repr(prev.deviation_end)   # NaN too
        ends = [I for leg in orb.legs for I in (leg.points[0].I, leg.points[-1].I)]
        assert sorted(solved) == sorted(set(ends))
        assert sorted(banded) == sorted(set(ends) - {orb.final_point.I})

    def test_crosses_tangency_band(self, p09):
        orb = df.build_pseudo_orbit_general(p09, 2.0)
        assert orb.final_point.I >= 2.0
        from scatmap.crests import critical_actions
        i_plus, i_pp = critical_actions(p09)
        in_band = [leg for leg in orb.legs
                   if leg.mechanism is df.Mechanism.SCATTERING
                   and any(i_plus <= pt.I <= i_pp for pt in leg.points)]
        assert in_band  # at least one branch-A burst inside the band
        for leg in orb.legs:
            if leg.mechanism is df.Mechanism.SCATTERING:
                for a, b in zip(leg.points, leg.points[1:]):
                    assert b.I > a.I


class TestScatteringTime:
    def test_shi_lower_bound(self, p06):
        for i0, i1 in ((0.0, 2.0), (0.5, 3.0)):
            ts = df.time_Ts(p06, i0, i1, Side.RIGHT)
            bound = (shichi(i1 * math.pi / 2)[0] - shichi(i0 * math.pi / 2)[0]) / (
                TWO_PI * p06.a10)
            assert ts >= bound

    def test_symmetric_interval_doubles(self, p06):
        half = df.time_Ts(p06, 0.0, 2.0, Side.RIGHT)
        full = df.time_Ts(p06, -2.0, 2.0, Side.RIGHT)
        assert full == pytest.approx(2.0 * half, rel=1e-9)

    def test_monotone_in_upper_limit(self, p06):
        values = [df.time_Ts(p06, 0.0, x, Side.RIGHT) for x in (1.0, 2.0, 3.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_trapezoid_oracle(self, p06):
        # independent trapezoid refinement of the same integrand
        def integrand(I):
            if abs(I) < 1e-9:
                return 1.0 / (4.0 * p06.a10)
            psi = highway_psi(p06, abs(I), Side.RIGHT)
            return -math.sinh(math.pi * abs(I) / 2) / (
                TWO_PI * p06.a10 * abs(I) * math.sin(psi))

        xs = np.linspace(0.0, 2.0, 4097)
        ys = np.array([integrand(float(x)) for x in xs])
        trap = np.trapezoid(ys, xs)
        ts = df.time_Ts(p06, 0.0, 2.0, Side.RIGHT)
        assert abs(ts - trap) / ts <= 1e-6

    def test_domain_check(self, p09):
        with pytest.raises(NotInDomain):
            df.time_Ts(p09, 0.0, 2.0, Side.RIGHT)


class TestTravelTime:
    def test_delta_identity(self, p06):
        th, delta, C = df.time_Th(p06, 4.0)
        assert th == pytest.approx(2.0 * math.log(4.0 * math.sqrt(2.0) / delta),
                                   rel=1e-13)
        assert th == pytest.approx(2.0 * math.log(C / p06.eps), rel=1e-13)

    def test_constant_value(self, p06):
        # C = 16*0.6*(1 + 1.465/sqrt(1 - (0.6*max alpha)^2)) ~ 27.5
        _, _, C = df.time_Th(p06, 4.0)
        from scatmap.crests import alpha_max
        a = alpha_max()[1]
        expected = 16 * 0.6 * (1 + 1.465 / math.sqrt(1 - (0.6 * a) ** 2))
        assert C == pytest.approx(expected, rel=1e-13)
        assert C == pytest.approx(27.5, abs=0.1)

    def test_equivalent_paper_form(self, p06):
        # 16(|a10| + 1.465 |a01| |mu| / sqrt(1-mu^2 A^2)) via |a01||mu| = |a10|
        _, _, C = df.time_Th(p06, 4.0)
        from scatmap.crests import alpha_max
        a = alpha_max()[1]
        other = 16 * (abs(p06.a10) + 1.465 * abs(p06.a01) * abs(p06.mu)
                      / math.sqrt(1 - (p06.mu * a) ** 2))
        assert C == pytest.approx(other, rel=1e-14)

    def test_undefined_when_mu_alpha_reaches_one(self):
        p = ModelParams(0.0, 1.2, 1.0, eps=0.01)
        with pytest.raises(ScatmapError, match="travel-time constant undefined"):
            df.time_Th(p, 4.0)


class TestDiffusionTime:
    def test_decomposition_identity(self, p06):
        est = df.diffusion_time(p06, 2.0)
        assert est.Td == est.Ns * est.Th + (est.Ns // est.Nss) * est.Ti
        assert est.Td > est.Ns * est.Th

    def test_ratio_monotone_to_one(self):
        ratios = []
        shares = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = ModelParams(0.0, 0.6, 1.0, eps=eps)
            est = df.diffusion_time(p, 4.0, c=0.5, a=0.15)
            ratios.append(est.ratio)
            shares.append(est.inner_share)
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert abs(ratios[2] - 1.0) <= 0.10
        assert shares[0] > shares[1] > shares[2]

    def test_invalid_exponents(self, p06):
        with pytest.raises(ValueError):
            df.diffusion_time(p06, 2.0, c=0.3, a=0.5)

    @pytest.mark.parametrize("I_star", [-4.0, 0.0])
    def test_nonpositive_istar_rejected(self, p06, I_star):
        # as build_pseudo_orbit_general and epsilon_star reject it
        with pytest.raises(ValueError, match="I_star must be positive"):
            df.diffusion_time(p06, I_star)


class TestPropagatedErrorBound:
    def test_edge_stencil_point_drops_its_cell(self, p06, monkeypatch):
        # a stencil point on the crest window's edge drops its cell, as one
        # near the tangency locus does; neither raises
        gradient = df._gradient

        def marking(code):
            def patched(*args):
                d_i, d_theta, why = gradient(*args)
                assert why[7] == sc._OK
                why[7] = code
                return d_i, d_theta, why
            return patched

        found = []
        for code in (sc._EDGE, sc._TANGENT):
            monkeypatch.setattr(df, "_gradient", marking(code))
            found.append(df._region_constants.__wrapped__(p06, 0.5, 1.5, 9))
        assert found[0] == found[1]

    def test_zero_steps_returns_deviation(self, p06):
        assert df.propagated_error_bound(p06, 0, 0.123, (0.0, 2.0)) == 0.123

    def test_bounds_single_step_error(self):
        p = ModelParams(0.0, 0.6, 1.0, eps=1e-2)
        bound = df.propagated_error_bound(p, 1, 0.0, (0.5, 1.5))
        for theta in (1.0, 2.5, 4.0, 5.5):
            pt = ReducedPoint(I=1.0, theta=theta)
            stepped = scattering_step(p, pt)
            flowed = flow_reduced_hamiltonian(p, pt, p.eps)
            err = math.hypot(stepped.I - flowed.I,
                             wrap_signed(stepped.theta - flowed.theta))
            assert err <= bound

    def test_scaling_under_eps_halving(self):
        # bound with n = ceil(eps^-c), dev = eps^a behaves like O(eps^a)
        vals = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            p = ModelParams(0.0, 0.6, 1.0, eps=eps)
            n = math.ceil(eps**-0.5)
            vals.append(df.propagated_error_bound(p, n, eps**0.25, (0.0, 2.0)))
        assert vals[0] > vals[1] > vals[2]

    def test_overflow_is_infinite(self):
        # across the mu = 0.9 tangency band the sampled Hessian norm K is
        # about 1.9e5, so exp(K*eps*n) leaves the float range: the bound is
        # inf and the pseudo-orbit is still built (it used to raise
        # OverflowError)
        p = ModelParams(0.0, 0.9, 1.0, eps=0.031354066700506104)
        I_star = 1.2591006923797505
        assert df.propagated_error_bound(p, 6, 0.1, (-I_star, I_star)) == math.inf
        orbit = df.build_pseudo_orbit_general(p, I_star)
        assert orbit.final_point.I >= I_star
        assert any(leg.error_bound == math.inf for leg in orbit.legs)
