import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scatmap.crests as cr
from scatmap import ModelParams, alpha, beta
from scatmap.errors import DomainError
from scatmap.model import crest_coefficient
from scatmap.scattering import dtheta_dpsi_at

TWO_PI = 2.0 * math.pi
MAX, MIN = cr.CrestBranch.MAXIMUM, cr.CrestBranch.MINIMUM


class TestOrientation:
    def test_examples(self, p06, p09, p15):
        assert cr.crest_orientation(p06, 1.2) is cr.Orientation.HORIZONTAL
        p12 = ModelParams(0.0, 1.2, 1.0)
        assert cr.crest_orientation(p12, 1.0) is cr.Orientation.VERTICAL
        p1 = ModelParams(0.0, 1.0, 1.0)
        assert cr.crest_orientation(p1, 1.0) is cr.Orientation.SINGULAR


class TestHorizontalParameterization:
    def test_anchors(self, p06):
        for I in (0.5, 1.2, 3.0):
            assert cr.xi(p06, MAX, I, 0.0) == 0.0
            assert cr.xi(p06, MAX, I, math.pi) == 0.0
            assert cr.xi(p06, MIN, I, 0.0) == pytest.approx(math.pi)

    def test_known_value(self, p06):
        got = cr.xi(p06, MAX, 1.2, math.pi / 2)
        expected = -math.asin(0.6 * alpha(1.2)) % TWO_PI
        assert got == pytest.approx(expected, abs=1e-15)
        assert abs(cr.crest_residual(p06, 1.2, math.pi / 2, got)) <= 1e-12

    def test_domain_error_in_vertical_zone(self, p15):
        with pytest.raises(DomainError):
            cr.xi(p15, MAX, 1.0, math.pi / 2)

    @given(st.floats(0.1, 2.0), st.floats(-4.0, 4.0), st.floats(0.0, TWO_PI))
    @settings(max_examples=150)
    def test_residual_property(self, mu, I, phi):
        p = ModelParams(a00=0.0, a10=mu, a01=1.0)
        assume(abs(crest_coefficient(p, I) * math.sin(phi)) <= 1.0)
        for branch in (MAX, MIN):
            s = cr.xi(p, branch, I, phi)
            assert abs(cr.crest_residual(p, I, phi, s)) <= 1e-12


class TestVerticalParameterization:
    def test_anchors(self, p15):
        assert cr.eta(p15, MAX, 1.0, 0.0) == 0.0
        assert cr.eta(p15, MIN, 1.0, 0.0) == pytest.approx(math.pi)

    def test_residual(self, p15):
        phi = cr.eta(p15, MAX, 1.0, math.pi / 4)
        assert abs(cr.crest_residual(p15, 1.0, phi, math.pi / 4)) <= 1e-12

    def test_domain_error(self, p06):
        # horizontal crest: |sin s| > |mu alpha| for s = pi/2
        with pytest.raises(DomainError):
            cr.eta(p06, MAX, 1.2, math.pi / 2)


class TestTangency:
    def test_none_in_single_regime(self):
        p = ModelParams(0.0, 0.5, 1.0)
        for I in np.linspace(0.05, 6.0, 40):
            assert cr.tangency_points(p, float(I)) is None

    def test_exists_at_tangency_example(self, p09):
        info = cr.tangency_points(p09, 1.5)
        assert info is not None
        assert math.pi / 2 < info.psi1 <= math.pi <= info.psi2 < 3 * math.pi / 2
        assert info.psi2 == pytest.approx(TWO_PI - info.psi1, abs=1e-12)
        assert info.theta1 >= info.theta2

    def test_tangency_slope_condition(self, p09):
        # at the tangent angles the crest slope equals the segment slope 1/I:
        # d theta/d psi = 1 - I * slope vanishes
        for I in (1.2, 1.5, 2.0, 2.8):
            info = cr.tangency_points(p09, I)
            assert info is not None
            for psi in (info.psi1, info.psi2):
                assert dtheta_dpsi_at(p09, I, psi) == pytest.approx(0.0, abs=I * 1e-8)

    @pytest.mark.parametrize("mu", [0.9, -0.9, 1.5, -1.5])
    def test_angles_for_either_sign_of_mu(self, mu):
        # theta decreases from psi1 to psi2, where d theta/d psi vanishes:
        # around pi for mu > 0 and around 0 for mu < 0, as the label of -mu
        # is theta(psi + pi) - pi at mu
        p, flipped = ModelParams(0.0, mu, 1.0), ModelParams(0.0, -mu, 1.0)
        found = 0
        for I in np.linspace(-3.5, 3.5, 71).tolist():
            info = cr.tangency_points(p, I)
            if info is None:
                continue
            found += 1
            centre = math.pi if mu > 0 else 0.0
            assert info.psi1 <= centre <= info.psi2
            assert info.psi1 + info.psi2 == pytest.approx(2 * centre, abs=1e-12)
            assert info.theta1 >= info.theta2
            for psi in (info.psi1, info.psi2):
                assert dtheta_dpsi_at(p, I, psi) == pytest.approx(0.0, abs=abs(I) * 1e-8)
            assert dtheta_dpsi_at(p, I, centre) < 0.0
            other = cr.tangency_points(flipped, I)
            shift = math.copysign(math.pi, mu)
            for x, y in ((info.psi1, other.psi1), (info.psi2, other.psi2),
                         (info.theta1, other.theta1), (info.theta2, other.theta2)):
                assert x == pytest.approx(y + shift, abs=1e-12)
        assert found >= 10

    def test_predicate_agreement(self, p09, p15):
        # nonempty exactly on {1 <= I*|mu|*alpha(I)} cap {|mu|*alpha(I) <= 1}
        for p in (p09, p15):
            for I in np.linspace(1e-3, 5.0, 1000):
                a = abs(p.mu) * alpha(float(I))
                predicted = (float(I) * a >= 1.0 and cr.crest_orientation(p, float(I))
                             is cr.Orientation.HORIZONTAL)
                assert (cr.tangency_points(p, float(I)) is not None) == predicted


def _params_at(I: float, c: float) -> ModelParams:
    """Parameters with |crest_coefficient| at I equal to c, or a float or two
    off it where no a10 gives c exactly."""
    a10 = c / alpha(I)
    for _ in range(8):
        got = abs(crest_coefficient(ModelParams(0.0, a10, 1.0), I))
        if got == c:
            break
        a10 = math.nextafter(a10, math.inf if got < c else 0.0)
    return ModelParams(0.0, a10, 1.0, eps=0.01)


class TestShapeAgreement:
    """Every site that decides the crest shape decides as crest_orientation."""

    # |I| * c < 1 at 0.8 (no tangency possible), > 1 at 1.5 and 2.5
    @pytest.mark.parametrize("I", [0.8, 1.5, -1.5, 2.5])
    @pytest.mark.parametrize("c", [1.0 + sign * off for sign in (-1.0, 1.0)
                                   for off in (0.0, 1e-13, 1e-12, 2e-12, 1e-9)])
    def test_sites_agree(self, I, c):
        from scatmap.diffusion import _in_band
        from scatmap.errors import NotInDomain
        from scatmap.highways import highway_psi
        from scatmap.scattering import _OK, _SINGULAR, _primary, scattering_branches
        from scatmap.highways import epsilon_star

        p = _params_at(I, c)
        shape = cr.crest_orientation(p, I)
        horizontal = shape is cr.Orientation.HORIZONTAL
        b = abs(I) * abs(crest_coefficient(p, I))

        assert (cr.tangency_points(p, I) is not None) == (horizontal and b >= 1.0)
        if horizontal:
            highway_psi(p, I)
            epsilon_star(p, abs(I), grid=2)   # samples I = 0 and |I| only
        else:
            with pytest.raises(NotInDomain):
                highway_psi(p, I)
            with pytest.raises(NotInDomain, match="^lane undefined at"):
                epsilon_star(p, abs(I), grid=2)
        # theta = 0 is on the crest, so only a singular crest has no branch
        branches = scattering_branches(p, I, 0.0)
        assert (branches.available == ()) == (shape is cr.Orientation.SINGULAR)
        if b >= 1.0:
            assert (branches.tangency is not None) == horizontal
        why = int(_primary(p, I, 0.0, 0.0)[3][0])
        assert why == (_SINGULAR if shape is cr.Orientation.SINGULAR else _OK)
        assert _in_band(p, I) == (not horizontal or b >= 1.0)


class TestCriticalActions:
    def test_single_regime(self):
        p = ModelParams(0.0, 0.5, 1.0)
        assert cr.critical_actions(p) == (None, None)

    def test_mu_one(self):
        p = ModelParams(0.0, 1.0, 1.0)
        i_plus, i_plusplus = cr.critical_actions(p)
        assert i_plus == pytest.approx(1.0, abs=1e-9)
        assert i_plusplus > i_plus

    def test_roots_satisfy_defining_equations(self, p09):
        i_plus, i_plusplus = cr.critical_actions(p09)
        target = 1.0 / abs(p09.mu)
        assert beta(i_plus) == pytest.approx(target, abs=1e-9)
        assert beta(i_plusplus) == pytest.approx(target, abs=1e-9)
        assert i_plus < i_plusplus

    def test_large_mu_small_root_asymptote(self):
        p = ModelParams(0.0, 100.0, 1.0)
        i_plus, i_plusplus = cr.critical_actions(p)
        asym = math.pi / (2.0 * 100.0 * math.sinh(math.pi / 2))
        assert abs(i_plus - asym) / asym <= 0.05
        # the large root satisfies its defining equation; the log asymptote
        # needs its self-consistent correction to be accurate at mu = 100
        assert beta(i_plusplus) == pytest.approx(0.01, abs=1e-10)
        L = math.log(2.0 * math.sinh(math.pi / 2) * 100.0)
        corrected = (2.0 / math.pi) * (L + 3.0 * math.log(i_plusplus))
        assert abs(i_plusplus - corrected) / i_plusplus <= 0.01

    def test_roots_in_one_scan_cell(self):
        # just above 1/max(beta) both roots of beta = 1/mu lie within 2.5e-4
        # of the argmax, inside one cell of a 0.01-step sign-change scan
        mu = 0.6248588302370183
        rep = cr.classify_regime(ModelParams(0.0, mu, 1.0))
        assert rep.regime is cr.Regime.TANGENCY and not rep.boundary
        i_beta = cr.beta_max()[0]
        assert rep.I_plus < i_beta < rep.I_plusplus < rep.I_plus + 1e-3
        for root in (rep.I_plus, rep.I_plusplus):
            assert beta(root) == pytest.approx(1.0 / mu, abs=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_roots_merge_at_the_threshold(self, sign):
        # |mu| = 1/max(beta) exactly: the two roots are beta's argmax
        mu = sign / cr.beta_max()[1]
        i_beta = cr.beta_max()[0]
        assert cr.critical_actions(ModelParams(0.0, mu, 1.0)) == (i_beta, i_beta)
        rep = cr.classify_regime(ModelParams(0.0, mu, 1.0))
        assert rep.boundary and rep.I_plus == rep.I_plusplus == i_beta

    def test_no_root_missed_above_the_threshold(self):
        i_beta, b_max = cr.beta_max()
        for offset in np.geomspace(1e-9, 1e-4, 400).tolist():
            i_plus, i_plusplus = cr.critical_actions(ModelParams(0.0, 1.0 / b_max + offset, 1.0))
            assert i_plus <= i_beta <= i_plusplus

    def test_roots_beyond_the_range_rejected(self):
        # at |mu| = 1e6 the root of alpha = 1/|mu| lies below 1e-6
        assert cr.critical_actions(ModelParams(0.0, 6e5, 1.0))[0] > 1e-6
        with pytest.raises(ValueError, match="outside"):
            cr.critical_actions(ModelParams(0.0, 1e6, 1.0))

    def test_monotone_in_mu(self):
        values = []
        for mu in np.linspace(0.63, 2.0, 18):
            i_plus, _ = cr.critical_actions(ModelParams(0.0, float(mu), 1.0))
            values.append(i_plus)
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestRegimes:
    def test_thresholds(self, p06):
        rep = cr.classify_regime(p06)
        assert abs(rep.mu_low - 0.625) <= 1e-3
        assert abs(rep.mu_high - 0.97) <= 1e-2

    def test_examples(self, p06, p09, p15):
        assert cr.classify_regime(p06).regime is cr.Regime.SINGLE_MAP
        assert cr.classify_regime(p09).regime is cr.Regime.TANGENCY
        assert cr.classify_regime(p15).regime is cr.Regime.HOLES

    def test_boundary_flag(self):
        mu_low = 1.0 / cr.beta_max()[1]
        rep = cr.classify_regime(ModelParams(0.0, mu_low, 1.0))
        assert rep.boundary
        assert rep.regime is cr.Regime.TANGENCY  # closed interval
        assert not cr.classify_regime(ModelParams(0.0, 0.7, 1.0)).boundary
