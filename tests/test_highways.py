import math

import pytest

import scatmap.highways as hw
from scatmap import ModelParams
from scatmap.crests import theta_of_psi
from scatmap.errors import NotInDomain
from scatmap.scattering import grad_reduced_poincare
from scatmap.model import wrap_angle

TWO_PI = 2.0 * math.pi


class TestLaneRoot:
    def test_anchor_at_zero_action(self, p06):
        assert hw.highway_psi(p06, 0.0, hw.Side.RIGHT) == pytest.approx(
            3 * math.pi / 2, abs=1e-12)
        assert hw.highway_psi(p06, 0.0, hw.Side.LEFT) == pytest.approx(
            math.pi / 2, abs=1e-12)
        # theta coincides with psi at I = 0
        psi = hw.highway_psi(p06, 0.0, hw.Side.RIGHT)
        assert theta_of_psi(p06, 0.0, psi) == pytest.approx(3 * math.pi / 2)

    def test_root_bracketed_by_sign_change(self, p06):
        psi = hw.highway_psi(p06, 2.0, hw.Side.RIGHT)
        f = lambda x: hw.level_gap(p06, 2.0, x)
        assert f(psi - 1e-6) * f(psi + 1e-6) < 0.0
        assert abs(f(psi)) <= 1e-10

    def test_not_in_domain_when_vertical(self, p15):
        with pytest.raises(NotInDomain):
            hw.highway_psi(p15, 1.0, hw.Side.RIGHT)


class TestTrace:
    def test_full_trace_single_regime(self, p06):
        samples = hw.trace_highway(p06, hw.Side.RIGHT, -4.0, 4.0, step=1e-2)
        assert len(samples) == 801
        assert max(abs(s.residual) for s in samples) <= 1e-10
        assert all(math.pi < s.theta < TWO_PI for s in samples)

    def test_left_side_range(self, p06):
        samples = hw.trace_highway(p06, hw.Side.LEFT, -2.0, 2.0, step=0.05)
        assert all(0.0 < s.theta < math.pi for s in samples)

    def test_symmetric_in_action(self, p06):
        up = hw.trace_highway(p06, hw.Side.RIGHT, 0.0, 3.0, step=0.1)
        down = hw.trace_highway(p06, hw.Side.RIGHT, 0.0, -3.0, step=0.1)
        for a, b in zip(up, down):
            assert a.theta == pytest.approx(b.theta, abs=1e-11)

    def test_verticality_and_drift_sign(self, p06):
        # along the right lane the angle-derivative component never vanishes
        # and keeps one sign (a10 > 0: positive)
        for s in hw.trace_highway(p06, hw.Side.RIGHT, -3.5, 3.5, step=0.25):
            _, d_theta = grad_reduced_poincare(p06, s.I, wrap_angle(s.theta))
            assert d_theta >= 1e-8

    def test_partial_trace_on_breakage(self, p15):
        with pytest.raises(NotInDomain) as err:
            hw.trace_highway(p15, hw.Side.RIGHT, 0.0, 1.0, step=0.05)
        assert len(err.value.partial) > 0
        assert err.value.partial[-1].I < 1.0


class TestDomain:
    def test_whole_line_in_single_regime(self):
        dom = hw.highway_domain(ModelParams(0.0, 0.5, 1.0))
        assert dom.guaranteed == ((-math.inf, math.inf),)
        assert dom.effective == ((-math.inf, math.inf),)
        assert dom.I_plus is None

    def test_three_intervals_in_holes_regime(self, p15):
        dom = hw.highway_domain(p15)
        assert dom.I_plus is not None and dom.I_plusplus is not None
        assert len(dom.guaranteed) == 3
        lo, hi = dom.guaranteed[1]
        assert lo == -dom.I_plus and hi == dom.I_plus

    def test_effective_can_exceed_guaranteed(self, p09):
        dom = hw.highway_domain(p09)
        # at mu = 0.9 the lane root exists through the whole band and stays
        # clear of the tangency angles, so the detector reports extra cover
        assert len(dom.effective) > len(dom.guaranteed)
        inside = 0.5 * (dom.I_plus + dom.I_plusplus)
        assert hw.in_intervals(inside, dom.effective)
        assert not hw.in_intervals(inside, dom.guaranteed)

    def test_domain_symmetric(self, p09):
        dom = hw.highway_domain(p09)
        for lo, hi in dom.effective:
            assert hw.in_intervals(-lo, dom.effective) or not math.isfinite(lo)
