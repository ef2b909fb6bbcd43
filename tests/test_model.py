import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import scatmap.model as m
from scatmap import ModelParams, alpha, beta
from scatmap.crests import alpha_max, beta_max

TWO_PI = 2.0 * math.pi


class TestSeparatrix:
    def test_apex(self):
        p0, q0 = m.separatrix(0.0)
        assert p0 == 2.0
        assert q0 == pytest.approx(math.pi, abs=1e-15)

    def test_saddle_limit(self):
        p0, q0 = m.separatrix(40.0)
        assert 0.0 < p0 < 1e-16
        assert TWO_PI - q0 < 1e-16

    def test_t_equals_one(self):
        p0, q0 = m.separatrix(1.0)
        assert p0 == pytest.approx(1.2961, abs=1e-4)
        assert abs(m.pendulum_energy(p0, q0)) <= 1e-12

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=200)
    def test_energy_identity(self, t):
        p0, q0 = m.separatrix(t)
        assert abs(m.pendulum_energy(p0, q0)) <= 1e-12


class TestParams:
    def test_mu(self, p06):
        assert p06.mu == pytest.approx(0.6)

    @pytest.mark.parametrize("bad", [
        dict(a00=0.0, a10=0.0, a01=1.0),
        dict(a00=0.0, a10=1.0, a01=0.0),
        dict(a00=0.0, a10=1.0, a01=1.0, eps=-0.1),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            ModelParams(**bad)

    @pytest.mark.parametrize("field", ["a00", "a10", "a01", "eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kw = dict(a00=0.0, a10=0.6, a01=1.0, eps=0.01)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(**kw)


class TestMelnikovPotential:
    def test_global_max_at_origin(self, p06):
        vals = [m.melnikov_potential(p06, 1.0, phi, s)
                for phi in np.linspace(0, TWO_PI, 60, endpoint=False)
                for s in np.linspace(0, TWO_PI, 60, endpoint=False)]
        assert max(vals) == pytest.approx(m.melnikov_potential(p06, 1.0, 0.0, 0.0))
        assert min(vals) == pytest.approx(
            m.melnikov_potential(p06, 1.0, math.pi, math.pi))

    def test_unit_amplitudes_closed_form(self):
        # a00=0, a10=a01=1 at I=0: 4 cos(phi) + (2 pi / sinh(pi/2)) cos(s)
        p = ModelParams(a00=0.0, a10=1.0, a01=1.0)
        for phi, s in [(0.3, 1.2), (2.0, 4.0)]:
            expected = 4.0 * math.cos(phi) + TWO_PI / math.sinh(math.pi / 2) * math.cos(s)
            assert m.melnikov_potential(p, 0.0, phi, s) == pytest.approx(expected, rel=1e-15)

    @given(st.floats(-6.0, 6.0), st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI))
    @settings(max_examples=100)
    def test_even_in_action(self, I, phi, s):
        p = ModelParams(a00=0.2, a10=0.7, a01=1.1)
        assert m.melnikov_potential(p, I, phi, s) == m.melnikov_potential(p, -I, phi, s)


class TestShapeFunctions:
    def test_values_at_one(self):
        assert alpha(1.0) == pytest.approx(1.0, abs=1e-15)
        assert beta(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        assert alpha(0.0) == 0.0
        assert beta(0.0) == 0.0

    def test_alpha_extremum(self):
        i_a, a_max = alpha_max()
        assert i_a == pytest.approx(1.219, abs=1e-2)
        assert a_max == pytest.approx(1.0 / 0.97, abs=1e-2)

    def test_beta_extremum(self):
        i_b, b_max = beta_max()
        assert i_b == pytest.approx(1.9, abs=1e-2)
        assert b_max == pytest.approx(1.6, abs=1e-2)

    def test_decay(self):
        assert alpha(20.0) < 1e-10

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=100)
    def test_evenness(self, I):
        p = ModelParams(a00=0.0, a10=0.5, a01=1.0)
        assert m.amp_A10(p, I) == m.amp_A10(p, -I)
        assert alpha(I) == alpha(-I)

    def test_amp_derivative_matches_fd(self, p06):
        for I in (-2.3, -0.7, 0.01, 0.9, 1.7, 3.4):
            h = 1e-6
            fd = (m.amp_A10(p06, I + h) - m.amp_A10(p06, I - h)) / (2 * h)
            assert m.amp_A10_deriv(p06, I) == pytest.approx(fd, abs=1e-8)

    def test_alpha_prime_bound(self):
        # the travel-time constant uses the rounded bound 1.465 on |alpha'|
        grid = np.linspace(1e-4, 10.0, 20001)
        d = np.abs(np.diff([alpha(float(x)) for x in grid]) / np.diff(grid))
        assert d.max() <= 1.4651


class TestVectorField:
    def test_on_torus(self, p06):
        dp, dq, dI, dphi, ds = m.full_vector_field(p06, (0.0, 0.0, 0.8, 1.1, 2.0))
        assert dp == 0.0
        assert dI == pytest.approx(p06.eps * p06.a10 * math.sin(1.1), rel=1e-15)
        assert dphi == 0.8
        assert ds == 1.0

    def test_action_frozen_unperturbed(self):
        p = ModelParams(a00=0.3, a10=0.6, a01=1.0, eps=0.0)
        assert m.full_vector_field(p, (1.0, 2.0, 0.5, 0.7, 0.1))[2] == 0.0

    def test_matches_separatrix_derivative(self):
        p = ModelParams(a00=0.0, a10=0.6, a01=1.0, eps=0.0)
        h = 1e-5
        for t in (-2.0, -0.5, 0.0, 0.7, 1.9):
            p0, q0 = m.separatrix(t)
            dp, dq, *_ = m.full_vector_field(p, (p0, q0, 0.0, 0.0, 0.0))
            pdot = (m.separatrix(t + h)[0] - m.separatrix(t - h)[0]) / (2 * h)
            qdot = (m.separatrix(t + h)[1] - m.separatrix(t - h)[1]) / (2 * h)
            assert dp == pytest.approx(pdot, abs=1e-10)
            assert dq == pytest.approx(qdot, abs=1e-10)


class TestInnerFirstIntegral:
    def test_origin(self, p06):
        assert m.inner_first_integral(p06, 0.0, 0.0) == 0.0

    def test_unperturbed(self):
        p = ModelParams(a00=0.0, a10=0.6, a01=1.0, eps=0.0)
        assert m.inner_first_integral(p, 1.3, 2.0) == pytest.approx(1.3**2 / 2)

    def test_conserved_along_torus_flow(self, p06):
        def rhs(_t, y):
            return [p06.eps * p06.a10 * math.sin(y[1]), y[0]]

        y0 = [0.8, 0.4]
        f0 = m.inner_first_integral(p06, *y0)
        sol = solve_ivp(rhs, (0.0, 1e3), y0, method="DOP853",
                        rtol=1e-12, atol=1e-13, t_eval=np.linspace(0, 1e3, 101))
        drift = max(abs(m.inner_first_integral(p06, i, ph) - f0)
                    for i, ph in zip(sol.y[0], sol.y[1]))
        assert drift <= 1e-9


class TestAngles:
    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=200)
    def test_wrap_angle_range(self, x):
        w = m.wrap_angle(x)
        assert 0.0 <= w < TWO_PI
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-10)

    def test_state_wraps_angles(self):
        st5 = m.FullState(p=0.0, q=-1.0, I=0.0, phi=7.0, s=-3.0)
        assert 0.0 <= st5.q < TWO_PI
        assert 0.0 <= st5.phi < TWO_PI
        assert st5.s == -3.0
