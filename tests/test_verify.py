import math

import numpy as np
import pytest

import scatmap.verify as vf
from scatmap import ModelParams
from scatmap.errors import NotInDomain
from scatmap.highways import epsilon_star
from scatmap.model import FullState, TWO_PI, melnikov_potential, pendulum_energy, separatrix

P0 = ModelParams(0.0, 0.6, 1.0, eps=0.0)


class TestQuadratureOracle:
    def test_agrees_with_closed_form(self, p06):
        rng = np.random.default_rng(11)
        for _ in range(12):
            I = float(rng.uniform(-3, 3))
            phi, s = (float(x) for x in rng.uniform(0, TWO_PI, 2))
            closed = melnikov_potential(p06, I, phi, s)
            oracle = vf.melnikov_quadrature_oracle(p06, I, phi, s, tol=1e-11)
            assert abs(closed - oracle) / max(1.0, abs(closed)) <= 1e-8

    def test_top_value(self, p06):
        from scatmap.model import amp_A00, amp_A01, amp_A10
        got = vf.melnikov_quadrature_oracle(p06, 1.0, 0.0, 0.0, tol=1e-12)
        expected = amp_A00(p06) + amp_A10(p06, 1.0) + amp_A01(p06)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_even_in_action(self, p06):
        for I in (0.4, 1.3, 2.2):
            a = vf.melnikov_quadrature_oracle(p06, I, 1.0, 2.0, tol=1e-12)
            b = vf.melnikov_quadrature_oracle(p06, -I, 1.0, 2.0, tol=1e-12)
            assert abs(a - b) <= 1e-10


class TestIntegrator:
    def test_separatrix_invariance_unperturbed(self):
        p0, q0 = separatrix(-2.0)
        traj = vf.integrate_full(P0, FullState(p=p0, q=q0, I=1.0, phi=0.5, s=0.0),
                                 20.0, tol=1e-11)
        assert max(abs(pendulum_energy(st.p, st.q)) for st in traj.states) <= 1e-9
        assert max(abs(st.I - 1.0) for st in traj.states) <= 1e-10

    def test_torus_flow_exact(self):
        traj = vf.integrate_full(P0, FullState(p=0.0, q=0.0, I=0.7, phi=1.0, s=0.5),
                                 13.0, tol=1e-12)
        end = traj.states[-1]
        assert end.p == pytest.approx(0.0, abs=1e-12)
        assert end.q == pytest.approx(0.0, abs=1e-12)
        assert end.phi == pytest.approx((1.0 + 0.7 * 13.0) % TWO_PI, abs=1e-9)
        assert end.s == pytest.approx(13.5, abs=1e-12)

    def test_time_reversal(self, p06):
        start = FullState(p=1.2, q=2.0, I=0.8, phi=0.3, s=0.0)
        fwd = vf.integrate_full(p06, start, 10.0, tol=1e-12, n_samples=2)
        back = vf.integrate_full(p06, fwd.states[-1], -10.0, tol=1e-12, n_samples=2)
        end = back.states[-1]
        for name in ("p", "q", "I", "phi", "s"):
            assert getattr(end, name) == pytest.approx(getattr(start, name), abs=1e-8)

    def test_order_at_least_five(self):
        # fixed-step convergence on a pendulum arc near the separatrix
        p0, q0 = separatrix(-3.0)
        start = FullState(p=p0, q=q0, I=1.0, phi=0.5, s=0.0)
        ref = vf.integrate_full(P0, start, 4.0, tol=1e-13, n_samples=2).states[-1]

        def err_at(h):
            got = vf.integrate_full(P0, start, 4.0, tol=1e10, n_samples=2,
                                    max_step=h, first_step=h).states[-1]
            return max(abs(got.p - ref.p), abs(got.q - ref.q))

        for h in (0.5, 0.4):
            order = math.log2(err_at(h) / err_at(h / 2))
            assert order >= 5.0


class TestHomoclinicJump:
    def test_zero_eps(self):
        meas, pred = vf.measure_homoclinic_jump(P0, 1.0, 1.0, 0.0)
        assert meas == 0.0 and pred == 0.0

    def test_frozen_rotor_rejected(self, p06):
        from scatmap.errors import ScatmapError
        with pytest.raises(ScatmapError, match="needs a rotating torus"):
            vf.measure_homoclinic_jump(p06, 0.0, 1.0, 0.0)

    def test_first_order_agreement_and_sign(self):
        p = ModelParams(0.0, 0.6, 1.0, eps=1e-3)
        meas, pred = vf.measure_homoclinic_jump(p, 1.0, 1.0, 0.0)
        assert abs(meas - pred) <= 10 * p.eps**2
        assert math.copysign(1.0, meas) == math.copysign(1.0, pred)

    def test_order_two_error_scaling(self):
        errs = []
        for eps in (1e-3, 5e-4):
            p = ModelParams(0.0, 0.6, 1.0, eps=eps)
            meas, pred = vf.measure_homoclinic_jump(p, 1.0, 1.0, 0.0)
            errs.append(abs(meas - pred))
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestEpsilonStar:
    def test_envelope_inequality_large_action(self, p09):
        est = epsilon_star(p09, 4.0, grid=401)
        assert est.value < est.envelope

    def test_monotone_beyond_two(self, p09):
        vals = [epsilon_star(p09, x, grid=401).value for x in (2.0, 2.5, 3.0, 4.0)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_not_in_domain_when_vertical(self, p15):
        with pytest.raises(NotInDomain):
            epsilon_star(p15, 1.0)

    def test_gradient_zeros_only_at_special_points(self, p06):
        # the reduced-function gradient vanishes only near (I, theta) in
        # {(0, 0), (0, pi)} on a scan grid
        from scatmap.scattering import grad_reduced_poincare
        for I in np.linspace(-2.0, 2.0, 21):
            for theta in np.linspace(0.0, TWO_PI, 24, endpoint=False):
                gi, gt = grad_reduced_poincare(p06, float(I), float(theta))
                if math.hypot(gi, gt) < 1e-2:
                    assert abs(I) < 0.05
                    d0 = abs(math.remainder(theta, TWO_PI))
                    dpi = abs(theta - math.pi)
                    assert min(d0, dpi) < 0.05
