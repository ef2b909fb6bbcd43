"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not deferred.  Criterion 4 asserts its
stated table verbatim; its I* = 1 entry is not met by the lane-minimum
recipe and is left to fail rather than being loosened, until the paper's
definition of eps* settles whether the table or the recipe is wrong
(docs/DECISIONS.md).
"""
import math
import time

import numpy as np
from scipy.special import lambertw

import scatmap.diffusion as df
import scatmap.verify as vf
from scatmap import ModelParams
from scatmap.crests import Regime, alpha_max, beta_max, classify_regime, critical_actions
from scatmap.highways import Side, trace_highway
from scatmap.model import TWO_PI, melnikov_potential
from scatmap.scattering import (
    finite_diff_grad,
    grad_reduced_poincare,
    reduced_poincare,
    symmetry_check_mu,
)
from scatmap.errors import TangencyPoint

P06_RUN = ModelParams(0.0, 0.6, 1.0, eps=0.01)

_RESULTS: list[tuple[str, bool, str]] = []


def record(name: str, ok: bool, detail: str):
    _RESULTS.append((name, ok, detail))
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_melnikov_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for I in np.linspace(-3.0, 3.0, 5):
        for phi in np.linspace(0.0, TWO_PI, 5, endpoint=False):
            for s in np.linspace(0.0, TWO_PI, 5, endpoint=False):
                closed = melnikov_potential(P06_RUN, float(I), float(phi), float(s))
                oracle = vf.melnikov_quadrature_oracle(
                    P06_RUN, float(I), float(phi), float(s), tol=1e-11)
                worst = max(worst, abs(closed - oracle) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - t0
    record("criterion 1: splitting potential vs quadrature oracle",
           worst <= 1e-8 and elapsed < 10.0,
           f"max rel err {worst:.3e} over 125 points in {elapsed:.1f}s")


def test_criterion_02_extremum_constants():
    i_a, a_max = alpha_max()
    i_b, b_max = beta_max()
    ok = (abs(i_a - 1.219) <= 1e-2 and abs(a_max - 1.031) <= 1e-2
          and abs(i_b - 1.9) <= 1e-2 and abs(b_max - 1.6) <= 1e-2)
    record("criterion 2: shape-function extrema",
           ok, f"alpha max {a_max:.6f} at {i_a:.4f}; beta max {b_max:.6f} at {i_b:.4f}")


def test_criterion_03_regime_thresholds():
    rep = classify_regime(P06_RUN)
    regimes = {mu: classify_regime(ModelParams(0.0, mu, 1.0)).regime
               for mu in (0.6, 0.9, 1.5)}
    ok = (abs(rep.mu_low - 0.625) <= 1e-3 and abs(rep.mu_high - 0.97) <= 1e-2
          and regimes[0.6] is Regime.SINGLE_MAP
          and regimes[0.9] is Regime.TANGENCY
          and regimes[1.5] is Regime.HOLES)
    record("criterion 3: regime thresholds and examples", ok,
           f"mu_low {rep.mu_low:.6f}, mu_high {rep.mu_high:.6f}, "
           f"0.6/0.9/1.5 -> {[regimes[m].value for m in (0.6, 0.9, 1.5)]}")


def test_criterion_04_eps_star_table():
    t0 = time.perf_counter()
    p = ModelParams(0.0, 0.9, 1.0)
    table = {1.0: 1.4, 2.0: 0.75, 3.0: 0.25, 4.0: 0.07}
    rows = []
    ok = True
    for i_star, target in table.items():
        est = vf.epsilon_star(p, i_star, grid=1601)
        rel = (est.value - target) / target
        rows.append(f"I*={i_star:g}: {est.value:.4f} vs {target} ({rel:+.1%})")
        ok &= abs(rel) <= 0.20
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    record("criterion 4: admissible-perturbation table at mu = 0.9", ok,
           "; ".join(rows) + f" [{elapsed:.1f}s]"
           + ("" if ok else "  NOTE: the I*=1 entry is not reproducible from "
              "the lane-minimum recipe (see docs/DECISIONS.md); entries 2-4 meet +-20%"))


def test_criterion_05_highway_anchor_and_residuals():
    samples = trace_highway(P06_RUN, Side.RIGHT, -4.0, 4.0, step=1e-2)
    at_zero = min(samples, key=lambda s: abs(s.I))
    anchor_err = abs(at_zero.theta - 3.0 * math.pi / 2.0)
    worst = max(abs(s.residual) for s in samples)
    record("criterion 5: right-lane anchor and level residuals",
           anchor_err <= 1e-10 and worst <= 1e-10,
           f"anchor error {anchor_err:.2e}, max residual {worst:.2e} over {len(samples)} samples")


def test_criterion_06_symmetries():
    worst_even = 0.0
    for I in np.linspace(0.05, 2.5, 20):
        for theta in np.linspace(0.0, TWO_PI, 20, endpoint=False):
            worst_even = max(worst_even, abs(
                reduced_poincare(P06_RUN, float(I), float(theta))
                - reduced_poincare(P06_RUN, -float(I), float(theta))))
    rep = symmetry_check_mu(P06_RUN, n=20)
    ok = worst_even <= 1e-10 and rep.max_discrepancy <= 1e-10
    record("criterion 6: action evenness and mu-flip identity", ok,
           f"evenness {worst_even:.2e}, mu-flip discrepancy {rep.max_discrepancy:.2e}")


def test_criterion_07_homoclinic_jump_order():
    t0 = time.perf_counter()
    errs = []
    for eps in (1e-3, 5e-4):
        p = ModelParams(0.0, 0.6, 1.0, eps=eps)
        meas, pred = vf.measure_homoclinic_jump(p, 1.0, 1.0, 0.0)
        errs.append(abs(meas - pred))
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    record("criterion 7: action-jump error halves at second order",
           3.0 <= ratio <= 5.0 and elapsed < 120.0,
           f"errors {errs[0]:.3e} -> {errs[1]:.3e}, ratio {ratio:.2f} [{elapsed:.1f}s]")


def test_criterion_08_pseudo_orbit():
    p = ModelParams(0.0, 0.6, 1.0, eps=0.05)
    orbit = df.build_pseudo_orbit_highway(p, -4.0, 4.0)
    reached = orbit.final_point.I >= 4.0
    monotone = all(b.I > a.I
                   for leg in orbit.legs if leg.mechanism is df.Mechanism.SCATTERING
                   for a, b in zip(leg.points, leg.points[1:]))
    bounded = all(leg.deviation_end <= leg.error_bound
                  for leg in orbit.legs if leg.mechanism is df.Mechanism.SCATTERING)
    record("criterion 8: drift itinerary from -4 to 4 at eps = 0.05",
           reached and monotone and bounded,
           f"final I {orbit.final_point.I:.4f}, {len(orbit.legs)} legs, "
           f"monotone={monotone}, per-leg deviation bounded={bounded}")


def test_criterion_09_total_time_asymptotics():
    ratios, shares = [], []
    for eps in (1e-2, 1e-3, 1e-4):
        p = ModelParams(0.0, 0.6, 1.0, eps=eps)
        est = df.diffusion_time(p, 4.0, c=0.5, a=0.15)
        ratios.append(est.ratio)
        shares.append(est.inner_share)
    ok = (ratios[0] > ratios[1] > ratios[2] > 1.0
          and abs(ratios[2] - 1.0) <= 0.10
          and shares[0] > shares[1] > shares[2])
    record("criterion 9: total-time ratio approaches the asymptotic form", ok,
           f"ratios {[f'{r:.3f}' for r in ratios]}, shares {[f'{s:.3f}' for s in shares]} "
           "(exponents c=0.5, a=0.15)")


def test_criterion_10_critical_action_asymptotics():
    mu = 100.0
    p = ModelParams(0.0, mu, 1.0)
    i_plus, i_plusplus = critical_actions(p)
    asym_plus = math.pi / (2.0 * mu * math.sinh(math.pi / 2.0))
    # For large I, beta(I) = 2 sinh(pi/2) I^3 exp(-pi I/2) (1 + O(exp(-pi I))),
    # and beta(I) = 1/mu solves exactly on the lower Lambert-W branch.  The
    # dropped factor moves I++ by about exp(-pi I++), 2e-11 at mu = 100.
    k = 2.0 * math.sinh(math.pi / 2.0) * mu
    asym_pp = -(6.0 / math.pi) * lambertw(-(math.pi / 6.0) * k ** (-1.0 / 3.0), -1).real
    rel_plus = abs(i_plus - asym_plus) / asym_plus
    rel_pp = abs(i_plusplus - asym_pp) / asym_pp
    record("criterion 10: critical actions vs large-mu asymptotes",
           rel_plus <= 0.05 and rel_pp <= 1e-8,
           f"I+ {i_plus:.6f} vs {asym_plus:.6f} ({rel_plus:.1%}); "
           f"I++ {i_plusplus:.10f} vs {asym_pp:.10f} (rel {rel_pp:.1e})")


def test_criterion_11_gradient_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 1000:
        I = float(rng.uniform(-3.0, 3.0))
        theta = float(rng.uniform(0.0, TWO_PI))
        if abs(I) < 0.02:
            continue
        try:
            gi, gt = grad_reduced_poincare(P06_RUN, I, theta)
            fi, ft = finite_diff_grad(P06_RUN, I, theta)
        except TangencyPoint:
            continue
        worst = max(worst, abs(gi - fi) / (1.0 + abs(gi)),
                    abs(gt - ft) / (1.0 + abs(gt)))
        checked += 1
    record("criterion 11: closed-form gradient vs central differences",
           worst <= 1e-6, f"max scaled error {worst:.3e} over 1000 points")


def test_zz_summary():
    print("\n--- acceptance summary ---")
    for name, ok, _ in _RESULTS:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    passed = sum(1 for _, ok, _ in _RESULTS if ok)
    print(f"  {passed}/{len(_RESULTS)} criteria passed")
