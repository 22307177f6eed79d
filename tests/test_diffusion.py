import math

import numpy as np
import pytest

from spinkinetics import (
    DiffusionParams,
    RateElements,
    RegimeError,
    ValidationError,
    cage_rates,
    compute_radii,
    dephasing_radius,
    equal_radius_regime_check,
    rate_elements,
    reaction_radius,
    recombination_sensitivity,
    st_dephasing_rate_estimate,
    to_reaction_model,
)
from spinkinetics.diffusion import ReactionRadii


def params(**kw):
    base = dict(d=4e-8, lambda0=5e-9, big_d=1e-5, alpha=1e8, j0=1e12)
    base.update(kw)
    return DiffusionParams(**base)


class TestReactionRadius:
    def test_zero_reactivity(self):
        assert reaction_radius(0.0, params()) == 0.0

    def test_saturation(self):
        p = params()
        assert reaction_radius(math.inf, p) == p.d
        assert reaction_radius(1e30, p) == pytest.approx(p.d, rel=1e-9)

    def test_half_saturation(self):
        p = params()
        kappa_half = p.big_d / (p.d * p.lambda0)  # q = 1
        assert reaction_radius(kappa_half, p) == pytest.approx(0.5 * p.d, rel=1e-12)

    def test_monotone_and_bounded(self):
        p = params()
        kappas = np.logspace(6, 14, 30)
        radii = [reaction_radius(k, p) for k in kappas]
        assert all(np.diff(radii) > 0)
        assert all(0 < r < p.d for r in radii)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            reaction_radius(-1.0, params())


class TestDephasingRadius:
    def test_printed_anchor(self):
        # J0 = 1e12 /s, alpha = 1e8 /cm, D = 1e-5 cm^2/s
        excess = dephasing_radius(params()) - params().d
        assert excess == pytest.approx(4.14e-8, rel=5e-3)

    def test_out_of_regime_rejected(self):
        with pytest.raises(RegimeError):
            dephasing_radius(params(j0=1e11))  # |j0| = D alpha^2 exactly
        with pytest.raises(RegimeError):
            dephasing_radius(params(j0=1e10))

    def test_halving_diffusion_adds_log_two(self):
        p1 = params()
        p2 = params(big_d=p1.big_d / 2)
        delta = dephasing_radius(p2) - dephasing_radius(p1)
        assert delta == pytest.approx(math.log(2.0) / p1.alpha, rel=1e-12)

    def test_exceeds_contact_distance_in_regime(self):
        for j0 in np.logspace(11.2, 15, 12):
            assert dephasing_radius(params(j0=j0)) > params().d


class TestCageRates:
    def test_zero_radius_zero_rate(self):
        rates = cage_rates(ReactionRadii(0.0, 0.0, 0.0), params(z_cage=1e-20))
        assert rates.k_ss == rates.k_tt == rates.k_st == 0.0

    def test_linear_in_diffusion(self):
        radii = ReactionRadii(2e-8, 1e-8, 6e-8)
        r1 = cage_rates(radii, params(z_cage=1e-20))
        r2 = cage_rates(radii, params(big_d=2e-5, z_cage=1e-20))
        assert r2.k_ss == pytest.approx(2 * r1.k_ss)
        assert r2.k_st == pytest.approx(2 * r1.k_st)

    def test_radius_ordering_carries_to_rates(self):
        p = params(z_cage=1e-20, kappa0_s=1e10, kappa0_t=1e9)
        radii = compute_radii(p)
        assert radii.l_st > radii.l_ss > radii.l_tt
        rates = cage_rates(radii, p)
        assert rates.k_st > rates.k_ss > rates.k_tt

    def test_missing_cage_volume_rejected(self):
        with pytest.raises(ValidationError):
            cage_rates(ReactionRadii(1e-8, 1e-8, 2e-8), params())


class TestRateInversion:
    def test_round_trip_reproduces_k_st(self):
        p = params(z_cage=1e-20, kappa0_s=1e10, kappa0_t=1e9)
        rates = cage_rates(compute_radii(p), p)
        model = to_reaction_model(rates)
        readback = rate_elements(model)
        assert readback.k_st == pytest.approx(rates.k_st, rel=1e-12)
        assert readback.k_ss == pytest.approx(rates.k_ss, rel=1e-12)
        assert readback.k_tt == pytest.approx(rates.k_tt, rel=1e-12)

    def test_round_trip_reproduces_random_rates_to_rounding(self):
        rng = np.random.default_rng(20)
        k_ss, k_tt = 10.0 ** rng.uniform(6, 10, (2, 2000))
        k_st = 0.5 * (k_ss + k_tt) * (1 + 10.0 ** rng.uniform(-6, 2, 2000))
        for rates in map(RateElements, k_ss, k_tt, k_st):
            readback = rate_elements(to_reaction_model(rates))
            assert (readback.k_ss, readback.k_tt) == (rates.k_ss, rates.k_tt)
            assert abs(readback.k_st - rates.k_st) <= 1e-15 * rates.k_st

    def test_insufficient_st_rate_rejected(self):
        with pytest.raises(ValidationError):
            to_reaction_model(RateElements(k_ss=2.0, k_tt=2.0, k_st=1.0))


class TestDephasingRateEstimate:
    def test_printed_anchor(self):
        p = params(j0=1e14, lambda_amp=1e-10, tau_c=1e-13)
        assert st_dephasing_rate_estimate(p) == pytest.approx(1e11, rel=1e-12)

    def test_zero_amplitude(self):
        assert st_dephasing_rate_estimate(params(lambda_amp=0.0, tau_c=1e-13)) == 0.0

    def test_linear_in_correlation_time(self):
        a = st_dephasing_rate_estimate(params(j0=1e14, lambda_amp=1e-10, tau_c=1e-13))
        b = st_dephasing_rate_estimate(params(j0=1e14, lambda_amp=1e-10, tau_c=2e-13))
        assert b == pytest.approx(2 * a)

    def test_dominates_reaction_rates(self):
        estimate = st_dephasing_rate_estimate(
            params(j0=1e14, lambda_amp=1e-10, tau_c=1e-13)
        )
        assert estimate >= 1e11  # above any kappa_s, kappa_t up to 1e11 /s


class TestSensitivity:
    def test_printed_anchor(self):
        p = params(q_spin=1e9)
        report = recombination_sensitivity(p, l_ss=1e-8, l_st=1e-8 + 3e-8)
        assert report.value == pytest.approx(0.09, rel=1e-12)
        assert f"{report.value:.12g}" == "0.09"
        assert report.insensitive

    def test_equal_radii_give_zero(self):
        report = recombination_sensitivity(params(q_spin=1e9), 2e-8, 2e-8)
        assert report.value == 0.0

    def test_inverse_linear_in_diffusion(self):
        a = recombination_sensitivity(params(q_spin=1e9), 1e-8, 4e-8).value
        b = recombination_sensitivity(params(big_d=1e-4, q_spin=1e9), 1e-8, 4e-8).value
        assert b == pytest.approx(a / 10.0)

    def test_inverted_radii_rejected(self):
        with pytest.raises(ValidationError):
            recombination_sensitivity(params(q_spin=1e9), 3e-8, 2e-8)


class TestEqualRadiusRegime:
    def test_high_reactivity_moderate_exchange(self):
        # q_s = 1e3 and j0 at the regime edge: radii agree within tolerance
        p = params(d=4e-7, alpha=1e8 / 4)  # alpha*d = 10 -> moderate gap
        q_target = 1e3
        kappa0 = q_target * p.big_d / (p.d * p.lambda0)
        p = params(
            d=4e-7,
            alpha=1e8 / 4,
            j0=p.big_d * (1e8 / 4) ** 2,  # ratio exactly 1
            kappa0_s=kappa0,
        )
        report = equal_radius_regime_check(p)
        assert report.in_regime
        assert report.exchange_ratio == pytest.approx(1.0)
        # gap = alpha^-1 (1.14 + ln 2) + d/(1+q) relative to l_ss
        expected_gap = (1.14 + math.log(2.0)) / p.alpha + p.d / (1 + q_target)
        assert report.relative_gap == pytest.approx(
            expected_gap / report.l_ss, rel=1e-3
        )
        assert report.radii_match

    def test_low_reactivity_not_in_regime(self):
        p = params(kappa0_s=1e2)  # q_s << 1
        report = equal_radius_regime_check(p)
        assert not report.in_regime
        assert not report.radii_match

    def test_large_contact_distance_flags_match(self):
        alpha = 1e8
        d = 40.0 / alpha  # alpha d = 40
        p = params(d=d, alpha=alpha, j0=1e-5 * alpha**2, kappa0_s=1e12)
        report = equal_radius_regime_check(p)
        assert report.in_regime and report.radii_match
        assert report.relative_gap < 0.2
