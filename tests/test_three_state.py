import math

import numpy as np
import pytest
from _util import random_density

from spinkinetics import (
    DensityMatrix,
    Lorentzian,
    Tabulated,
    ValidationError,
    WhiteNoise,
    assemble_generator,
    assembled_rates,
    build_bath,
    closed_form_rates,
    frequency_decompose,
    projection_limit_deviation,
    projection_limit_super,
    propagate,
    relaxation_supermatrix,
)
from spinkinetics.three_state import THREE_STATE_BASIS, ThreeStateParams

OMEGA_S = 1.0e9

LORENTZIAN = Lorentzian(amplitude=2e17, tau_c=2e-10)
WHITE = WhiteNoise(3e5)
TABULATED = Tabulated(
    np.linspace(0.0, 5e9, 41),
    1e5 * (1.0 + np.exp(-(np.linspace(0.0, 5e9, 41) / 2e9) ** 2)),
)
FORMS = (LORENTZIAN, WHITE, TABULATED)
BETAS = (0.0, 1.0 / OMEGA_S, 10.0 / OMEGA_S, math.inf)


def params(beta=1.0 / OMEGA_S, form=LORENTZIAN, **kw):
    return ThreeStateParams(
        omega0=0.7e9, omega_s=OMEGA_S, beta=beta, transverse=form, **kw
    )


class TestClosedForms:
    def test_irreversible_limit(self):
        j0 = WHITE.level
        r = closed_form_rates(params(beta=math.inf, form=WHITE))
        assert r.w11 == pytest.approx(j0)
        assert r.w22 == 0.0
        assert r.wn == pytest.approx(0.5 * j0)
        assert r.w01 == pytest.approx(0.5 * j0)
        assert r.w02 == 0.0

    def test_infinite_temperature(self):
        r = closed_form_rates(params(beta=0.0))
        j_s = LORENTZIAN.value(OMEGA_S)
        assert r.w11 == pytest.approx(0.5 * j_s)
        assert r.w22 == pytest.approx(0.5 * j_s)

    def test_hand_evaluated_rates(self):
        # J(omega_s) = 2 and beta*omega_s = ln 3 give occupation factor 3/4
        p = ThreeStateParams(
            omega0=0.0, omega_s=1.0, beta=math.log(3.0), transverse=WhiteNoise(2.0)
        )
        r = closed_form_rates(p)
        assert r.w11 == pytest.approx(1.5, rel=1e-12)
        assert r.w22 == pytest.approx(0.5, rel=1e-12)
        assert r.w01 == pytest.approx(0.75, rel=1e-12)
        assert r.w02 == pytest.approx(0.25, rel=1e-12)
        assert r.wn == pytest.approx(1.0, rel=1e-12)

    def test_rate_relations(self):
        for beta in (0.3e-9, 2e-9):
            r = closed_form_rates(params(beta=beta))
            assert r.w11 == pytest.approx(r.w22 * math.exp(beta * OMEGA_S), rel=1e-12)
            assert r.wn == pytest.approx(0.5 * (r.w11 + r.w22), rel=1e-12)
            assert r.w01 == pytest.approx(0.5 * r.w11, rel=1e-12)
            assert r.w02 == pytest.approx(0.5 * r.w22, rel=1e-12)
            assert min(r.w11, r.w22, r.wn, r.w01, r.w02) >= 0.0


class TestBathConstruction:
    def test_hamiltonian_eigenvalues(self):
        h, _ = build_bath(params())
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(h.entries)),
            np.sort([0.7e9, 0.5 * OMEGA_S, -0.5 * OMEGA_S]),
        )

    def test_transverse_couplers_have_pair_components_only(self):
        h, bath = build_bath(params())
        for coupling in bath.couplings:
            freqs = sorted(c.omega for c in frequency_decompose(h, coupling))
            assert freqs == [-OMEGA_S, OMEGA_S]

    def test_splitting_coupler_is_static(self):
        h, bath = build_bath(params(splitting=WhiteNoise(1e4)))
        by_label = {c.label: c for c in bath.couplings}
        comps = frequency_decompose(h, by_label["01"])
        assert [c.omega for c in comps] == [0.0]


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("form", FORMS)
    def test_matches_closed_forms(self, beta, form):
        p = params(beta=beta, form=form)
        closed = closed_form_rates(p)
        assembled = assembled_rates(p)
        scale = closed.w11
        for field in ("w11", "w22", "wn", "w01", "w02"):
            a = getattr(closed, field)
            b = getattr(assembled, field)
            assert abs(a - b) <= 1e-9 * max(abs(a), 1e-9 * scale), (beta, field)

    def test_splitting_fluctuations_shift_w01_only(self):
        j01 = WhiteNoise(4e4)
        base = assembled_rates(params())
        shifted = assembled_rates(params(splitting=j01))
        assert shifted.w01 == pytest.approx(base.w01 + 0.5 * j01.level, rel=1e-9)
        assert shifted.w11 == pytest.approx(base.w11, rel=1e-12)
        assert shifted.w22 == pytest.approx(base.w22, rel=1e-12)

    def test_isotropic_coupling_adds_static_dephasing(self):
        p = params(isotropic=True)
        closed = closed_form_rates(p)
        assembled = assembled_rates(p)
        j = p.transverse
        assert closed.wn == pytest.approx(0.5 * j.value(OMEGA_S) + 0.5 * j.value(0.0))
        assert assembled.wn == pytest.approx(closed.wn, rel=1e-9)
        assert assembled.w11 == pytest.approx(closed.w11, rel=1e-9)
        assert assembled.w22 == pytest.approx(closed.w22, rel=1e-9)


class TestProjectionLimit:
    def test_coherence_decay_rate(self):
        w11 = 2.0
        gen = projection_limit_super(w11)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = 1.0
        out = gen.apply(rho)
        assert out[0, 1] == pytest.approx(-0.5 * w11)

    def test_unreactive_population_is_stationary(self):
        gen = projection_limit_super(2.0, splitting_rate=1.0)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        assert np.abs(gen.apply(rho)).max() < 1e-15

    def test_dephasing_operator_identity(self):
        rng = np.random.default_rng(31)
        p1 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        q1 = np.eye(3) - p1
        from spinkinetics.liouville import Superoperator, _projector_dephasing

        dephaser = Superoperator(THREE_STATE_BASIS, _projector_dephasing(p1))
        for _ in range(4):
            rho = random_density(3, rng)
            direct = 0.5 * (p1 @ rho @ q1 + q1 @ rho @ p1)
            assert np.abs(dephaser.apply(rho) - direct).max() < 1e-13
            assert abs(np.trace(dephaser.apply(rho))) < 1e-13

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            projection_limit_super(-1.0)

    def test_extra_ground_state_decay_term(self):
        w00 = 3.0
        gen = projection_limit_super(0.0, w00_inf=w00)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        out = gen.apply(rho)
        assert out[0, 0] == pytest.approx(-w00)


class TestLimitConsistency:
    def test_deviation_matches_hand_formula(self):
        # masked difference is diagonal with largest entry J exp(-x)/(1+exp(-x))
        p = ThreeStateParams(
            omega0=0.0, omega_s=1e9, beta=0.0, transverse=WhiteNoise(2.0)
        )
        for x in (0.0, 5.0):
            expected = 2.0 * math.exp(-x) / (1.0 + math.exp(-x))
            assert projection_limit_deviation(p, x) == pytest.approx(expected, rel=1e-9)

    def test_deviation_vanishes_at_double_precision_floor(self):
        p = ThreeStateParams(
            omega0=0.0, omega_s=1e9, beta=0.0, transverse=WhiteNoise(2.0)
        )
        assert projection_limit_deviation(p, 50.0) < 1e-20 * 2.0

    def test_restricted_to_bare_transverse_bath(self):
        with pytest.raises(ValidationError):
            projection_limit_deviation(params(isotropic=True), 5.0)


class TestEquilibration:
    def test_populations_relax_to_detailed_balance(self):
        beta_omega = 1.3
        p = params(beta=beta_omega / OMEGA_S)
        h, bath = build_bath(p)
        gen = assemble_generator(h, relaxers=[relaxation_supermatrix(bath, h)])
        rho0 = DensityMatrix.basis_state(THREE_STATE_BASIS, "1")
        rates = closed_form_rates(p)
        t_relax = 1.0 / (rates.w11 + rates.w22)
        prop = propagate(gen, rho0, [20.0 * t_relax])
        final = dict(zip(THREE_STATE_BASIS.names, prop.populations()[-1]))
        assert final["1"] + final["2"] == pytest.approx(1.0, abs=1e-9)
        ratio = final["2"] / final["1"]
        assert ratio == pytest.approx(math.exp(beta_omega), rel=1e-6)
