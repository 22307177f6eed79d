import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _util import hermiticity_defect_sample, random_density, random_state

from spinkinetics import (
    DensityMatrix,
    NonDecayingGeneratorError,
    PairHamiltonian,
    ReactionModel,
    ValidationError,
    coherence_decay_rate,
    projectors,
    pure_state_propagate,
    rate_elements,
    reaction_supermatrix,
    recombination_yields,
)
from spinkinetics.radical_pair import PAIR_BASIS, generator
from spinkinetics.liouville import Superoperator, _projector_dephasing, propagate


class TestProjectors:
    def test_completeness_and_idempotence(self):
        ps, pt = projectors()
        assert np.abs(ps.entries + pt.entries - np.eye(4)).max() == 0.0
        assert np.abs(ps.entries @ ps.entries - ps.entries).max() == 0.0
        assert np.abs(pt.entries @ pt.entries - pt.entries).max() == 0.0
        assert np.abs(ps.entries @ pt.entries).max() == 0.0

    def test_ranks(self):
        ps, pt = projectors()
        assert np.trace(ps.entries).real == 1.0
        assert np.trace(pt.entries).real == 3.0

    def test_singlet_action(self):
        ps, _ = projectors()
        s = np.array([1, 0, 0, 0], dtype=complex)
        t0 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(ps.entries @ s, s)
        assert np.abs(ps.entries @ t0).max() == 0.0


class TestReactionModel:
    def test_variant_constraints(self):
        with pytest.raises(ValidationError):
            ReactionModel.haberkorn(-1.0, 0.0)
        m = ReactionModel.jones_hore(2.0, 0.5)
        assert m.kappa_st == 2.5
        d = ReactionModel.dephasing_only(3.0)
        assert (d.kappa_s, d.kappa_t, d.kappa_st) == (0.0, 0.0, 3.0)

    def test_invalid_combinations_rejected(self):
        from spinkinetics.radical_pair import ReactionVariant

        with pytest.raises(ValidationError):
            ReactionModel(1.0, 0.0, 0.5, ReactionVariant.HABERKORN)
        with pytest.raises(ValidationError):
            ReactionModel(1.0, 1.0, 1.0, ReactionVariant.JONES_HORE)
        with pytest.raises(ValidationError):
            ReactionModel(1.0, 0.0, 1.0, ReactionVariant.DEPHASING_ONLY)


class TestReactionSupermatrix:
    def test_equal_rates_reduce_to_uniform_decay(self):
        rng = np.random.default_rng(41)
        kappa = 1.7
        k = reaction_supermatrix(ReactionModel.haberkorn(kappa, kappa))
        rho = random_density(4, rng)
        assert np.abs(k.apply(rho) - kappa * rho).max() < 1e-12

    def test_st_dephasing_projector_identity(self):
        rng = np.random.default_rng(42)
        ps, pt = projectors()
        dephaser = Superoperator(PAIR_BASIS, _projector_dephasing(ps.entries))
        for _ in range(4):
            rho = random_density(4, rng)
            s_form = 0.5 * (ps.entries @ rho @ pt.entries + pt.entries @ rho @ ps.entries)
            t_form = (
                0.5 * (pt.entries @ rho + rho @ pt.entries)
                - pt.entries @ rho @ pt.entries
            )
            out = dephaser.apply(rho)
            assert np.abs(out - s_form).max() < 1e-13
            assert np.abs(out - t_form).max() < 1e-13

    def test_single_channel_trace_decay(self):
        kappa_s = 1.3
        gen = generator(ReactionModel.haberkorn(kappa_s, 0.0), PairHamiltonian())
        rho0 = DensityMatrix.basis_state(PAIR_BASIS, "S")
        prop = propagate(gen, rho0, np.linspace(0.2, 2.0, 7))
        for t, trace in zip(prop.times, prop.traces()):
            assert trace == pytest.approx(np.exp(-kappa_s * t), rel=1e-12)

    def test_dephasing_only_is_trace_free(self):
        rng = np.random.default_rng(43)
        k = reaction_supermatrix(ReactionModel.dephasing_only(2.0))
        for _ in range(4):
            assert abs(np.trace(k.apply(random_density(4, rng)))) < 1e-13

    def test_preserves_hermiticity(self):
        k = reaction_supermatrix(ReactionModel.generalized(1.0, 0.5, 2.0))
        assert hermiticity_defect_sample(k) < 1e-12


class TestRateElements:
    def test_haberkorn_single_channel(self):
        e = rate_elements(ReactionModel.haberkorn(2.0, 0.0))
        assert (e.k_ss, e.k_tt, e.k_st) == (2.0, 0.0, 1.0)

    def test_jones_hore_doubles_st_decay(self):
        e = rate_elements(ReactionModel.jones_hore(2.0, 0.0))
        assert e.k_st == pytest.approx(2.0)
        assert e.k_st == pytest.approx(e.k_ss)

    def test_generalized_hand_value(self):
        e = rate_elements(ReactionModel.generalized(1.0, 1.0, 2.0))
        assert e.k_st == pytest.approx(2.0)

    def test_projection_independence(self):
        k = reaction_supermatrix(ReactionModel.generalized(1.3, 0.7, 0.9)).matrix
        idx = lambda i, j: 4 * i + j
        tt = [k[idx(t, t), idx(t, t)].real for t in (1, 2, 3)]
        st = [k[idx(0, t), idx(0, t)].real for t in (1, 2, 3)]
        assert max(tt) - min(tt) < 1e-14
        assert max(st) - min(st) < 1e-14


_RATE = st.one_of(st.just(0.0), st.floats(1e-3, 1e12))
_MODELS = st.one_of(
    st.builds(ReactionModel.haberkorn, _RATE, _RATE),
    st.builds(ReactionModel.generalized, _RATE, _RATE, _RATE),
    st.builds(ReactionModel.jones_hore, _RATE, _RATE),
    st.builds(ReactionModel.dephasing_only, _RATE),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_MODELS)
def test_rate_elements_are_the_reaction_superoperators_diagonal(model):
    k = reaction_supermatrix(model).matrix
    assert not np.any(k - np.diag(np.diagonal(k)))
    e = rate_elements(model)
    names = PAIR_BASIS.names
    table = np.empty(len(names) ** 2)
    for a in names:
        for b in names:
            singlet = (a == "S", b == "S")
            table[PAIR_BASIS.vec_index(a, b)] = (
                e.k_ss if all(singlet) else e.k_st if any(singlet) else e.k_tt
            )
    assert np.diagonal(k).tobytes() == table.astype(complex).tobytes()


class TestCoherenceDecay:
    def test_haberkorn_fitted_rate(self):
        fit = coherence_decay_rate(ReactionModel.haberkorn(2.0, 0.0), PairHamiltonian())
        assert fit.rate == pytest.approx(1.0, rel=1e-6)
        assert fit.exponential

    def test_jones_hore_fitted_rate(self):
        fit = coherence_decay_rate(ReactionModel.jones_hore(2.0, 0.0), PairHamiltonian())
        assert fit.rate == pytest.approx(2.0, rel=1e-6)

    def test_dephasing_only_rate_and_populations(self):
        model = ReactionModel.dephasing_only(3.0)
        fit = coherence_decay_rate(model, PairHamiltonian())
        assert fit.rate == pytest.approx(1.5, rel=1e-6)
        rho0 = DensityMatrix.pure(PAIR_BASIS, np.array([1, 0, 1, 0]) / np.sqrt(2))
        prop = propagate(generator(model, PairHamiltonian()), rho0, np.linspace(0.2, 2.0, 6))
        for pops in prop.populations():
            assert pops[PAIR_BASIS.index("S")] == pytest.approx(0.5, abs=1e-12)
            assert pops[PAIR_BASIS.index("T0")] == pytest.approx(0.5, abs=1e-12)

    def test_variant_ordering(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            ks, kt = rng.uniform(0.5, 3.0, size=2)
            h = PairHamiltonian(omega_mean=rng.uniform(0, 2.0), j_exchange=rng.uniform(0, 1.0))
            hab = coherence_decay_rate(ReactionModel.haberkorn(ks, kt), h).rate
            jh = coherence_decay_rate(ReactionModel.jones_hore(ks, kt), h).rate
            assert jh == pytest.approx(2.0 * hab, rel=1e-9)

    def test_mixing_flags_nonexponential(self):
        fit = coherence_decay_rate(
            ReactionModel.haberkorn(2.0, 0.0), PairHamiltonian(delta_omega=3.0)
        )
        assert not fit.exponential
        assert fit.residual > 1e-3

    def test_rateless_model_returns_zero(self):
        fit = coherence_decay_rate(ReactionModel.haberkorn(0.0, 0.0), PairHamiltonian())
        assert fit.rate == 0.0


class TestYields:
    def test_unmixed_singlet(self):
        y = recombination_yields(
            ReactionModel.haberkorn(1.0, 0.5),
            PairHamiltonian(),
            DensityMatrix.basis_state(PAIR_BASIS, "S"),
        )
        assert y.singlet == pytest.approx(1.0, abs=1e-10)
        assert y.triplet == pytest.approx(0.0, abs=1e-10)

    def test_uniform_decay_projector_weights(self):
        kappa = 2.0
        y = recombination_yields(
            ReactionModel.haberkorn(kappa, kappa),
            PairHamiltonian(omega_mean=1.0, delta_omega=0.7, j_exchange=0.3),
            DensityMatrix.maximally_mixed(PAIR_BASIS),
        )
        assert y.singlet == pytest.approx(0.25, abs=1e-10)
        assert y.triplet == pytest.approx(0.75, abs=1e-10)

    def test_solver_matches_quadrature(self):
        from scipy.integrate import simpson

        model = ReactionModel.haberkorn(1e9, 1e8)
        h = PairHamiltonian(delta_omega=1e8)
        rho0 = DensityMatrix.basis_state(PAIR_BASIS, "S")
        y = recombination_yields(model, h, rho0)
        gen = generator(model, h)
        slowest = -np.max(np.linalg.eigvals(gen.matrix).real)
        t = np.linspace(0.0, 40.0 / slowest, 8001)
        prop = propagate(gen, rho0, t[1:])
        ps, pt = projectors()
        s_pop = np.concatenate(
            [[1.0], [np.trace(ps.entries @ s).real for s in prop.states]]
        )
        t_pop = np.concatenate(
            [[0.0], [np.trace(pt.entries @ s).real for s in prop.states]]
        )
        phi_s_quad = model.kappa_s * simpson(s_pop, x=t)
        phi_t_quad = model.kappa_t * simpson(t_pop, x=t)
        assert y.singlet == pytest.approx(phi_s_quad, rel=1e-6)
        assert y.triplet == pytest.approx(phi_t_quad, rel=1e-6)

    def test_conservation_with_dephasing(self):
        rng = np.random.default_rng(45)
        model = ReactionModel.generalized(2e9, 7e8, 3e9)
        h = PairHamiltonian(omega_mean=5e8, delta_omega=9e8, j_exchange=2e8)
        rho0 = DensityMatrix(PAIR_BASIS, random_density(4, rng))
        y = recombination_yields(model, h, rho0)
        assert y.total == pytest.approx(rho0.trace(), abs=1e-8)

    def test_nondecaying_generator_rejected(self):
        with pytest.raises(NonDecayingGeneratorError):
            recombination_yields(
                ReactionModel.haberkorn(1.0, 0.0),
                PairHamiltonian(),
                DensityMatrix.basis_state(PAIR_BASIS, "T0"),
            )


class TestPureStateFactorisation:
    def test_single_channel_decay(self):
        kappa_s = 2.0
        prop = pure_state_propagate(
            ReactionModel.haberkorn(kappa_s, 0.0),
            PairHamiltonian(),
            [1, 0, 0, 0],
            np.linspace(0.25, 2.0, 8),
        )
        for t, pop in zip(prop.times, prop.populations()[:, PAIR_BASIS.index("S")]):
            assert pop == pytest.approx(np.exp(-kappa_s * t), rel=1e-12)

    def test_matches_liouville_propagation(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            model = ReactionModel.haberkorn(*rng.uniform(0.2, 2.0, size=2))
            h = PairHamiltonian(*rng.uniform(-1.0, 1.0, size=3))
            psi0 = random_state(4, rng)
            scale = max(model.kappa_s, model.kappa_t, 1.0)
            times = np.linspace(0.3, 3.0, 6) / scale
            pure = pure_state_propagate(model, h, psi0, times)
            liou = propagate(generator(model, h), DensityMatrix.pure(PAIR_BASIS, psi0), times)
            worst = max(
                np.abs(a - b).max()
                for a, b in zip(pure.states, liou.states)
            )
            assert worst < 1e-10

    def test_dephasing_breaks_factorisation_linearly(self):
        kappa_st = 0.5
        model = ReactionModel.generalized(1.0, 0.5, kappa_st)
        clean = ReactionModel.haberkorn(1.0, 0.5)
        h = PairHamiltonian(delta_omega=0.3)
        psi0 = np.array([1, 0, 1, 0]) / np.sqrt(2)
        times = np.array([1e-3, 2e-3, 4e-3])
        pure = pure_state_propagate(clean, h, psi0, times)
        liou = propagate(generator(model, h), DensityMatrix.pure(PAIR_BASIS, psi0), times)
        devs = np.array(
            [np.abs(a - b).max() for a, b in zip(pure.states, liou.states)]
        )
        # short-time deviation grows linearly with slope ~ kappa_st * |rho_ST0|
        slopes = devs / times
        assert slopes[0] == pytest.approx(0.5 * kappa_st * 0.5, rel=0.05)
        assert devs[2] / devs[0] == pytest.approx(4.0, rel=0.05)

    def test_empty_time_grid_rejected(self):
        with pytest.raises(ValidationError):
            pure_state_propagate(
                ReactionModel.haberkorn(1.0, 0.0), PairHamiltonian(), [1, 0, 0, 0], []
            )

    def test_kappa_st_rejected(self):
        with pytest.raises(ValidationError):
            pure_state_propagate(
                ReactionModel.generalized(1.0, 0.0, 1.0),
                PairHamiltonian(),
                [1, 0, 0, 0],
                [1.0],
            )


class TestTraceFlux:
    @pytest.mark.parametrize(
        "model",
        [
            ReactionModel.haberkorn(2e9, 5e8),
            ReactionModel.generalized(1e9, 3e8, 2e9),
            ReactionModel.jones_hore(1.5e9, 5e8),
            ReactionModel.dephasing_only(2e9),
        ],
        ids=lambda m: m.variant.value,
    )
    def test_trace_flux_law(self, model):
        rng = np.random.default_rng(47)
        h = PairHamiltonian(omega_mean=4e8, delta_omega=6e8, j_exchange=1e8)
        gen = generator(model, h)
        ps, pt = projectors()
        rho0 = DensityMatrix(PAIR_BASIS, random_density(4, rng))
        scale = max(model.kappa_s, model.kappa_t, model.kappa_st)
        t0, dt = 0.3 / scale, 1e-5 / scale
        states = propagate(gen, rho0, [t0 - dt, t0, t0 + dt]).states
        dtrace = (np.trace(states[2]).real - np.trace(states[0]).real) / (2 * dt)
        rho_mid = states[1]
        expected = -model.kappa_s * np.trace(ps.entries @ rho_mid).real - (
            model.kappa_t * np.trace(pt.entries @ rho_mid).real
        )
        if model.variant.value == "dephasing_only":
            assert abs(dtrace) < 1e-9 * scale  # above the differencing noise floor
        else:
            assert dtrace == pytest.approx(expected, rel=1e-6)


class TestPositivity:
    def test_generalized_model_keeps_states_positive(self):
        rng = np.random.default_rng(48)
        model = ReactionModel.generalized(1.5e9, 4e8, 3e9)
        h = PairHamiltonian(omega_mean=2e8, delta_omega=8e8)
        gen = generator(model, h)
        for _ in range(5):
            rho0 = DensityMatrix(PAIR_BASIS, random_density(4, rng))
            prop = propagate(gen, rho0, np.linspace(0.05e-9, 3e-9, 12))
            for state in prop.states:
                assert np.linalg.eigvalsh(state).min() >= -1e-9


class TestHamiltonian:
    def test_structure(self):
        h = PairHamiltonian(omega_mean=2.0, delta_omega=0.8, j_exchange=0.3).operator()
        m = h.entries
        assert m[1, 1].real == pytest.approx(2.0 - 0.3)
        assert m[3, 3].real == pytest.approx(-2.0 - 0.3)
        assert m[0, 0].real == pytest.approx(0.3)
        assert m[0, 2] == pytest.approx(0.4)
        assert h.is_hermitian()
