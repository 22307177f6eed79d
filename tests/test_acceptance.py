"""Acceptance suite: one test per numeric exit criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all). Tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np
from _util import random_density, random_state
from scipy.integrate import simpson

import spinkinetics as sk
from spinkinetics.radical_pair import PAIR_BASIS, generator
from spinkinetics.liouville import propagate


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dephasing_radius_anchor():
    p = sk.DiffusionParams(d=4e-8, lambda0=5e-9, big_d=1e-5, alpha=1e8, j0=1e12)
    excess = sk.dephasing_radius(p) - p.d
    rel = abs(excess - 4.14e-8) / 4.14e-8
    _report(
        "01 dephasing-radius anchor",
        rel <= 5e-3,
        f"l_st - d = {excess:.6e} cm, rel err {rel:.2e}",
    )


def test_criterion_02_sensitivity_anchor():
    p = sk.DiffusionParams(
        d=4e-8, lambda0=5e-9, big_d=1e-5, alpha=1e8, j0=1e12, q_spin=1e9
    )
    value = sk.recombination_sensitivity(p, l_ss=1e-8, l_st=4e-8).value
    ok = f"{value:.12g}" == "0.09" and math.isclose(value, 0.09, rel_tol=1e-12)
    _report("02 sensitivity anchor", ok, f"index = {value:.12g}")


def test_criterion_03_st_dephasing_rate_anchor():
    p = sk.DiffusionParams(
        d=4e-8, lambda0=5e-9, big_d=1e-5, alpha=1e8, j0=1e14,
        lambda_amp=1e-10, tau_c=1e-13,
    )
    estimate = sk.st_dephasing_rate_estimate(p)
    ok = math.isclose(estimate, 1e11, rel_tol=1e-12)
    _report("03 ST dephasing rate anchor", ok, f"estimate = {estimate:.6e} /s")


def test_criterion_04_assembly_matches_closed_forms():
    omega_s = 1.0e9
    grid = np.linspace(0.0, 5e9, 41)
    forms = (
        sk.Lorentzian(amplitude=2e17, tau_c=2e-10),
        sk.WhiteNoise(3e5),
        sk.Tabulated(grid, 1e5 * (1.0 + np.exp(-((grid / 2e9) ** 2)))),
    )
    betas = (0.0, 1.0 / omega_s, 10.0 / omega_s, math.inf)
    worst = 0.0
    for form in forms:
        for beta in betas:
            p = sk.ThreeStateParams(
                omega0=0.7e9, omega_s=omega_s, beta=beta, transverse=form
            )
            closed = sk.closed_form_rates(p)
            assembled = sk.assembled_rates(p)
            scale = closed.w11
            for field in ("w11", "w22", "wn", "w01", "w02"):
                a, b = getattr(closed, field), getattr(assembled, field)
                worst = max(worst, abs(a - b) / max(abs(a), 1e-9 * scale))
    _report(
        "04 assembled rates vs closed forms",
        worst <= 1e-9,
        f"worst relative deviation {worst:.2e} over {len(forms) * len(betas)} configs",
    )


def test_criterion_05_monte_carlo_half_rate_law():
    tau = 1e-13
    process = sk.NoiseProcess(
        sk.NoiseKind.ORNSTEIN_UHLENBECK, variance=1e18, tau_c=tau, seed=20260809
    )
    worst = 0.0
    details = []
    for w_tau in (0.0, 1.0, 3.0):
        run = sk.perturbative_amplitudes(
            process, omega_s=w_tau / tau, duration=60 * tau, n_traj=10000
        )
        rates = sk.extract_rates(run)
        worst = max(worst, abs(rates.ratio - 0.5))
        details.append(f"w_s*tau={w_tau}: ratio={rates.ratio:.4f}+-{rates.ratio_stderr:.4f}")
    _report("05 half-rate dephasing law", worst <= 0.05, "; ".join(details))


def test_criterion_06_variant_discrimination():
    h = sk.PairHamiltonian()
    kappa_s, kappa_t = 2.0e9, 6.0e8
    hab = sk.coherence_decay_rate(sk.ReactionModel.haberkorn(kappa_s, kappa_t), h)
    jh = sk.coherence_decay_rate(sk.ReactionModel.jones_hore(kappa_s, kappa_t), h)
    ok_hab = abs(hab.rate - 0.5 * (kappa_s + kappa_t)) <= 1e-6 * 0.5 * (kappa_s + kappa_t)
    ok_jh = abs(jh.rate - (kappa_s + kappa_t)) <= 1e-6 * (kappa_s + kappa_t)

    kappa_d = 3.0e9
    model = sk.ReactionModel.dephasing_only(kappa_d)
    rho0 = sk.DensityMatrix.pure(PAIR_BASIS, np.array([1, 0, 1, 0]) / np.sqrt(2))
    prop = propagate(generator(model, h), rho0, np.linspace(0.1, 3.0, 10) / kappa_d)
    pops_constant = all(
        abs(pops[PAIR_BASIS.index(name)] - 0.5) <= 1e-9
        for pops in prop.populations()
        for name in ("S", "T0")
    )
    coh = np.abs(prop.coherence("S", "T0"))
    coherence_decays = coh[-1] < 0.25 and all(np.diff(coh) < 0)
    _report(
        "06 variant discrimination",
        ok_hab and ok_jh and pops_constant and coherence_decays,
        f"haberkorn {hab.rate:.6e}, jones_hore {jh.rate:.6e}",
    )


def test_criterion_07_pure_state_factorisation():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(20):
        kappa_s, kappa_t = rng.uniform(0.2, 2.0, size=2)
        model = sk.ReactionModel.haberkorn(kappa_s, kappa_t)
        h = sk.PairHamiltonian(
            omega_mean=rng.uniform(-1, 1),
            delta_omega=rng.uniform(-1, 1),
            j_exchange=rng.uniform(-0.5, 0.5),
        )
        scale = max(kappa_s, kappa_t, np.abs(h.operator().entries).max())
        times = np.linspace(0.2, 5.0, 9) / scale
        psi0 = random_state(4, rng)
        pure = sk.pure_state_propagate(model, h, psi0, times)
        liou = propagate(
            generator(model, h), sk.DensityMatrix.pure(PAIR_BASIS, psi0), times
        )
        worst = max(
            worst,
            max(
                np.abs(a - b).max()
                for a, b in zip(pure.states, liou.states)
            ),
        )
    _report(
        "07 pure-state factorisation",
        worst <= 1e-10,
        f"worst max-norm deviation {worst:.2e} over 20 configurations",
    )


def test_criterion_08_trace_flux_law():
    rng = np.random.default_rng(2028)
    models = (
        sk.ReactionModel.haberkorn(2e9, 5e8),
        sk.ReactionModel.generalized(1e9, 3e8, 2e9),
        sk.ReactionModel.jones_hore(1.5e9, 5e8),
        sk.ReactionModel.dephasing_only(2e9),
    )
    h = sk.PairHamiltonian(omega_mean=4e8, delta_omega=6e8, j_exchange=1e8)
    ps, pt = sk.projectors()
    worst_rel = 0.0
    dephasing_flux = None
    for model in models:
        gen = generator(model, h)
        rho0 = sk.DensityMatrix(PAIR_BASIS, random_density(4, rng))
        scale = max(model.kappa_s, model.kappa_t, model.kappa_st)
        t0, dt = 0.3 / scale, 1e-5 / scale
        states = propagate(gen, rho0, [t0 - dt, t0, t0 + dt]).states
        dtrace = (np.trace(states[2]).real - np.trace(states[0]).real) / (2 * dt)
        mid = states[1]
        expected = -model.kappa_s * np.trace(ps.entries @ mid).real - (
            model.kappa_t * np.trace(pt.entries @ mid).real
        )
        if model.variant is sk.ReactionVariant.DEPHASING_ONLY:
            # conserved exactly by the generator; the bound sits above the
            # finite-difference rounding floor and far below any real flux
            dephasing_flux = abs(dtrace) / scale
        else:
            worst_rel = max(worst_rel, abs(dtrace - expected) / abs(expected))
    ok = worst_rel <= 1e-6 and dephasing_flux is not None and dephasing_flux <= 1e-9
    _report(
        "08 trace-flux law",
        ok,
        f"worst relative {worst_rel:.2e}, dephasing-only flux {dephasing_flux:.2e}",
    )


def test_criterion_09_yield_conservation_and_cross_method():
    rng = np.random.default_rng(2029)
    worst_conservation = 0.0
    worst_cross = 0.0
    for _ in range(10):
        model = sk.ReactionModel.generalized(
            rng.uniform(0.5e9, 2e9), rng.uniform(0.2e9, 1e9), rng.uniform(0.0, 2e9)
        )
        h = sk.PairHamiltonian(
            omega_mean=rng.uniform(-5e8, 5e8),
            delta_omega=rng.uniform(-1e9, 1e9),
            j_exchange=rng.uniform(-3e8, 3e8),
        )
        rho0 = sk.DensityMatrix(PAIR_BASIS, random_density(4, rng))
        y = sk.recombination_yields(model, h, rho0)
        worst_conservation = max(worst_conservation, abs(y.total - rho0.trace()))

        gen = generator(model, h)
        slowest = -np.max(np.linalg.eigvals(gen.matrix).real)
        t = np.linspace(0.0, 40.0 / slowest, 4001)
        prop = propagate(gen, rho0, t[1:])
        ps, pt = sk.projectors()
        s_pop = np.concatenate(
            [
                [np.trace(ps.entries @ rho0.entries).real],
                [np.trace(ps.entries @ s).real for s in prop.states],
            ]
        )
        t_pop = np.concatenate(
            [
                [np.trace(pt.entries @ rho0.entries).real],
                [np.trace(pt.entries @ s).real for s in prop.states],
            ]
        )
        phi_s_quad = model.kappa_s * simpson(s_pop, x=t)
        phi_t_quad = model.kappa_t * simpson(t_pop, x=t)
        worst_cross = max(
            worst_cross,
            abs(y.singlet - phi_s_quad) / max(y.singlet, 1e-12),
            abs(y.triplet - phi_t_quad) / max(y.triplet, 1e-12),
        )
    ok = worst_conservation <= 1e-8 and worst_cross <= 1e-6
    _report(
        "09 yield conservation and cross-method",
        ok,
        f"conservation {worst_conservation:.2e}, cross-method {worst_cross:.2e}",
    )


def test_criterion_10_validity_ratio():
    tau_c = 1e-13
    tol = 1e-2 * (1 + 1e-9)  # exact-boundary guard; rates sit right at 1e11 /s
    models = (
        sk.ReactionModel.haberkorn(1e11, 1e11),
        sk.ReactionModel.generalized(5e10, 5e10, 1e11),
        sk.ReactionModel.dephasing_only(1e11),
    )
    worst = 0.0
    for model in models:
        report = sk.validity_check(sk.reaction_supermatrix(model), tau_c)
        worst = max(worst, report.ratio)
        assert report.strong_pass
    _report(
        "10 validity ratio",
        worst <= tol,
        f"worst ||K|| tau_c = {worst:.3e} over {len(models)} rate sets at the 1e11 /s ceiling",
    )
