"""Every scalar input is checked where it enters, by one function.

NaN and -inf never pass; +inf passes only where it is a documented limit: the
inverse temperature beta and the contact reactivity kappa0. Each case below
once returned a NaN result, or failed with an error outside the package's
classes, or named the wrong input, or was checked only at a later use, or was
a count that took a float.
"""

import math

import numpy as np
import pytest

from spinkinetics import (
    BathSpec,
    CouplingOperator,
    DensityMatrix,
    DiffusionParams,
    Lorentzian,
    NoiseKind,
    NoiseProcess,
    SpinKineticsError,
    Tabulated,
    ThreeStateParams,
    ValidationError,
    WhiteNoise,
    closed_form_rates,
    equal_radius_regime_check,
    perturbative_amplitudes,
    projection_limit_deviation,
    propagate,
    reaction_radius,
    recombination_sensitivity,
    simulate_noise,
    thermal_factor,
)
from spinkinetics.errors import checked
from spinkinetics.liouville import assemble_generator
from spinkinetics.three_state import COUPLINGS, THREE_STATE_BASIS, hamiltonian

NAN, INF = math.nan, math.inf
TAU = 1e-13


def diffusion(**kw):
    return DiffusionParams(d=4e-8, lambda0=5e-9, big_d=1e-5, alpha=1e8, j0=1e12, **kw)


def three_state(beta):
    return ThreeStateParams(omega0=0.0, omega_s=1e9, beta=beta, transverse=WhiteNoise(2.0))


def noise():
    return NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, variance=1e18, tau_c=TAU, seed=1)


def bath(beta):
    return BathSpec.uncorrelated([COUPLINGS["x"]], [Lorentzian(1e17, 1e-10)], beta=beta)


def propagate_to(times):
    gen = assemble_generator(hamiltonian(0.0, 1e9))
    return propagate(gen, DensityMatrix.basis_state(THREE_STATE_BASIS, "1"), times)


HOLES = [
    # silent NaN results or acceptance
    pytest.param("beta", lambda: thermal_factor(NAN, [1.0]), id="thermal_factor"),
    pytest.param("beta", lambda: bath(NAN), id="BathSpec"),
    pytest.param("beta", lambda: closed_form_rates(three_state(NAN)), id="ThreeStateParams"),
    pytest.param("tabulated grid", lambda: Tabulated([0.0, NAN], [1.0, 1.0]), id="Tabulated"),
    pytest.param("kappa0", lambda: reaction_radius(NAN, diffusion()), id="reaction_radius"),
    pytest.param("kappa0_s", lambda: diffusion(kappa0_s=NAN), id="kappa0_s"),
    pytest.param("lambda_amp", lambda: diffusion(lambda_amp=NAN), id="lambda_amp-nan"),
    pytest.param("lambda_amp", lambda: diffusion(lambda_amp=INF), id="lambda_amp-inf"),
    pytest.param("l_st", lambda: recombination_sensitivity(diffusion(q_spin=1e9), 1e-8, NAN),
                 id="recombination_sensitivity"),
    pytest.param("tolerance",
                 lambda: equal_radius_regime_check(diffusion(kappa0_s=1e10), tolerance=NAN),
                 id="equal_radius_regime_check"),
    pytest.param("omega_s", lambda: perturbative_amplitudes(noise(), NAN, 40 * TAU, 4),
                 id="perturbative_amplitudes-omega_s"),
    # errors outside the package's classes
    pytest.param("duration", lambda: simulate_noise(noise(), NAN), id="simulate_noise"),
    pytest.param("stream", lambda: simulate_noise(noise(), 2e-12, stream=-1),
                 id="simulate_noise-stream"),
    pytest.param("duration", lambda: perturbative_amplitudes(noise(), 0.0, NAN, 4),
                 id="perturbative_amplitudes-duration"),
    pytest.param("times", lambda: propagate_to([0.0, NAN]), id="propagate"),
    # an error that named the wrong thing
    pytest.param("beta_omega_s", lambda: projection_limit_deviation(three_state(0.0), NAN),
                 id="projection_limit_deviation"),
    # a check made only at a later use
    pytest.param("tau_c", lambda: diffusion(tau_c=-1.0), id="DiffusionParams-tau_c"),
    # counts that were not type-checked: constructed, a builtin or numpy
    # TypeError, or silently truncated
    pytest.param("seed", lambda: NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, variance=1e18,
                                              tau_c=TAU, seed=1.5), id="NoiseProcess-seed"),
    pytest.param("n_paths", lambda: simulate_noise(noise(), 2e-12, n_paths=1.5),
                 id="simulate_noise-n_paths"),
    pytest.param("stream", lambda: simulate_noise(noise(), 2e-12, stream=0.5),
                 id="simulate_noise-stream-float"),
    pytest.param("n_traj", lambda: perturbative_amplitudes(noise(), 0.0, 40 * TAU, 2.5),
                 id="perturbative_amplitudes-n_traj"),
    pytest.param("spectral_index", lambda: CouplingOperator("x", COUPLINGS["x"].matrix, 0.5),
                 id="CouplingOperator-spectral_index"),
]


@pytest.mark.parametrize("name, call", HOLES)
def test_each_hole_raises_a_package_error_naming_the_input(name, call):
    with pytest.raises(SpinKineticsError, match=name):
        call()


def test_numpy_integers_pass_as_counts():
    one, two = np.int64(1), np.uint8(2)
    p = NoiseProcess(NoiseKind.ORNSTEIN_UHLENBECK, variance=1e18, tau_c=TAU, seed=one)
    assert simulate_noise(p, 2e-12, n_paths=two, stream=one).n_paths == 2
    assert perturbative_amplitudes(p, 0.0, 40 * TAU, np.int32(4)).n_batches == 4
    assert CouplingOperator("x", COUPLINGS["x"].matrix, two).spectral_index == 2


def test_infinite_beta_and_kappa0_keep_their_limits():
    assert thermal_factor(INF, [-2.0, 0.0, 3.0]).tolist() == [-1.0, 0.0, 1.0]
    assert bath(INF).beta == INF
    rates = closed_form_rates(three_state(INF))
    assert (rates.w11, rates.w22, rates.w02) == (2.0, 0.0, 0.0)
    p = diffusion(kappa0_s=INF)
    assert reaction_radius(INF, p) == p.d
    assert equal_radius_regime_check(p).l_ss == p.d


@pytest.mark.parametrize("value, low, strict, infinite, passes", [
    (0.0, 0.0, False, False, True),
    (0.0, 0.0, True, False, False),
    (NAN, -INF, False, True, False),
    (-INF, -INF, False, True, False),
    (INF, 0.0, False, False, False),
    (INF, 0.0, False, True, True),
    (10**400, 0, False, False, True),  # an int beyond float range is still finite
    (np.float64(-1.0), 0.0, False, False, False),
])
def test_checked(value, low, strict, infinite, passes):
    if passes:
        assert checked("x", value, low, strict=strict, infinite=infinite) is value
    else:
        with pytest.raises(ValidationError, match=f"^x must be .*, got {value}$"):
            checked("x", value, low, strict=strict, infinite=infinite)
