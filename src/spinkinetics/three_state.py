"""Reactive three-level model: closed-form rates and their limits.

States "0", "1", "2": a two-level working pair (0, 1 split by omega0) plus a
third level reached by bath-induced transitions out of state 1 (splitting
omega_s between 1 and 2). Transverse coupling on the (1, 2) pair produces
population exchange w11/w22 and dephasing; closed forms for all five observable
rates are implemented here and serve as the analytic ground truth for the
assembled relaxation supermatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bloch_redfield import (
    BathSpec,
    CouplingOperator,
    SpectralDensity,
    relaxation_supermatrix,
)
from .errors import ValidationError
from .liouville import (
    BasisLabel,
    OperatorMatrix,
    Superoperator,
    _anticommutator,
    _projector_dephasing,
)

THREE_STATE_BASIS = BasisLabel(("0", "1", "2"))


@dataclass(frozen=True)
class ThreeStateParams:
    """Model parameters.

    omega0, omega_s in rad/s; beta in s (math.inf for the irreversible limit).
    ``transverse`` is the spectrum of the x/y coupling on the (1, 2) pair.
    ``splitting`` optionally adds a fluctuating (0-1) level splitting, and
    ``isotropic`` adds a z coupling with the transverse spectrum, both of which
    contribute extra pure dephasing.
    """

    omega0: float
    omega_s: float
    beta: float
    transverse: SpectralDensity
    splitting: Optional[SpectralDensity] = None
    isotropic: bool = False

    def __post_init__(self):
        if not (self.omega_s > 0 and math.isfinite(self.omega_s)):
            raise ValidationError("omega_s must be positive and finite")
        if not math.isfinite(self.omega0):
            raise ValidationError("omega0 must be finite")
        if self.beta < 0:
            raise ValidationError("beta must be nonnegative")


@dataclass(frozen=True)
class ThreeStateRates:
    """Closed-form rates, all s^-1.

    w11/w22 exchange population between 1 and 2 (detailed balance
    w11 = exp(beta omega_s) w22), wn decays the 1-2 coherence, w01/w02 decay
    the 0-1 and 0-2 coherences. wbar01 and wbarn are the raw zero-frequency
    dephasing contributions of the splitting and z channels.
    """

    w11: float
    w22: float
    wn: float
    w01: float
    w02: float
    wbar01: float
    wbarn: float


def closed_form_rates(p: ThreeStateParams) -> ThreeStateRates:
    """Evaluate all five rates from the bath spectra.

    w11 = J(omega_s) / (1 + exp(-beta omega_s)) and w22 its detailed-balance
    partner; coherence rates are half the total population flux out of the
    states involved, plus a zero-frequency term for each diagonal fluctuation
    channel: +J(0)/2 on wn when isotropic, +J01(0)/2 on w01 when the splitting
    channel is present.
    """
    j_s = float(p.transverse.value(p.omega_s))
    x = p.beta * p.omega_s  # may be inf
    boltzmann = 0.0 if math.isinf(x) else math.exp(-x)
    w11 = j_s / (1.0 + boltzmann)
    w22 = w11 * boltzmann
    wbarn = float(p.transverse.value(0.0)) if p.isotropic else 0.0
    wbar01 = float(p.splitting.value(0.0)) if p.splitting is not None else 0.0
    return ThreeStateRates(
        w11=w11,
        w22=w22,
        wn=0.5 * j_s + 0.5 * wbarn,
        w01=0.5 * w11 + 0.5 * wbar01,
        w02=0.5 * w22,
        wbar01=wbar01,
        wbarn=wbarn,
    )


def _pair_operator(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


#: the transverse coupler |1><2| + |2><1|, read-only
SX = _pair_operator(1, 2) + _pair_operator(2, 1)
SX.setflags(write=False)


def hamiltonian(omega0: float, omega_s: float) -> OperatorMatrix:
    """H = diag(omega0, +omega_s/2, -omega_s/2), rad/s."""
    h = np.diag([omega0, 0.5 * omega_s, -0.5 * omega_s])
    return OperatorMatrix(THREE_STATE_BASIS, h)


#: the model's half-weighted couplings by label, built and checked once; a bath
#: relabels copies of them, so their spectral index stays 0
COUPLINGS = {
    label: CouplingOperator(label, OperatorMatrix(THREE_STATE_BASIS, 0.5 * op), 0)
    for label, op in (("x", SX),
                      ("y", 1j * (_pair_operator(2, 1) - _pair_operator(1, 2))),
                      ("z", _pair_operator(1, 1) - _pair_operator(2, 2)),
                      ("01", _pair_operator(0, 0) - _pair_operator(1, 1)))
}


def build_bath(p: ThreeStateParams):
    """System Hamiltonian and bath specification for the model.

    H is :func:`hamiltonian`. The bath couples through half-weighted x/y
    operators on the (1, 2) pair (uncorrelated, equal spectra), optionally a z
    coupling of the same strength, and optionally the (0-1) splitting
    fluctuation (|0><0| - |1><1|)/2, all taken from :data:`COUPLINGS`.
    """
    table = [("x", p.transverse), ("y", p.transverse)]
    if p.isotropic:
        table.append(("z", p.transverse))
    if p.splitting is not None:
        table.append(("01", p.splitting))
    bath = BathSpec.uncorrelated([COUPLINGS[label] for label, _ in table],
                                 [d for _, d in table], beta=p.beta)
    return hamiltonian(p.omega0, p.omega_s), bath


def assembled_rates(p: ThreeStateParams) -> ThreeStateRates:
    """Read the five rates off the assembled relaxation supermatrix."""
    h, bath = build_bath(p)
    rates = -np.diagonal(relaxation_supermatrix(bath, h).matrix).real
    at = THREE_STATE_BASIS.vec_index
    return replace(
        closed_form_rates(p),
        w11=rates[at("1", "1")], w22=rates[at("2", "2")], wn=rates[at("1", "2")],
        w01=rates[at("0", "1")], w02=rates[at("0", "2")],
    )


def projection_limit_super(
    w11_inf: float,
    splitting_rate: float = 0.0,
    w00_inf: float = 0.0,
) -> Superoperator:
    """Irreversible-limit generator in projector form.

    rho-dot = -(1/2) { w11_inf [P1, rho]_+ + splitting_rate D1(rho)
                       + w00_inf [P0, rho]_+ }

    with D1 the Lindblad-form dephasing across the P1 / (1 - P1) split. Valid
    when the 1 -> 2 transitions are one-way (large beta * omega_s); the
    returned superoperator is the generator itself (decay built in).
    """
    for name, rate in (("w11_inf", w11_inf), ("splitting_rate", splitting_rate), ("w00_inf", w00_inf)):
        if rate < 0 or not math.isfinite(rate):
            raise ValidationError(f"{name} must be finite and nonnegative")
    p1 = _pair_operator(1, 1)
    gen = _anticommutator(p1) * complex(-0.5 * w11_inf)
    if splitting_rate:
        gen = gen + _projector_dephasing(p1) * complex(-0.5 * splitting_rate)
    if w00_inf:
        gen = gen + _anticommutator(_pair_operator(0, 0)) * complex(-0.5 * w00_inf)
    return Superoperator(THREE_STATE_BASIS, gen)


def projection_limit_deviation(p: ThreeStateParams, beta_omega_s: float) -> float:
    """Distance between the assembled generator and its projector-form limit.

    The assembled supermatrix at beta = beta_omega_s / omega_s is compared
    against the projector form taken at the same J(omega_s), after removing
    the population-gain elements that feed the final state (the projector form
    describes pure loss). The norm of the difference decays like
    exp(-beta omega_s) * J(omega_s).
    """
    if p.isotropic or p.splitting is not None:
        raise ValidationError(
            "limit comparison is defined for the bare transverse bath only"
        )
    if beta_omega_s < 0:
        raise ValidationError("beta_omega_s must be nonnegative")
    beta = beta_omega_s / p.omega_s if not math.isinf(beta_omega_s) else math.inf
    h, bath = build_bath(replace(p, beta=beta))
    r = np.array(relaxation_supermatrix(bath, h).matrix)
    # population feed terms (1,1)<->(2,2); the projector form keeps only decay
    p11, p22 = THREE_STATE_BASIS.vec_index("1", "1"), THREE_STATE_BASIS.vec_index("2", "2")
    r[p22, p11] = r[p11, p22] = 0.0
    proj = projection_limit_super(w11_inf=float(p.transverse.value(p.omega_s)))
    return float(np.linalg.norm(r - proj.matrix, 2))
