"""Spin-selective recombination kinetics for a radical pair.

Basis (S, T+, T0, T-): one singlet and three triplet levels of the combined
electron spin. The reaction superoperator

    K rho = (1/2) { kappa_s [P_S, rho]_+ + kappa_t [P_T, rho]_+ } + kappa_st D_S(rho)

removes population with state-selective rates and adds pure singlet-triplet
dephasing through the Lindblad-form operator D_S = (P_S rho P_T + P_T rho P_S)/2.
With this normalisation the Liouville-diagonal rates read

    k_SS = kappa_s,  k_TT = kappa_t,  k_ST = (kappa_s + kappa_t + kappa_st)/2,

independent of the triplet projection. Model variants differ only in how
kappa_st relates to the reaction rates: the conventional anticommutator model
has kappa_st = 0, the measurement-motivated variant doubles the ST decay
(kappa_st = kappa_s + kappa_t) and a dephasing-only variant reacts not at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .liouville import (
    BasisLabel,
    DensityMatrix,
    OperatorMatrix,
    Propagation,
    Superoperator,
    _anticommutator,
    _density_stack,
    _expm_steps,
    _projector_dephasing,
    _validated_times,
    assemble_generator,
    infinite_time_integral,
    propagate,
)

PAIR_BASIS = BasisLabel(("S", "T+", "T0", "T-"))

_S, _TP, _T0, _TM = 0, 1, 2, 3


#: the singlet and triplet projectors P_S = |S><S| and P_T = 1 - P_S, read-only
_P_S = OperatorMatrix(PAIR_BASIS, np.diag([1.0, 0.0, 0.0, 0.0]))
_P_T = OperatorMatrix(PAIR_BASIS, np.eye(4) - _P_S.entries)
#: the equal S/T0 superposition the coherence fit starts from
_ST0 = DensityMatrix.pure(PAIR_BASIS, np.array([1, 0, 1, 0]) / np.sqrt(2))


def projectors():
    """Singlet and triplet projection operators (P_S + P_T = 1)."""
    return _P_S, _P_T


@dataclass(frozen=True)
class PairHamiltonian:
    """Minimal coherent part of the pair evolution (all rad/s).

    ``omega_mean`` is the mean Zeeman frequency (enters as total-Sz, splitting
    T+ and T-), ``delta_omega`` the difference-frequency term that mixes S with
    T0, and ``j_exchange`` a static exchange splitting S from the triplets
    (E_S - E_T = 2 j_exchange).
    """

    omega_mean: float = 0.0
    delta_omega: float = 0.0
    j_exchange: float = 0.0

    def __post_init__(self):
        for name in ("omega_mean", "delta_omega", "j_exchange"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def operator(self) -> OperatorMatrix:
        h = np.zeros((4, 4), dtype=complex)
        h[_TP, _TP] = self.omega_mean
        h[_TM, _TM] = -self.omega_mean
        h[_S, _T0] = h[_T0, _S] = 0.5 * self.delta_omega
        h[_S, _S] += self.j_exchange
        for t in (_TP, _T0, _TM):
            h[t, t] -= self.j_exchange
        return OperatorMatrix(PAIR_BASIS, h)


class ReactionVariant(enum.Enum):
    HABERKORN = "haberkorn"
    GENERALIZED = "generalized"
    JONES_HORE = "jones_hore"
    DEPHASING_ONLY = "dephasing_only"


@dataclass(frozen=True)
class ReactionModel:
    """Reaction/dephasing rates (s^-1) plus the variant tag that ties them.

    Use the factory methods; the constructor enforces each variant's
    constraint (haberkorn: kappa_st = 0; jones_hore: kappa_st = kappa_s +
    kappa_t; dephasing_only: kappa_s = kappa_t = 0).
    """

    kappa_s: float
    kappa_t: float
    kappa_st: float
    variant: ReactionVariant

    def __post_init__(self):
        for name in ("kappa_s", "kappa_t", "kappa_st"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValidationError(f"{name} must be finite and nonnegative")
        v = self.variant
        if v is ReactionVariant.HABERKORN and self.kappa_st != 0.0:
            raise ValidationError("haberkorn variant requires kappa_st = 0")
        if v is ReactionVariant.JONES_HORE and not math.isclose(
            self.kappa_st, self.kappa_s + self.kappa_t, rel_tol=1e-12, abs_tol=0.0
        ):
            raise ValidationError("jones_hore variant requires kappa_st = kappa_s + kappa_t")
        if v is ReactionVariant.DEPHASING_ONLY and (self.kappa_s or self.kappa_t):
            raise ValidationError("dephasing_only variant requires kappa_s = kappa_t = 0")

    @classmethod
    def haberkorn(cls, kappa_s: float, kappa_t: float) -> "ReactionModel":
        return cls(kappa_s, kappa_t, 0.0, ReactionVariant.HABERKORN)

    @classmethod
    def generalized(cls, kappa_s: float, kappa_t: float, kappa_st: float) -> "ReactionModel":
        return cls(kappa_s, kappa_t, kappa_st, ReactionVariant.GENERALIZED)

    @classmethod
    def jones_hore(cls, kappa_s: float, kappa_t: float) -> "ReactionModel":
        return cls(kappa_s, kappa_t, kappa_s + kappa_t, ReactionVariant.JONES_HORE)

    @classmethod
    def dephasing_only(cls, kappa_d: float) -> "ReactionModel":
        return cls(0.0, 0.0, kappa_d, ReactionVariant.DEPHASING_ONLY)


def reaction_supermatrix(m: ReactionModel) -> Superoperator:
    """Positive-decay reaction superoperator K (rho-dot contains -K rho)."""
    k = _anticommutator(_P_S.entries) * complex(0.5 * m.kappa_s)
    k = k + _anticommutator(_P_T.entries) * complex(0.5 * m.kappa_t)
    if m.kappa_st:
        k = k + _projector_dephasing(_P_S.entries) * complex(m.kappa_st)
    return Superoperator(PAIR_BASIS, k)


def generator(m: ReactionModel, h: PairHamiltonian) -> Superoperator:
    """Full pair generator -i[H, .] - K."""
    return assemble_generator(h.operator(), reactors=[reaction_supermatrix(m)])


@dataclass(frozen=True)
class RateElements:
    """Liouville-diagonal decay rates (s^-1): populations and the ST coherence."""

    k_ss: float
    k_tt: float
    k_st: float


def rate_elements(m: ReactionModel) -> RateElements:
    """The Liouville-diagonal rates of K, in the closed form of the module docstring."""
    return RateElements(k_ss=m.kappa_s, k_tt=m.kappa_t,
                        k_st=0.5 * (m.kappa_s + m.kappa_t + m.kappa_st))


@dataclass(frozen=True)
class CoherenceFit:
    """Fitted exponential decay of the ST0 coherence magnitude."""

    rate: float
    residual: float
    exponential: bool

    RESIDUAL_THRESHOLD = 1e-3


def coherence_decay_rate(m: ReactionModel, h: PairHamiltonian) -> CoherenceFit:
    """Measure the ST0 coherence decay by propagation and log-linear fit.

    Starts from the equal S/T0 superposition and fits log|rho_ST0| on 61
    points over three expected decay times. A root-mean-square fit residual
    above 1e-3 flags a non-exponential decay (typically a coherent S-T0 mixing
    term); the rate is still returned.
    """
    expected = rate_elements(m).k_st
    if expected <= 0.0:
        return CoherenceFit(rate=0.0, residual=0.0, exponential=True)
    times = np.linspace(0.0, 3.0 / expected, 61)
    prop = propagate(generator(m, h), _ST0, times)
    t = prop.times
    mags = np.abs(prop.coherence("S", "T0"))
    keep = mags > 1e-14 * mags.max()
    if keep.sum() < 5:
        raise ValidationError("coherence vanished too quickly to fit")
    slope, intercept = np.polyfit(t[keep], np.log(mags[keep]), 1)
    resid = np.log(mags[keep]) - (slope * t[keep] + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return CoherenceFit(
        rate=float(-slope),
        residual=rms,
        exponential=rms <= CoherenceFit.RESIDUAL_THRESHOLD,
    )


@dataclass(frozen=True)
class Yields:
    """Recombination yields through the singlet and triplet channels."""

    singlet: float
    triplet: float

    @property
    def total(self) -> float:
        return self.singlet + self.triplet


def recombination_yields(
    m: ReactionModel, h: PairHamiltonian, rho0: DensityMatrix
) -> Yields:
    """Yields via the resolvent: Phi_nu = kappa_nu Tr(P_nu X), X = integral of rho.

    Requires the full generator to decay; with kappa_t = 0 the unmixed triplet
    levels never react and the integral diverges.
    """
    x = infinite_time_integral(generator(m, h), rho0)
    phi_s = m.kappa_s * float(np.trace(_P_S.entries @ x.entries).real)
    phi_t = m.kappa_t * float(np.trace(_P_T.entries @ x.entries).real)
    return Yields(singlet=phi_s, triplet=phi_t)


def pure_state_propagate(
    m: ReactionModel, h: PairHamiltonian, psi0, times: Iterable[float]
) -> Propagation:
    """Propagate a pure state with the non-Hermitian effective Hamiltonian.

    For kappa_st = 0 the density matrix factorises, rho(t) = |psi(t)><psi(t)|
    with d psi / dt = -(i H + (kappa_s P_S + kappa_t P_T)/2) psi, and this path
    must agree with the Liouville propagation of |psi0><psi0|. Any ST
    dephasing breaks the factorisation, so kappa_st != 0 is rejected.
    """
    if m.kappa_st != 0.0:
        raise ValidationError("pure-state factorisation requires kappa_st = 0")
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi.size != 4:
        raise ValidationError("state vector must have four amplitudes")
    if not np.all(np.isfinite(psi)):
        raise ValidationError("state vector must be finite")
    norm = float(np.vdot(psi, psi).real)
    if norm > 1.0 + 1e-9:
        raise ValidationError("state vector norm must not exceed one")
    drift = -(
        1j * h.operator().entries + 0.5 * (m.kappa_s * _P_S.entries + m.kappa_t * _P_T.entries)
    )
    t = _validated_times(times)
    psi_t = _expm_steps(drift, psi, t)
    rho = psi_t[:, :, np.newaxis] * psi_t.conj()[:, np.newaxis, :]
    return Propagation(PAIR_BASIS, t, _density_stack(rho, t))
