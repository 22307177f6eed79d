"""Diffusion-assisted reaction and dephasing radii, cage rates, sensitivity.

Closed forms for a radical pair diffusing in a potential well (cage):

* contact reactivity kappa0 localised in a shell of width lambda0 at the
  contact distance d gives a reaction radius l = d q / (1 + q) with
  q = kappa0 d lambda0 / D;
* an exchange interaction decaying as J(r) = j0 exp(-alpha (r - d)) produces,
  for |j0| > D alpha^2, an ST dephasing radius
  l_st = d + (1.14 + ln(2 |j0| / (D alpha^2))) / alpha that exceeds every
  reaction radius;
* first-order cage rates follow as k = D l / Z with Z the configurational
  volume of the well;
* the observability of l_st != l_ss in recombination yields is gauged by the
  dimensionless index Q (l_st - l_ss)^2 / D.

Lengths in cm, D in cm^2/s, rates in s^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import RegimeError, ValidationError
from .radical_pair import RateElements, ReactionModel

#: constant term in the dephasing-radius formula
DEPHASING_RADIUS_CONSTANT = 1.14


@dataclass(frozen=True)
class DiffusionParams:
    """Geometry, transport and interaction parameters.

    d: contact distance (cm); lambda0: reactive-shell width (cm);
    big_d is the relative diffusion coefficient D (cm^2/s); alpha: exchange
    decay constant (1/cm); j0: contact exchange frequency (s^-1). Optional:
    z_cage (cm^3) configurational volume of the well; kappa0_s / kappa0_t
    contact reactivities (s^-1); q_spin the characteristic spin-dependent
    interaction (s^-1); tau_c the short-range fluctuation correlation time (s);
    lambda_amp the amplitude of stochastic contact motion (cm).
    """

    d: float
    lambda0: float
    big_d: float
    alpha: float
    j0: float
    z_cage: Optional[float] = None
    kappa0_s: Optional[float] = None
    kappa0_t: Optional[float] = None
    q_spin: Optional[float] = None
    tau_c: Optional[float] = None
    lambda_amp: Optional[float] = None

    def __post_init__(self):
        for name in ("d", "lambda0", "big_d", "alpha"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be positive and finite")
        if not math.isfinite(self.j0):
            raise ValidationError("j0 must be finite")

    def require(self, name: str, positive: bool = True) -> float:
        v = getattr(self, name)
        if v is None:
            raise ValidationError(f"parameter {name} is required here")
        if positive and not (v > 0 and math.isfinite(v)):
            raise ValidationError(f"{name} must be positive and finite")
        return float(v)


def reaction_radius(kappa0: float, p: DiffusionParams) -> float:
    """Effective radius d q / (1 + q), q = kappa0 d lambda0 / D.

    Monotone in the contact reactivity and saturating at the contact distance:
    kappa0 = 0 gives 0, kappa0 -> inf gives d.
    """
    if kappa0 < 0:
        raise ValidationError("contact reactivity must be nonnegative")
    if math.isinf(kappa0):
        return p.d
    q = kappa0 * p.d * p.lambda0 / p.big_d
    return p.d * q / (1.0 + q)


def _dephasing_excess(p: DiffusionParams) -> float:
    """(l_st - d) from the exchange profile; no regime guard."""
    return (
        DEPHASING_RADIUS_CONSTANT
        + math.log(2.0 * abs(p.j0) / (p.big_d * p.alpha**2))
    ) / p.alpha


def dephasing_radius(p: DiffusionParams) -> float:
    """ST dephasing radius for a strong exponential exchange interaction.

    Defined only for |j0| > D alpha^2 (strong-interaction regime); there the
    radius exceeds the contact distance and shrinks logarithmically with
    increasing diffusion.
    """
    if abs(p.j0) <= p.big_d * p.alpha**2:
        raise RegimeError(
            "dephasing radius requires |j0| > D alpha^2 "
            f"(got |j0| = {abs(p.j0):.3e}, D alpha^2 = {p.big_d * p.alpha ** 2:.3e})"
        )
    return p.d + _dephasing_excess(p)


@dataclass(frozen=True)
class ReactionRadii:
    """Radii for the three decay channels (cm)."""

    l_ss: float
    l_tt: float
    l_st: float


def compute_radii(p: DiffusionParams) -> ReactionRadii:
    """All three radii from the contact reactivities and the exchange profile."""
    return ReactionRadii(
        l_ss=reaction_radius(p.require("kappa0_s", positive=False), p),
        l_tt=reaction_radius(p.require("kappa0_t", positive=False), p),
        l_st=dephasing_radius(p),
    )


def cage_rates(radii: ReactionRadii, p: DiffusionParams) -> RateElements:
    """First-order in-cage rates k = D l / Z for each channel."""
    z = p.require("z_cage")
    return RateElements(
        k_ss=p.big_d * radii.l_ss / z,
        k_tt=p.big_d * radii.l_tt / z,
        k_st=p.big_d * radii.l_st / z,
    )


def to_reaction_model(rates: RateElements) -> ReactionModel:
    """Invert the diagonal rates into a reaction model.

    Plumbing between the cage picture and the superoperator: kappa_s = k_ss,
    kappa_t = k_tt and kappa_st = 2 k_st - k_ss - k_tt, which reproduces the
    requested k_st to rounding. Requires k_st >= (k_ss + k_tt)/2.
    """
    kappa_st = 2.0 * rates.k_st - rates.k_ss - rates.k_tt
    scale = max(abs(rates.k_ss), abs(rates.k_tt), abs(rates.k_st), 1e-300)
    if kappa_st < -1e-12 * scale:
        raise ValidationError(
            "cage rates imply negative ST dephasing (k_st below the reaction mean)"
        )
    return ReactionModel.generalized(rates.k_ss, rates.k_tt, max(kappa_st, 0.0))


def st_dephasing_rate_estimate(p: DiffusionParams) -> float:
    """Order-of-magnitude cage ST dephasing rate (j0 alpha lambda_amp)^2 tau_c.

    The amplitude of exchange fluctuations seen by a pair rattling over a
    length lambda_amp near contact is j0 * alpha * lambda_amp; the square times
    the correlation time is the corresponding dephasing rate.
    """
    lam = p.require("lambda_amp", positive=False)
    if lam < 0:
        raise ValidationError("lambda_amp must be nonnegative")
    tau = p.require("tau_c")
    jbar = p.j0 * p.alpha * lam
    return jbar * jbar * tau


@dataclass(frozen=True)
class SensitivityIndex:
    """Observability of the radius gap in recombination yields."""

    value: float
    insensitive: bool

    INSENSITIVE_BELOW = 0.1


def recombination_sensitivity(
    p: DiffusionParams, l_ss: float, l_st: float
) -> SensitivityIndex:
    """Dimensionless index Q (l_st - l_ss)^2 / D.

    Below 0.1 the recombination probability is effectively blind to the
    difference between the reaction and dephasing radii.
    """
    q = p.require("q_spin")
    if l_st < l_ss:
        raise ValidationError("dephasing radius must not be smaller than l_ss")
    value = q * (l_st - l_ss) ** 2 / p.big_d
    return SensitivityIndex(value=value, insensitive=value < SensitivityIndex.INSENSITIVE_BELOW)


@dataclass(frozen=True)
class EqualRadiusReport:
    """Diagnostics for the regime where reaction and dephasing radii coincide."""

    q_s: float
    exchange_ratio: float
    in_regime: bool
    l_ss: float
    relative_gap: Optional[float]
    radii_match: bool


def equal_radius_regime_check(p: DiffusionParams, tolerance: float = 0.2) -> EqualRadiusReport:
    """Check whether l_ss ~ l_st, i.e. high reactivity with moderate exchange.

    The regime asks for q_s = kappa0_s d lambda0 / D >> 1 (at least 100)
    together with |j0| / (D alpha^2) of order one (from 1 to 10; the lower
    edge is included so the dephasing-radius formula is evaluated right at
    its boundary). ``radii_match`` is true when additionally the radii
    agree within ``tolerance`` relative to l_ss.
    """
    kappa0_s = p.require("kappa0_s", positive=False)
    q_s = kappa0_s * p.d * p.lambda0 / p.big_d
    ratio = abs(p.j0) / (p.big_d * p.alpha**2)
    in_regime = q_s >= 100.0 and 1.0 <= ratio <= 10.0
    l_ss = reaction_radius(kappa0_s, p)
    l_st = p.d + _dephasing_excess(p) if ratio >= 1.0 else None
    gap = abs(l_st - l_ss) / l_ss if (l_st is not None and l_ss > 0) else None
    return EqualRadiusReport(
        q_s=q_s,
        exchange_ratio=ratio,
        in_regime=in_regime,
        l_ss=l_ss,
        relative_gap=gap,
        radii_match=bool(in_regime and gap is not None and gap <= tolerance),
    )
