"""Batch front end: JSON scenario configs in, JSON summaries and CSV series out.

Config keys carry explicit unit suffixes (``kappa_s_per_s``, ``d_cm``,
``omega_s_rad_s``) because unit slips are the dominant failure mode when
mixing cm-scale diffusion inputs with s^-1 rates. Unknown keys are rejected.
All floating outputs are printed with 12 significant digits so outputs are
reproducible bit for bit for a fixed seed.

Exit codes: 0 success, 2 config parse failure, 3 validation or regime
failure, 4 numerical failure. Errors print a one-line JSON reason to stderr.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import bloch_redfield as br
from . import diffusion, radical_pair, stochastic, three_state
from .errors import (
    NumericalError,
    RegimeError,
    SpinKineticsError,
    ValidationError,
)
from .liouville import DensityMatrix, assemble_generator, propagate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

SCENARIOS = ("three-state", "radical-pair", "radii", "oracle")
SWEEP_MAX_POINTS = 1_000_000
SWEEP_MAX_PARAMS = 3


class ConfigError(ValidationError):
    """Configuration does not validate."""


def _round12(x):
    """Round a float to 12 significant digits (deterministic output contract)."""
    if isinstance(x, bool) or not isinstance(x, float):
        return x
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return _round12(obj)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    if x is None:
        return ""
    return str(x)


def _require_keys(block: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key in {where}: {sorted(unknown)[0]!r}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key in {where}: {sorted(missing)[0]!r}")


def _number(block: dict, key: str, where: str, *, minimum=None, strict=False, default=None):
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"missing key in {where}: {key!r}")
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{where}.{key} must be finite")
    if minimum is not None and (v < minimum or (strict and v == minimum)):
        raise ConfigError(f"{where}.{key} must be {'>' if strict else '>='} {minimum}")
    return v


def _beta(block: dict, key: str, where: str) -> float:
    v = block.get(key)
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{where}.{key} must be a number or 'inf'")
    return _number(block, key, where, minimum=0.0)


# ---------------------------------------------------------------------------
# spectral density blocks
# ---------------------------------------------------------------------------

def _parse_density(block, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    form = block.get("form")
    if form == "lorentzian":
        _require_keys(block, {"form", "lambda_c_rad2_s2", "tau_c_s"},
                      {"form", "lambda_c_rad2_s2", "tau_c_s"}, where)
        return br.Lorentzian(
            amplitude=_number(block, "lambda_c_rad2_s2", where, minimum=0.0),
            tau_c=_number(block, "tau_c_s", where, minimum=0.0, strict=True),
        )
    if form == "white":
        _require_keys(block, {"form", "level_rad2_per_s"}, {"form", "level_rad2_per_s"}, where)
        return br.WhiteNoise(level=_number(block, "level_rad2_per_s", where, minimum=0.0))
    if form == "tabulated":
        _require_keys(block, {"form", "omega_rad_s", "values_rad2_per_s"},
                      {"form", "omega_rad_s", "values_rad2_per_s"}, where)
        return br.Tabulated(block["omega_rad_s"], block["values_rad2_per_s"])
    raise ConfigError(f"{where}.form must be one of lorentzian|white|tabulated")


def _parse_time_grid(block, where: str):
    _require_keys(block, {"t_max_s", "n_points"}, {"t_max_s"}, where)
    t_max = _number(block, "t_max_s", where, minimum=0.0, strict=True)
    n = block.get("n_points", 201)
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ConfigError(f"{where}.n_points must be an integer >= 2")
    return np.linspace(0.0, t_max, n)


def _series_table(times, names, columns):
    return {
        "columns": ["t_s"] + list(names),
        "rows": [
            [float(times[k])] + [col[k] for col in columns]
            for k in range(len(times))
        ],
    }


def _state_series(gen, rho0, params, available):
    """Propagate rho0 on the configured grid and slice the observables off it.

    ``available`` maps each observable to None (the trace) or to a label pair
    (row, col): a population when row == col, else a coherence magnitude.
    """
    times = _parse_time_grid(params["time_grid"], "parameters.time_grid")
    prop = propagate(gen, rho0, times)

    def column(pair):
        if pair is None:
            return prop.traces()
        z = prop.coherence(*pair)
        # hypot, not np.abs: it rounds exactly like Python's abs(complex)
        return z.real if pair[0] == pair[1] else np.hypot(z.real, z.imag)

    names = _observables(params, "parameters", available)
    return _series_table(prop.times, names, [column(available[c]).tolist() for c in names])


def _validity_block(superop, tau_c):
    if tau_c is None:
        return {"ratio": None, "tau_c_s": None, "pass": None, "strong_pass": None}
    report = br.validity_check(superop, tau_c)
    return {
        "ratio": report.ratio,
        "tau_c_s": tau_c,
        "pass": report.passes,
        "strong_pass": report.strong_pass,
    }


# ---------------------------------------------------------------------------
# three-state scenario
# ---------------------------------------------------------------------------

_TS_KEYS = {
    "omega0_rad_s", "omega_s_rad_s", "beta_s", "spectral_density",
    "splitting_density", "isotropic", "tau_c_s", "initial_state",
    "time_grid", "observables",
}
_TS_COLUMNS = {"rho_00": ("0", "0"), "rho_11": ("1", "1"), "rho_22": ("2", "2"),
               "abs_rho_01": ("0", "1"), "abs_rho_02": ("0", "2"), "abs_rho_12": ("1", "2"),
               "trace": None}
_TS_STATES = {
    "0": [1, 0, 0],
    "1": [0, 1, 0],
    "2": [0, 0, 1],
    "superposition_01": [1 / math.sqrt(2), 1 / math.sqrt(2), 0],
    "superposition_12": [0, 1 / math.sqrt(2), 1 / math.sqrt(2)],
}


def _observables(params, where, available):
    cols = params.get("observables", list(available))
    if not isinstance(cols, list) or not cols:
        raise ConfigError(f"{where}.observables must be a non-empty list")
    for c in cols:
        if c not in available:
            raise ConfigError(f"unknown observable {c!r} in {where}")
    return cols


def _normalize_three_state(params: dict) -> dict:
    _require_keys(params, _TS_KEYS,
                  {"omega_s_rad_s", "beta_s", "spectral_density", "time_grid"},
                  "parameters")
    out = dict(params)
    out.setdefault("omega0_rad_s", 0.0)
    out.setdefault("isotropic", False)
    out.setdefault("initial_state", "1")
    out.setdefault("observables", list(_TS_COLUMNS))
    if out["initial_state"] not in _TS_STATES:
        raise ConfigError(f"unknown initial_state {out['initial_state']!r}")
    if not isinstance(out["isotropic"], bool):
        raise ConfigError("parameters.isotropic must be a boolean")
    sd = out["spectral_density"]
    if isinstance(sd, dict) and sd.get("form") == "lorentzian" and "tau_c_s" not in out:
        out["tau_c_s"] = sd["tau_c_s"]
    out["time_grid"] = dict(out["time_grid"])
    out["time_grid"].setdefault("n_points", 201)
    return out


def _run_three_state(params: dict, seed):
    p = three_state.ThreeStateParams(
        omega0=_number(params, "omega0_rad_s", "parameters"),
        omega_s=_number(params, "omega_s_rad_s", "parameters", minimum=0.0, strict=True),
        beta=_beta(params, "beta_s", "parameters"),
        transverse=_parse_density(params["spectral_density"], "parameters.spectral_density"),
        splitting=(
            _parse_density(params["splitting_density"], "parameters.splitting_density")
            if "splitting_density" in params else None
        ),
        isotropic=params["isotropic"],
    )
    rates = three_state.closed_form_rates(p)
    h, bath = three_state.build_bath(p)
    relax = br.relaxation_supermatrix(bath, h)
    tau_c = params.get("tau_c_s")
    rho0 = DensityMatrix.pure(three_state.THREE_STATE_BASIS,
                              _TS_STATES[params["initial_state"]])
    series = _state_series(assemble_generator(h, relaxers=[relax]), rho0, params, _TS_COLUMNS)
    results = {
        "rates": {
            "w11_per_s": rates.w11,
            "w22_per_s": rates.w22,
            "wn_per_s": rates.wn,
            "w01_per_s": rates.w01,
            "w02_per_s": rates.w02,
            "wbar01_per_s": rates.wbar01,
            "wbarn_per_s": rates.wbarn,
        },
        "validity": _validity_block(relax, tau_c),
    }
    return results, series


# ---------------------------------------------------------------------------
# radical-pair scenario
# ---------------------------------------------------------------------------

_RP_KEYS = {
    "variant", "kappa_s_per_s", "kappa_t_per_s", "kappa_st_per_s", "kappa_d_per_s",
    "omega_mean_rad_s", "delta_omega_rad_s", "j_exchange_rad_s", "initial_state",
    "time_grid", "compute_yields", "tau_c_s", "observables",
}
_RP_COLUMNS = {"rho_SS": ("S", "S"), "rho_TpTp": ("T+", "T+"), "rho_T0T0": ("T0", "T0"),
               "rho_TmTm": ("T-", "T-"), "abs_rho_ST0": ("S", "T0"), "trace": None}
_RP_STATES = {
    "S": [1, 0, 0, 0],
    "T+": [0, 1, 0, 0],
    "T0": [0, 0, 1, 0],
    "T-": [0, 0, 0, 1],
    "superposition_ST0": [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0],
    "mixed": None,
}


def _normalize_radical_pair(params: dict) -> dict:
    _require_keys(params, _RP_KEYS, {"variant", "time_grid"}, "parameters")
    out = dict(params)
    variant = out.get("variant")
    if variant not in [v.value for v in radical_pair.ReactionVariant]:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == "dephasing_only":
        if "kappa_s_per_s" in out or "kappa_t_per_s" in out or "kappa_st_per_s" in out:
            raise ConfigError("dephasing_only takes kappa_d_per_s only")
        if "kappa_d_per_s" not in out:
            raise ConfigError("missing key in parameters: 'kappa_d_per_s'")
    else:
        if "kappa_d_per_s" in out:
            raise ConfigError("kappa_d_per_s is only valid for dephasing_only")
        for key in ("kappa_s_per_s", "kappa_t_per_s"):
            if key not in out:
                raise ConfigError(f"missing key in parameters: {key!r}")
        if variant != "generalized" and "kappa_st_per_s" in out:
            raise ConfigError("kappa_st_per_s is only valid for generalized")
        if variant == "generalized":
            out.setdefault("kappa_st_per_s", 0.0)
    out.setdefault("omega_mean_rad_s", 0.0)
    out.setdefault("delta_omega_rad_s", 0.0)
    out.setdefault("j_exchange_rad_s", 0.0)
    out.setdefault("initial_state", "S")
    out.setdefault("compute_yields", True)
    out.setdefault("observables", list(_RP_COLUMNS))
    if out["initial_state"] not in _RP_STATES:
        raise ConfigError(f"unknown initial_state {out['initial_state']!r}")
    if not isinstance(out["compute_yields"], bool):
        raise ConfigError("parameters.compute_yields must be a boolean")
    out["time_grid"] = dict(out["time_grid"])
    out["time_grid"].setdefault("n_points", 201)
    return out


def _reaction_model(params: dict) -> radical_pair.ReactionModel:
    variant = params["variant"]
    if variant == "haberkorn":
        return radical_pair.ReactionModel.haberkorn(
            _number(params, "kappa_s_per_s", "parameters", minimum=0.0),
            _number(params, "kappa_t_per_s", "parameters", minimum=0.0),
        )
    if variant == "jones_hore":
        return radical_pair.ReactionModel.jones_hore(
            _number(params, "kappa_s_per_s", "parameters", minimum=0.0),
            _number(params, "kappa_t_per_s", "parameters", minimum=0.0),
        )
    if variant == "generalized":
        return radical_pair.ReactionModel.generalized(
            _number(params, "kappa_s_per_s", "parameters", minimum=0.0),
            _number(params, "kappa_t_per_s", "parameters", minimum=0.0),
            _number(params, "kappa_st_per_s", "parameters", minimum=0.0),
        )
    return radical_pair.ReactionModel.dephasing_only(
        _number(params, "kappa_d_per_s", "parameters", minimum=0.0)
    )


def _run_radical_pair(params: dict, seed):
    model = _reaction_model(params)
    h = radical_pair.PairHamiltonian(
        omega_mean=_number(params, "omega_mean_rad_s", "parameters"),
        delta_omega=_number(params, "delta_omega_rad_s", "parameters"),
        j_exchange=_number(params, "j_exchange_rad_s", "parameters"),
    )
    elements = radical_pair.rate_elements(model)
    fit = radical_pair.coherence_decay_rate(model, h)
    name = params["initial_state"]
    rho0 = (
        DensityMatrix.maximally_mixed(radical_pair.PAIR_BASIS)
        if name == "mixed"
        else DensityMatrix.pure(radical_pair.PAIR_BASIS, _RP_STATES[name])
    )
    yields_block = None
    if params["compute_yields"]:
        y = radical_pair.recombination_yields(model, h, rho0)
        yields_block = {"singlet": y.singlet, "triplet": y.triplet, "total": y.total}
    series = _state_series(radical_pair.generator(model, h), rho0, params, _RP_COLUMNS)
    results = {
        "rate_elements": {
            "k_SS_per_s": elements.k_ss,
            "k_TT_per_s": elements.k_tt,
            "k_ST_per_s": elements.k_st,
        },
        "coherence": {
            "rate_per_s": fit.rate,
            "fit_residual": fit.residual,
            "exponential": fit.exponential,
        },
        "yields": yields_block,
        "validity": _validity_block(
            radical_pair.reaction_supermatrix(model), params.get("tau_c_s")
        ),
    }
    return results, series


# ---------------------------------------------------------------------------
# radii scenario
# ---------------------------------------------------------------------------

_RADII_KEYS = {
    "d_cm", "lambda0_cm", "D_cm2_per_s", "alpha_per_cm", "J0_per_s",
    "kappa0_s_per_s", "kappa0_t_per_s", "Z_cm3", "Q_per_s", "tau_c_s",
    "lambda_amp_cm", "equal_radius_tolerance",
}


def _normalize_radii(params: dict) -> dict:
    _require_keys(params, _RADII_KEYS,
                  {"d_cm", "lambda0_cm", "D_cm2_per_s", "alpha_per_cm", "J0_per_s",
                   "kappa0_s_per_s", "kappa0_t_per_s"},
                  "parameters")
    out = dict(params)
    out.setdefault("equal_radius_tolerance", 0.2)
    return out


def _run_radii(params: dict, seed):
    p = diffusion.DiffusionParams(
        d=_number(params, "d_cm", "parameters", minimum=0.0, strict=True),
        lambda0=_number(params, "lambda0_cm", "parameters", minimum=0.0, strict=True),
        big_d=_number(params, "D_cm2_per_s", "parameters", minimum=0.0, strict=True),
        alpha=_number(params, "alpha_per_cm", "parameters", minimum=0.0, strict=True),
        j0=_number(params, "J0_per_s", "parameters"),
        z_cage=params.get("Z_cm3"),
        kappa0_s=_number(params, "kappa0_s_per_s", "parameters", minimum=0.0),
        kappa0_t=_number(params, "kappa0_t_per_s", "parameters", minimum=0.0),
        q_spin=params.get("Q_per_s"),
        tau_c=params.get("tau_c_s"),
        lambda_amp=params.get("lambda_amp_cm"),
    )
    radii = diffusion.compute_radii(p)
    results = {
        "l_SS_cm": radii.l_ss,
        "l_TT_cm": radii.l_tt,
        "l_ST_cm": radii.l_st,
        "l_ST_minus_d_cm": radii.l_st - p.d,
    }
    validity_superop = None
    if p.z_cage is not None:
        rates = diffusion.cage_rates(radii, p)
        results["cage"] = {
            "k_SS_per_s": rates.k_ss,
            "k_TT_per_s": rates.k_tt,
            "k_ST_per_s": rates.k_st,
        }
        validity_superop = radical_pair.reaction_supermatrix(
            diffusion.to_reaction_model(rates)
        )
    if p.lambda_amp is not None and p.tau_c is not None:
        results["kappa_ST_estimate_per_s"] = diffusion.st_dephasing_rate_estimate(p)
    if p.q_spin is not None:
        sens = diffusion.recombination_sensitivity(p, radii.l_ss, radii.l_st)
        results["sensitivity_index"] = sens.value
        results["sensitivity_insensitive"] = sens.insensitive
    report = diffusion.equal_radius_regime_check(
        p, tolerance=_number(params, "equal_radius_tolerance", "parameters", minimum=0.0)
    )
    results["equal_radius"] = {
        "q_s": report.q_s,
        "exchange_ratio": report.exchange_ratio,
        "in_regime": report.in_regime,
        "relative_gap": report.relative_gap,
        "radii_match": report.radii_match,
    }
    results["validity"] = (
        _validity_block(validity_superop, p.tau_c)
        if validity_superop is not None
        else {"ratio": None, "tau_c_s": p.tau_c, "pass": None, "strong_pass": None}
    )
    return results, None


# ---------------------------------------------------------------------------
# oracle scenario
# ---------------------------------------------------------------------------

_ORACLE_KEYS = {
    "kind", "variance_rad2_s2", "tau_c_s", "dt_s", "omega_s_rad_s",
    "omega0_rad_s", "t_total_s", "n_traj", "n_spectrum_paths",
}


def _normalize_oracle(params: dict) -> dict:
    _require_keys(params, _ORACLE_KEYS,
                  {"kind", "variance_rad2_s2", "tau_c_s", "omega_s_rad_s"},
                  "parameters")
    out = dict(params)
    if out["kind"] not in [k.value for k in stochastic.NoiseKind]:
        raise ConfigError(f"unknown noise kind {out['kind']!r}")
    out.setdefault("omega0_rad_s", 0.0)
    out.setdefault("n_traj", 10000)
    out.setdefault("n_spectrum_paths", 2000)
    tau = _number(out, "tau_c_s", "parameters", minimum=0.0, strict=True)
    out.setdefault("dt_s", tau / 20.0)
    out.setdefault("t_total_s", 60.0 * tau)
    for key in ("n_traj", "n_spectrum_paths"):
        if not isinstance(out[key], int) or isinstance(out[key], bool) or out[key] < 100:
            raise ConfigError(f"parameters.{key} must be an integer >= 100")
    return out


def _run_oracle(params: dict, seed):
    process = stochastic.NoiseProcess(
        kind=stochastic.NoiseKind(params["kind"]),
        variance=_number(params, "variance_rad2_s2", "parameters", minimum=0.0, strict=True),
        tau_c=_number(params, "tau_c_s", "parameters", minimum=0.0, strict=True),
        seed=seed if seed is not None else 12345,
        dt=_number(params, "dt_s", "parameters", minimum=0.0, strict=True),
    )
    report = stochastic.closed_loop_check(
        process,
        omega_s=_number(params, "omega_s_rad_s", "parameters"),
        omega0=_number(params, "omega0_rad_s", "parameters"),
        duration=_number(params, "t_total_s", "parameters", minimum=0.0, strict=True),
        n_traj=params["n_traj"],
        n_spectrum_paths=params["n_spectrum_paths"],
    )
    run = report.run
    rates = report.rates
    results = {
        "w11_mc_per_s": rates.w11,
        "w11_mc_stderr_per_s": rates.w11_stderr,
        "w01_mc_per_s": rates.w01,
        "w01_mc_stderr_per_s": rates.w01_stderr,
        "ratio_w01_w11": rates.ratio,
        "ratio_stderr": rates.ratio_stderr,
        "ratio_ci95": list(rates.ratio_ci95),
        "w11_from_delta_a_per_s": rates.w11_from_delta_a,
        "fit_window_s": list(rates.window),
        "w11_assembled_per_s": report.w11_assembled,
        "relative_difference": report.relative_difference,
        "agrees_within_10pct": report.agrees_within_10pct,
        "validity": {
            "ratio": report.validity.ratio,
            "tau_c_s": process.tau_c,
            "pass": report.validity.passes,
            "strong_pass": report.validity.strong_pass,
        },
    }
    series = {
        "columns": ["t_s", "rho_11", "abs_rho_01", "two_re_delta_a"],
        "rows": [
            [
                float(run.times[k]),
                float(run.rho11[k]),
                float(abs(run.rho01[k])),
                float(2.0 * run.delta_a_mean[k].real),
            ]
            for k in range(run.times.size)
        ],
    }
    return results, series


_RUNNERS = {
    "three-state": (_normalize_three_state, _run_three_state),
    "radical-pair": (_normalize_radical_pair, _run_radical_pair),
    "radii": (_normalize_radii, _run_radii),
    "oracle": (_normalize_oracle, _run_oracle),
}


# ---------------------------------------------------------------------------
# config handling and output
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "inputs" in doc and "results" in doc:
        doc = doc["inputs"]  # a summary.json can be re-fed directly
        if not isinstance(doc, dict):
            raise ConfigError("summary inputs block must be an object")
    return doc


def _normalize_config(doc: dict, *, sweep: bool) -> dict:
    allowed = {"scenario", "parameters", "output", "seed"}
    required = {"scenario", "parameters"}
    if sweep:
        allowed.add("grid")
        required.add("grid")
    _require_keys(doc, allowed, required, "config")
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if not isinstance(doc["parameters"], dict):
        raise ConfigError("config.parameters must be an object")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ConfigError("config.seed must be a nonnegative integer")
    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("config.output must be an object")
    _require_keys(output, {"dir", "format"}, set(), "config.output")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("config.output.format must be csv or json")
    normalize, _ = _RUNNERS[scenario]
    out = {
        "scenario": scenario,
        "parameters": normalize(doc["parameters"]),
        "output": {"dir": output.get("dir", "."), "format": fmt},
    }
    if seed is not None:
        out["seed"] = seed
    if sweep:
        out["grid"] = _normalize_grid(doc["grid"])
    return out


def _normalize_grid(grid) -> dict:
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("config.grid must be a non-empty object")
    if len(grid) > SWEEP_MAX_PARAMS:
        raise ConfigError(f"grid spans more than {SWEEP_MAX_PARAMS} parameters")
    total = 1
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key} must be a non-empty list")
        total *= len(values)
    if total > SWEEP_MAX_POINTS:
        raise ConfigError(f"grid has {total} points, above the {SWEEP_MAX_POINTS} cap")
    return {k: list(v) for k, v in grid.items()}


def _set_dotted(params: dict, dotted: str, value) -> dict:
    keys = dotted.split(".")
    out = dict(params)
    node = out
    for k in keys[:-1]:
        child = node.get(k)
        if not isinstance(child, dict):
            raise ConfigError(f"grid key {dotted!r} does not address a parameter block")
        child = dict(child)
        node[k] = child
        node = child
    node[keys[-1]] = value
    return out


def _flatten(results: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in results.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                flat[f"{name}[{i}]"] = v
        else:
            flat[name] = value
    return flat


def _write_summary(path: Path, config: dict, results: dict, wall_time: float) -> None:
    summary = {
        "scenario": config["scenario"],
        "inputs": config,
        "results": _round_tree(results),
        "wall_time_s": round(wall_time, 6),
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_series(out_dir: Path, series: dict, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / "timeseries.json"
        records = [
            {c: _round12(v) if isinstance(v, float) else v
             for c, v in zip(series["columns"], row)}
            for row in series["rows"]
        ]
        path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
        return path
    path = out_dir / "timeseries.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(series["columns"])
        for row in series["rows"]:
            writer.writerow([_fmt(v) for v in row])
    return path


def _run_point(scenario: str, params: dict, seed):
    """Execute one scenario evaluation (also the sweep worker)."""
    _, runner = _RUNNERS[scenario]
    return runner(params, seed)


def cmd_run(args) -> int:
    started = time.monotonic()
    doc = _load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed  # checked like config.seed
    config = _normalize_config(doc, sweep=False)
    if args.out_dir is not None:
        config["output"]["dir"] = args.out_dir
    if args.format is not None:
        config["output"]["format"] = args.format
    results, series = _run_point(
        config["scenario"], config["parameters"], config.get("seed")
    )
    out_dir = Path(config["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_summary(out_dir / "summary.json", config, results, time.monotonic() - started)
    print(f"wrote {out_dir / 'summary.json'}")
    if series is not None:
        path = _write_series(out_dir, series, config["output"]["format"])
        print(f"wrote {path}")
    return EXIT_OK


def _sweep_tasks(config: dict, parameters: dict):
    """Grid points as (index, grid values, normalised parameters, seed).

    Each point is laid over the raw ``parameters`` block before it is
    normalised, so derived keys (tau_c_s, the oracle's dt_s) follow the grid.
    Seeds come from SeedSequence((master seed, index)): no stream is shared.
    """
    normalize, _ = _RUNNERS[config["scenario"]]
    grid = config["grid"]
    keys = sorted(grid)
    base_seed = config.get("seed", 0)
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        params = parameters
        for key, value in zip(keys, combo):
            params = _set_dotted(params, key, value)
        seed = int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])
        yield index, dict(zip(keys, combo)), normalize(params), seed


def _sweep_worker(task):
    scenario, params, seed = task
    results, _ = _run_point(scenario, params, seed)
    return results


def cmd_sweep(args) -> int:
    started = time.monotonic()
    doc = _load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed  # checked like config.seed
    config = _normalize_config(doc, sweep=True)
    if args.out_dir is not None:
        config["output"]["dir"] = args.out_dir
    # every grid point is normalised, hence validated, before any work or output
    tasks = list(_sweep_tasks(config, doc["parameters"]))
    scenario = config["scenario"]
    payloads = [(scenario, params, seed) for _i, _c, params, seed in tasks]
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_results = list(pool.map(_sweep_worker, payloads))
    else:
        all_results = [_sweep_worker(p) for p in payloads]

    grid_keys = sorted(config["grid"])
    flat_rows = [_flatten(r) for r in all_results]
    value_keys = sorted(flat_rows[0]) if flat_rows else []
    out_dir = Path(config["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(grid_keys + value_keys)
        for (_i, combo, _params, _seed), flat in zip(tasks, flat_rows):
            row = [_fmt(combo[k]) for k in grid_keys]
            row += [_fmt(_round12(flat.get(k))) for k in value_keys]
            writer.writerow(row)
    _write_summary(
        out_dir / "summary.json", config, {"n_points": len(tasks)},
        time.monotonic() - started,
    )
    print(f"wrote {csv_path}")
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


def _error_line(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinkinetics",
        description="Relaxation and spin-selective reaction kinetics, batch runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", cmd_run), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON scenario config")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (json.JSONDecodeError, OSError) as exc:
        _error_line("parse", exc)
        return EXIT_PARSE
    except (ConfigError, ValidationError, RegimeError) as exc:
        _error_line("validation", exc)
        return EXIT_VALIDATION
    except NumericalError as exc:
        _error_line("numerical", exc)
        return EXIT_NUMERICAL
    except SpinKineticsError as exc:  # pragma: no cover - safety net
        _error_line("error", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
