"""Batch front end: JSON scenario configs in, JSON summaries and CSV series out.

Config keys carry explicit unit suffixes (``kappa_s_per_s``, ``d_cm``,
``omega_s_rad_s``) because unit slips are the dominant failure mode when
mixing cm-scale diffusion inputs with s^-1 rates. Each scenario's keys are
one table of defaults and checks; unknown keys are rejected, and every value,
sweep grid points included, is checked before any work starts. All floating
outputs are printed with 12 significant digits so outputs are reproducible bit
for bit for a fixed seed.

Exit codes: 0 success, 2 config parse failure, 3 validation or regime
failure, 4 numerical failure. Errors print a one-line JSON reason to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bloch_redfield as br
from . import diffusion, radical_pair, stochastic, three_state
from ._blas import threads as _blas_threads
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


# ---------------------------------------------------------------------------
# config schema: one table per block, each key -> (default, check)
# ---------------------------------------------------------------------------

REQUIRED = object()  # schema default: the key must be given
OPTIONAL = object()  # schema default: the key may be left out


class _Tagged(NamedTuple):
    """A block whose ``tag`` key names the schema of the rest of it."""

    tag: str
    schemas: dict


def _block(schema, block, where: str):
    """Check ``block`` against ``schema``; every value is checked before use.

    A schema maps each key to (default, check). The default is REQUIRED,
    OPTIONAL or a static value, which goes through the same check. A check is
    a function (value, where) -> checked value, a nested schema or a _Tagged
    one. Returns (the block as given plus its static defaults, the checked
    values): the first is what a summary records as its inputs.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    if isinstance(schema, _Tagged):
        pick = _one_of(schema.schemas)
        kind = pick(block.get(schema.tag), f"{where}.{schema.tag}")
        schema = {schema.tag: (REQUIRED, pick), **schema.schemas[kind]}
    unknown = sorted(set(block) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key in {where}: {unknown[0]!r}")
    given, checked = {}, {}
    for key, (default, check) in schema.items():
        if key in block:
            value = block[key]
        elif default is REQUIRED:
            raise ConfigError(f"missing key in {where}: {key!r}")
        elif default is OPTIONAL:
            continue
        else:
            value = default
        if isinstance(check, (dict, _Tagged)):
            given[key], checked[key] = _block(check, value, f"{where}.{key}")
        else:
            given[key], checked[key] = value, check(value, f"{where}.{key}")
    return given, checked


def _number(low=-math.inf, *, strict=False):
    """Check: a finite number >= low (> low when strict), as a float."""
    def check(value, where):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number")
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise ConfigError(f"{where} must be finite")
        if x < low or (strict and x == low):
            raise ConfigError(f"{where} must be {'>' if strict else '>='} {low}")
        return x
    return check


_REAL = _number()
_NONNEGATIVE = _number(0.0)
_POSITIVE = _number(0.0, strict=True)


def _integer(low: int):
    def check(value, where):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"{where} must be an integer >= {low}")
        return value
    return check


def _one_of(options):
    def check(value, where):
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"{where} must be one of {'|'.join(options)}, not {value!r}")
        return value
    return check


def _boolean(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _text(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _beta(value, where):
    """Inverse temperature in s: a number >= 0, or "inf" for the irreversible limit."""
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    return _NONNEGATIVE(value, where)


def _list_of(item, min_len: int):
    """Check: a list of at least ``min_len`` values, each checked by ``item``."""
    def check(value, where):
        if not isinstance(value, list) or len(value) < min_len:
            raise ConfigError(f"{where} must be a list of at least {min_len} values")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return check


_DENSITIES = {  # form -> (spectrum class, the schema of its arguments in order)
    "lorentzian": (br.Lorentzian, {"lambda_c_rad2_s2": (REQUIRED, _NONNEGATIVE),
                                   "tau_c_s": (REQUIRED, _POSITIVE)}),
    "white": (br.WhiteNoise, {"level_rad2_per_s": (REQUIRED, _NONNEGATIVE)}),
    "tabulated": (br.Tabulated, {"omega_rad_s": (REQUIRED, _list_of(_REAL, 2)),
                                 "values_rad2_per_s": (REQUIRED, _list_of(_REAL, 2))}),
}
_DENSITY = _Tagged("form", {form: args for form, (_, args) in _DENSITIES.items()})


def _density(value, where):
    """Check: a spectral density block, built into its spectrum."""
    _, args = _block(_DENSITY, value, where)
    cls, _ = _DENSITIES[args.pop("form")]
    try:
        return cls(*args.values())
    except ValidationError as exc:  # a tabulated grid that is not increasing, say
        raise ConfigError(f"{where}: {exc}") from None


_TIME_GRID = {"t_max_s": (REQUIRED, _POSITIVE), "n_points": (201, _integer(2))}


def _grid(value, where):
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"{where} must be a non-empty object")
    if len(value) > SWEEP_MAX_PARAMS:
        raise ConfigError(f"{where} spans more than {SWEEP_MAX_PARAMS} parameters")
    total = 1
    for key, values in value.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}.{key} must be a non-empty list")
        total *= len(values)
    if total > SWEEP_MAX_POINTS:
        raise ConfigError(f"{where} has {total} points, above the {SWEEP_MAX_POINTS} cap")
    return value


def _state_series(gen, rho0, params, available):
    """Propagate rho0 on the configured grid and slice the observables off it.

    Returns (columns, one (n_times, n_cols) array). ``available`` maps each
    observable to None (the trace) or to a label pair (row, col): a
    population when row == col, else a coherence magnitude.
    """
    grid = params["time_grid"]
    prop = propagate(gen, rho0, np.linspace(0.0, grid["t_max_s"], grid["n_points"]))

    def column(pair):
        if pair is None:
            return prop.traces()
        z = prop.coherence(*pair)
        # hypot, not np.abs: it rounds exactly like Python's abs(complex)
        return z.real if pair[0] == pair[1] else np.hypot(z.real, z.imag)

    names = params["observables"]
    return ["t_s", *names], np.column_stack([prop.times] + [column(available[c]) for c in names])


def _validity_block(tau_c, superop=None, report=None):
    """The ``validity`` results block: ``report``, or the check of ``superop`` at
    ``tau_c``; a block of None results when there is nothing to check."""
    if report is None and superop is not None and tau_c is not None:
        report = br.validity_check(superop, tau_c)
    if report is None:
        return {"ratio": None, "tau_c_s": tau_c, "pass": None, "strong_pass": None}
    return {
        "ratio": report.ratio,
        "tau_c_s": tau_c,
        "pass": report.passes,
        "strong_pass": report.strong_pass,
    }


# ---------------------------------------------------------------------------
# three-state scenario
# ---------------------------------------------------------------------------

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
_THREE_STATE = {
    "omega0_rad_s": (0.0, _REAL),
    "omega_s_rad_s": (REQUIRED, _POSITIVE),
    "beta_s": (REQUIRED, _beta),
    "spectral_density": (REQUIRED, _density),
    "splitting_density": (OPTIONAL, _density),
    "isotropic": (False, _boolean),
    "tau_c_s": (OPTIONAL, _POSITIVE),
    "initial_state": ("1", _one_of(_TS_STATES)),
    "time_grid": (REQUIRED, _TIME_GRID),
    "observables": (list(_TS_COLUMNS), _list_of(_one_of(_TS_COLUMNS), 1)),
}


def _run_three_state(params: dict, seed):
    p = three_state.ThreeStateParams(
        omega0=params["omega0_rad_s"],
        omega_s=params["omega_s_rad_s"],
        beta=params["beta_s"],
        transverse=params["spectral_density"],
        splitting=params.get("splitting_density"),
        isotropic=params["isotropic"],
    )
    rates = three_state.closed_form_rates(p)
    h, bath = three_state.build_bath(p)
    relax = br.relaxation_supermatrix(bath, h)
    tau_c = params.get("tau_c_s")
    if tau_c is None and isinstance(p.transverse, br.Lorentzian):
        tau_c = p.transverse.tau_c
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
        "validity": _validity_block(tau_c, relax),
    }
    return results, series


# ---------------------------------------------------------------------------
# radical-pair scenario
# ---------------------------------------------------------------------------

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
_KS_KT = {"kappa_s_per_s": (REQUIRED, _NONNEGATIVE), "kappa_t_per_s": (REQUIRED, _NONNEGATIVE)}
_REACTIONS = {  # variant -> (ReactionModel factory, the schema of its rates in order)
    "haberkorn": (radical_pair.ReactionModel.haberkorn, _KS_KT),
    "jones_hore": (radical_pair.ReactionModel.jones_hore, _KS_KT),
    "generalized": (radical_pair.ReactionModel.generalized,
                    {**_KS_KT, "kappa_st_per_s": (0.0, _NONNEGATIVE)}),
    "dephasing_only": (radical_pair.ReactionModel.dephasing_only,
                       {"kappa_d_per_s": (REQUIRED, _NONNEGATIVE)}),
}
_RP_COMMON = {
    "omega_mean_rad_s": (0.0, _REAL),
    "delta_omega_rad_s": (0.0, _REAL),
    "j_exchange_rad_s": (0.0, _REAL),
    "initial_state": ("S", _one_of(_RP_STATES)),
    "time_grid": (REQUIRED, _TIME_GRID),
    "compute_yields": (True, _boolean),
    "tau_c_s": (OPTIONAL, _POSITIVE),
    "observables": (list(_RP_COLUMNS), _list_of(_one_of(_RP_COLUMNS), 1)),
}
_RADICAL_PAIR = _Tagged(
    "variant", {variant: {**rates, **_RP_COMMON} for variant, (_, rates) in _REACTIONS.items()}
)


def _run_radical_pair(params: dict, seed):
    factory, rates = _REACTIONS[params["variant"]]
    model = factory(*(params[key] for key in rates))
    h = radical_pair.PairHamiltonian(
        omega_mean=params["omega_mean_rad_s"],
        delta_omega=params["delta_omega_rad_s"],
        j_exchange=params["j_exchange_rad_s"],
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
    tau_c = params.get("tau_c_s")
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
            tau_c, None if tau_c is None else radical_pair.reaction_supermatrix(model)
        ),
    }
    return results, series


# ---------------------------------------------------------------------------
# radii scenario
# ---------------------------------------------------------------------------

_RADII = {
    "d_cm": (REQUIRED, _POSITIVE),
    "lambda0_cm": (REQUIRED, _POSITIVE),
    "D_cm2_per_s": (REQUIRED, _POSITIVE),
    "alpha_per_cm": (REQUIRED, _POSITIVE),
    "J0_per_s": (REQUIRED, _REAL),
    "kappa0_s_per_s": (REQUIRED, _NONNEGATIVE),
    "kappa0_t_per_s": (REQUIRED, _NONNEGATIVE),
    "Z_cm3": (OPTIONAL, _POSITIVE),
    "Q_per_s": (OPTIONAL, _POSITIVE),
    "tau_c_s": (OPTIONAL, _POSITIVE),
    "lambda_amp_cm": (OPTIONAL, _NONNEGATIVE),
    "equal_radius_tolerance": (0.2, _NONNEGATIVE),
}


def _run_radii(params: dict, seed):
    p = diffusion.DiffusionParams(
        d=params["d_cm"],
        lambda0=params["lambda0_cm"],
        big_d=params["D_cm2_per_s"],
        alpha=params["alpha_per_cm"],
        j0=params["J0_per_s"],
        z_cage=params.get("Z_cm3"),
        kappa0_s=params["kappa0_s_per_s"],
        kappa0_t=params["kappa0_t_per_s"],
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
        model = diffusion.to_reaction_model(rates)
        if p.tau_c is not None:
            validity_superop = radical_pair.reaction_supermatrix(model)
    if p.lambda_amp is not None and p.tau_c is not None:
        results["kappa_ST_estimate_per_s"] = diffusion.st_dephasing_rate_estimate(p)
    if p.q_spin is not None:
        sens = diffusion.recombination_sensitivity(p, radii.l_ss, radii.l_st)
        results["sensitivity_index"] = sens.value
        results["sensitivity_insensitive"] = sens.insensitive
    report = diffusion.equal_radius_regime_check(p, tolerance=params["equal_radius_tolerance"])
    results["equal_radius"] = {
        "q_s": report.q_s,
        "exchange_ratio": report.exchange_ratio,
        "in_regime": report.in_regime,
        "relative_gap": report.relative_gap,
        "radii_match": report.radii_match,
    }
    results["validity"] = _validity_block(p.tau_c, validity_superop)
    return results, None


# ---------------------------------------------------------------------------
# oracle scenario
# ---------------------------------------------------------------------------

_ORACLE = {
    "kind": (REQUIRED, _one_of([k.value for k in stochastic.NoiseKind])),
    "variance_rad2_s2": (REQUIRED, _POSITIVE),
    "tau_c_s": (REQUIRED, _POSITIVE),
    "dt_s": (OPTIONAL, _POSITIVE),
    "omega_s_rad_s": (REQUIRED, _REAL),
    "omega0_rad_s": (0.0, _REAL),
    "t_total_s": (OPTIONAL, _POSITIVE),
    "n_traj": (10000, _integer(100)),
    "n_spectrum_paths": (2000, _integer(stochastic.MIN_SPECTRUM_PATHS)),
}


def _oracle_setup(params: dict, seed: int):
    """The noise process and the closed loop's duration, each checking the keys it spans."""
    process = stochastic.NoiseProcess(
        kind=stochastic.NoiseKind(params["kind"]),
        variance=params["variance_rad2_s2"],
        tau_c=params["tau_c_s"],
        seed=seed,
        dt=params.get("dt_s"),
    )
    return process, stochastic.closed_loop_duration(process, params.get("t_total_s"))


def _run_oracle(params: dict, seed):
    process, duration = _oracle_setup(params, seed if seed is not None else 12345)
    report = stochastic.closed_loop_check(
        process,
        omega_s=params["omega_s_rad_s"],
        omega0=params["omega0_rad_s"],
        duration=duration,
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
        "validity": _validity_block(process.tau_c, report=report.validity),
    }
    z = run.rho01  # hypot, not np.abs: it rounds exactly like Python's abs(complex)
    table = np.column_stack(
        [run.times, run.rho11, np.hypot(z.real, z.imag), 2.0 * run.delta_a_mean.real]
    )
    return results, (["t_s", "rho_11", "abs_rho_01", "two_re_delta_a"], table)


_RUNNERS = {  # scenario -> (parameters schema, runner, check of the keys that span each other)
    "three-state": (_THREE_STATE, _run_three_state, None),
    "radical-pair": (_RADICAL_PAIR, _run_radical_pair, None),
    "radii": (_RADII, _run_radii, None),
    "oracle": (_ORACLE, _run_oracle, lambda params: _oracle_setup(params, 0)),
}


# ---------------------------------------------------------------------------
# config handling and output
# ---------------------------------------------------------------------------

_OUTPUT = {"dir": (".", _text), "format": ("csv", _one_of(("csv", "json")))}


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


def _normalize_config(doc: dict, *, sweep: bool):
    """Check a whole config: (inputs, checked parameters).

    ``inputs`` is the config as given plus its static defaults; values
    derived from others (the Lorentzian's tau_c, say) are left out of it, so a
    re-fed summary derives them afresh.
    """
    blocks = {"output": ({}, _OUTPUT), "seed": (OPTIONAL, _integer(0))}
    if sweep:
        blocks["grid"] = (REQUIRED, _grid)
    schema = _Tagged("scenario", {
        name: {"parameters": (REQUIRED, parameters), **blocks}
        for name, (parameters, _, _) in _RUNNERS.items()
    })
    inputs, checked = _block(schema, doc, "config")
    return inputs, checked["parameters"]


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


def _write_text(path: Path, text: str) -> None:
    """Write one output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"output file {str(path)!r} cannot be written: {exc}") from None


def _write_summary(path: Path, config: dict, results: dict, wall_time: float) -> None:
    summary = {
        "scenario": config["scenario"],
        "inputs": config,
        "results": _round_tree(results),
        "wall_time_s": round(wall_time, 6),
    }
    _write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _write_table(path: Path, columns, rows) -> None:
    """The one CSV writer: the header, then a line of ``_fmt`` cells per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    _write_text(path, buffer.getvalue())


def _write_series(out_dir: Path, columns, table: np.ndarray, fmt: str) -> Path:
    rows = table.tolist()
    if fmt == "json":
        path = out_dir / "timeseries.json"
        records = [dict(zip(columns, map(_round12, row))) for row in rows]
        _write_text(path, json.dumps(records, indent=2) + "\n")
    else:
        path = out_dir / "timeseries.csv"
        _write_table(path, columns, rows)
    return path


def _run_point(scenario: str, params: dict, seed):
    """Execute one scenario evaluation (also the sweep worker)."""
    _, runner, _ = _RUNNERS[scenario]
    return runner(params, seed)


def _checked_config(args, *, sweep: bool):
    """(inputs, run parameters or sweep tasks, output directory).

    The directory is created after every check, grid points included, and
    before any runner starts.
    """
    doc = _load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed  # checked like config.seed
    inputs, params = _normalize_config(doc, sweep=sweep)
    if args.out_dir is not None:
        inputs["output"]["dir"] = args.out_dir
    if sweep:
        # inputs record the raw block each grid point is laid over, so a
        # re-fed summary gives every point its own defaults
        inputs["parameters"] = doc["parameters"]
        work = list(_sweep_tasks(inputs))
    else:
        _, _, cross_check = _RUNNERS[inputs["scenario"]]
        if cross_check is not None:
            cross_check(params)
        work = params
    out_dir = Path(inputs["output"]["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config.output.dir {str(out_dir)!r} cannot be created: {exc}") from None
    return inputs, work, out_dir


def cmd_run(args) -> int:
    started = time.monotonic()
    config, params, out_dir = _checked_config(args, sweep=False)
    if args.format is not None:
        config["output"]["format"] = args.format
    results, series = _run_point(config["scenario"], params, config.get("seed"))
    if series is not None:  # the summary goes last: it exists only for a complete run
        path = _write_series(out_dir, *series, config["output"]["format"])
        print(f"wrote {path}")
    _write_summary(out_dir / "summary.json", config, results, time.monotonic() - started)
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


def _sweep_tasks(config: dict):
    """Grid points as (index, grid values, checked parameters, seed).

    Each point is laid over the raw ``parameters`` block before it is
    checked, key by key and then by the scenario's check of the keys that
    span each other, so values derived from swept keys follow the grid. Seeds
    come from SeedSequence((master seed, index)): no stream is shared.
    """
    schema, _, cross_check = _RUNNERS[config["scenario"]]
    grid = config["grid"]
    keys = sorted(grid)
    base_seed = config.get("seed", 0)
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        point = dict(zip(keys, combo))
        params = config["parameters"]
        for key, value in point.items():
            params = _set_dotted(params, key, value)
        try:
            _, checked = _block(schema, params, "config.parameters")
            if cross_check is not None:
                cross_check(checked)
        except ValidationError as exc:
            raise ConfigError(f"grid point {point}: {exc}") from None
        seed = int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])
        yield index, point, checked, seed


def _sweep_worker(task):
    scenario, point, params, seed = task
    try:
        results, _ = _run_point(scenario, params, seed)
    except SpinKineticsError as exc:  # same class, so the same exit code
        raise type(exc)(f"grid point {point}: {exc}") from None
    return results


def cmd_sweep(args) -> int:
    started = time.monotonic()
    config, tasks, out_dir = _checked_config(args, sweep=True)
    scenario = config["scenario"]
    payloads = [(scenario, point, params, seed) for _i, point, params, seed in tasks]
    cpus = os.cpu_count() or 1
    # a fork pool starts every worker at once, however few points there are
    workers = min(args.workers or cpus, len(tasks), cpus)
    if workers > 1:
        # multi-threaded BLAS in every worker spins on the same CPUs: one
        # thread each (set before the fork, and by the initializer for other
        # start methods), and the parent's counts back afterwards
        previous = _blas_threads(1)
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_blas_threads,
                                     initargs=(1,)) as pool:
                all_results = list(pool.map(_sweep_worker, payloads))
        finally:
            _blas_threads(previous)
    else:
        all_results = [_sweep_worker(p) for p in payloads]

    grid_keys = sorted(config["grid"])
    flat_rows = [_flatten(r) for r in all_results]
    # a key any row has, blank where missing, unless another row expands it
    # (no bare ``yields`` beside ``yields.total``)
    keys = set().union(*flat_rows)
    value_keys = sorted(k for k in keys if not any(o.startswith((k + ".", k + "[")) for o in keys))
    csv_path = out_dir / "sweep.csv"
    _write_table(csv_path, grid_keys + value_keys, (
        [combo[k] for k in grid_keys] + [flat.get(k) for k in value_keys]
        for (_i, combo, _params, _seed), flat in zip(tasks, flat_rows)
    ))
    _write_summary(
        out_dir / "summary.json", config, {"n_points": len(tasks)},
        time.monotonic() - started,
    )
    print(f"wrote {csv_path}")
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


def _error_line(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinkinetics",
        description="Relaxation and spin-selective reaction kinetics, batch runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run, sweep = (sub.add_parser(name) for name in ("run", "sweep"))
    for p, handler in ((run, cmd_run), (sweep, cmd_sweep)):
        p.add_argument("config", help="path to a JSON scenario config")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(handler=handler)
    run.add_argument("--format", choices=("csv", "json"), default=None)
    sweep.add_argument("--workers", type=_at_least_one, default=None)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
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
