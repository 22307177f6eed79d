"""Batch front end: JSON scenario configs in, JSON summaries and CSV series out.

Config keys carry explicit unit suffixes (``kappa_s_per_s``, ``d_cm``,
``omega_s_rad_s``) because unit slips are the dominant failure mode when
mixing cm-scale diffusion inputs with s^-1 rates. Each scenario's keys are
one table of defaults and JSON types; unknown keys are rejected. A value's
range has one check: the library constructor it enters, which the scenario's
build stage calls, in the parent, for a run and for every sweep grid point
before any work starts, naming the config key of a value out of range. Only
inputs that enter no constructor, and sizes, keep a bound in the table. All
floating outputs are printed with 12 significant digits so outputs are
reproducible bit for bit for a fixed seed.

Exit codes: 0 success, 2 config parse failure, 3 validation or regime
failure, 4 numerical failure. Errors print a one-line JSON reason to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
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
from . import diffusion, liouville, radical_pair, stochastic, three_state
from ._blas import one_thread
from .errors import NumericalError, SpinKineticsError, ValidationError
from .liouville import DensityMatrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

SWEEP_MAX_POINTS = 1_000_000
SWEEP_MAX_PARAMS = 3
#: points of a time grid: a propagated pair-state series holds about 1 kB per point
TIME_GRID_MAX_POINTS = 100_000
#: float64 cells of an oracle run's largest array, its noise paths (512 MiB,
#: about 28 times the default run's), and its most trajectories, whose batch
#: labels take one cell each
ORACLE_MAX_CELLS = 2**26
#: rows of a time series formatted by one string operation
SERIES_BLOCK_ROWS = 256


class ConfigError(ValidationError):
    """Configuration does not validate."""


def _round12(x):
    """Round a float to 12 significant digits (deterministic output contract)."""
    if not isinstance(x, float) or not math.isfinite(x):  # a bool is no float
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
    _object(block, where)
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


#: a library input: its range is checked by the library constructor it enters
_NUMBER = _number()
#: bounds of the inputs that enter no constructor: they are checked here
_NONNEGATIVE = _number(0.0)
_POSITIVE = _number(0.0, strict=True)


def _integer(low: int, high: float = math.inf):
    def check(value, where):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"{where} must be an integer >= {low}")
        if value > high:
            raise ConfigError(f"{where} must be at most {high}")
        return value
    return check


def _one_of(options):
    def check(value, where):
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"{where} must be one of {'|'.join(options)}, not {value!r}")
        return value
    return check


def _typed(kind, text: str):
    """Check: a value of type ``kind``, which ``text`` names."""
    def check(value, where):
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {text}")
        return value
    return check


_boolean = _typed(bool, "true or false")
_object = _typed(dict, "an object")
_text = _typed(str, "a string")


def _beta(value, where):
    """Inverse temperature in s: a number, or "inf" for the irreversible limit."""
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    return _NUMBER(value, where)


def _list_of(item, min_len: int = 0):
    """Check: a list of at least ``min_len`` values, each checked by ``item``."""
    def check(value, where):
        if not isinstance(value, list) or len(value) < min_len:
            size = f" of at least {min_len} values" if min_len else ""
            raise ConfigError(f"{where} must be a list{size}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return check


def _built(make, params: dict, keys: dict, where: str = "config.parameters", **fixed):
    """``make`` called with ``fixed`` and each keyword of ``keys``, a keyword ->
    config key table, set to its key's value (None for a key left out). A
    library ValidationError that opens with a keyword of a given key is
    re-raised as a ConfigError naming the key instead; any other names ``where``."""
    try:
        return make(**{kw: params.get(key) for kw, key in keys.items()}, **fixed)
    except ValidationError as exc:
        name, _, rest = str(exc).partition(" ")
        key = keys.get(name)
        raise ConfigError(f"{where}.{key} {rest}" if key in params else f"{where}: {exc}") from None


#: form -> (spectrum class, its keyword -> config key table)
_DENSITIES = {
    "lorentzian": (br.Lorentzian, {"amplitude": "lambda_c_rad2_s2", "tau_c": "tau_c_s"}),
    "white": (br.WhiteNoise, {"level": "level_rad2_per_s"}),
    "tabulated": (br.Tabulated, {"omega": "omega_rad_s", "values": "values_rad2_per_s"}),
}
_DENSITY = _Tagged("form", {
    form: {key: (REQUIRED, _list_of(_NUMBER) if form == "tabulated" else _NUMBER)
           for key in keys.values()} for form, (_, keys) in _DENSITIES.items()})


def _density(value, where):
    """Check: a spectral density block, built into its spectrum."""
    _, args = _block(_DENSITY, value, where)
    cls, keys = _DENSITIES[args["form"]]
    return _built(cls, args, keys, where)


_TIME_GRID = {"t_max_s": (REQUIRED, _POSITIVE),  # the propagation's: no constructor takes it
              "n_points": (201, _integer(2, TIME_GRID_MAX_POINTS))}


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


def _validity_block(tau_c, report):
    """The ``validity`` results block of ``report``, the validity check at
    ``tau_c``; a block of None results when nothing was checked."""
    return {"ratio": report and report.ratio, "tau_c_s": tau_c,
            "pass": report and report.passes, "strong_pass": report and report.strong_pass}


def _rate_block(elements) -> dict:
    """The results block of radical-pair rate elements: in-cage or of a reaction model."""
    return {"k_SS_per_s": elements.k_ss, "k_TT_per_s": elements.k_tt, "k_ST_per_s": elements.k_st}


# ---------------------------------------------------------------------------
# scenarios: each one's schema, then its build, results and series stages. A
# stage calls the library through its modules when it runs, so that a wrapper
# a tracer sets on a module attribute sees the call.
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
    "omega0_rad_s": (0.0, _NUMBER),
    "omega_s_rad_s": (REQUIRED, _NUMBER),
    "beta_s": (REQUIRED, _beta),
    "spectral_density": (REQUIRED, _density),
    "splitting_density": (OPTIONAL, _density),
    "isotropic": (False, _boolean),
    "tau_c_s": (OPTIONAL, _POSITIVE),  # the validity check's: no constructor takes it
    "initial_state": ("1", _one_of(_TS_STATES)),
    "time_grid": (REQUIRED, _TIME_GRID),
    "observables": (list(_TS_COLUMNS), _list_of(_one_of(_TS_COLUMNS), 1)),
}
#: ThreeStateParams keyword -> config key
_TS_KEYS = {"omega0": "omega0_rad_s", "omega_s": "omega_s_rad_s", "beta": "beta_s",
            "transverse": "spectral_density", "splitting": "splitting_density",
            "isotropic": "isotropic"}


def _build_three_state(params: dict, seed):
    return dict(params, model=_built(three_state.ThreeStateParams, params, _TS_KEYS))


def _three_state_results(point: dict, workers):
    p = point["model"]
    rates = three_state.closed_form_rates(p)
    h, bath = three_state.build_bath(p)
    relax = br.relaxation_supermatrix(bath, h)
    tau_c = point.get("tau_c_s")
    if tau_c is None and isinstance(p.transverse, br.Lorentzian):
        tau_c = p.transverse.tau_c
    results = {
        "rates": {f"{f.name}_per_s": getattr(rates, f.name) for f in dataclasses.fields(rates)},
        "validity": _validity_block(
            tau_c, None if tau_c is None else br.validity_check(relax, tau_c)
        ),
    }
    return results, functools.partial(liouville.assemble_generator, h, relaxers=[relax])


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
#: scenario -> (basis, its initial states: name -> amplitudes, None for maximally
#: mixed, its observables: name -> None for the trace, or a label pair (row, col):
#: a population when row == col, else a coherence magnitude)
_STATES = {"three-state": (three_state.THREE_STATE_BASIS, _TS_STATES, _TS_COLUMNS),
           "radical-pair": (radical_pair.PAIR_BASIS, _RP_STATES, _RP_COLUMNS)}


@functools.cache
def _initial_state(scenario: str, name: str) -> DensityMatrix:
    """The initial state ``name`` of ``scenario``, built on its first use and
    shared after (a DensityMatrix is read-only)."""
    basis, states, _ = _STATES[scenario]
    if states[name] is None:
        return DensityMatrix.maximally_mixed(basis)
    return DensityMatrix.pure(basis, states[name])


def _state_series(scenario: str, point: dict, generator):
    """The series stage of a scenario that propagates a state: the point's
    initial state propagated by ``generator()`` on its time grid, as (columns,
    one (n_times, n_cols) array) of its observables."""
    grid = point["time_grid"]
    rho0 = _initial_state(scenario, point["initial_state"])
    times = np.linspace(0.0, grid["t_max_s"], grid["n_points"])
    prop = liouville.propagate(generator(), rho0, times)

    def column(pair):
        if pair is None:
            return prop.traces()
        z = prop.coherence(*pair)
        # hypot, not np.abs: it rounds exactly like Python's abs(complex)
        return z.real if pair[0] == pair[1] else np.hypot(z.real, z.imag)

    names, available = point["observables"], _STATES[scenario][2]
    return ["t_s", *names], np.column_stack([prop.times] + [column(available[c]) for c in names])


_KS_KT = {"kappa_s": "kappa_s_per_s", "kappa_t": "kappa_t_per_s"}
#: variant, the name of its ReactionModel factory -> the factory's keyword -> config key
_REACTIONS = {"haberkorn": _KS_KT, "jones_hore": _KS_KT,
              "generalized": {**_KS_KT, "kappa_st": "kappa_st_per_s"},
              "dephasing_only": {"kappa_st": "kappa_d_per_s"}}
_RATE_SCHEMA = {"kappa_s_per_s": (REQUIRED, _NUMBER), "kappa_t_per_s": (REQUIRED, _NUMBER),
          "kappa_st_per_s": (0.0, _NUMBER), "kappa_d_per_s": (REQUIRED, _NUMBER)}
#: PairHamiltonian keyword -> config key
_PAIR_KEYS = {"omega_mean": "omega_mean_rad_s", "delta_omega": "delta_omega_rad_s",
              "j_exchange": "j_exchange_rad_s"}
_RP_COMMON = {
    **{key: (0.0, _NUMBER) for key in _PAIR_KEYS.values()},
    "initial_state": ("S", _one_of(_RP_STATES)),
    "time_grid": (REQUIRED, _TIME_GRID),
    "compute_yields": (True, _boolean),
    "tau_c_s": (OPTIONAL, _POSITIVE),  # the validity check's: no constructor takes it
    "observables": (list(_RP_COLUMNS), _list_of(_one_of(_RP_COLUMNS), 1)),
}
_RADICAL_PAIR = _Tagged("variant", {
    variant: {**{key: _RATE_SCHEMA[key] for key in keys.values()}, **_RP_COMMON}
    for variant, keys in _REACTIONS.items()
})


def _build_radical_pair(params: dict, seed):
    factory = getattr(radical_pair.ReactionModel, params["variant"])
    return dict(params, model=(_built(factory, params, _REACTIONS[params["variant"]]),
                               _built(radical_pair.PairHamiltonian, params, _PAIR_KEYS)))


def _radical_pair_results(point: dict, workers):
    model, h = point["model"]
    fit = radical_pair.coherence_decay_rate(model, h)
    yields_block = None
    if point["compute_yields"]:
        rho0 = _initial_state("radical-pair", point["initial_state"])
        y = radical_pair.recombination_yields(model, h, rho0)
        yields_block = {"singlet": y.singlet, "triplet": y.triplet, "total": y.total}
    tau_c = point.get("tau_c_s")
    results = {
        "rate_elements": _rate_block(radical_pair.rate_elements(model)),
        "coherence": {
            "rate_per_s": fit.rate,
            "fit_residual": fit.residual,
            "exponential": fit.exponential,
        },
        "yields": yields_block,
        "validity": _validity_block(tau_c, None if tau_c is None else br.validity_check(
            radical_pair.reaction_supermatrix(model), tau_c)),
    }
    return results, functools.partial(radical_pair.generator, model, h)


_RADII = {
    **{key: (REQUIRED, _NUMBER) for key in ("d_cm", "lambda0_cm", "D_cm2_per_s", "alpha_per_cm",
                                            "J0_per_s", "kappa0_s_per_s", "kappa0_t_per_s")},
    **{key: (OPTIONAL, _NUMBER) for key in ("Z_cm3", "Q_per_s", "tau_c_s", "lambda_amp_cm")},
    # equal_radius_regime_check's: no constructor takes it
    "equal_radius_tolerance": (0.2, _NONNEGATIVE),
}
#: DiffusionParams keyword -> config key
_RADII_KEYS = {"d": "d_cm", "lambda0": "lambda0_cm", "big_d": "D_cm2_per_s",
               "alpha": "alpha_per_cm", "j0": "J0_per_s", "z_cage": "Z_cm3",
               "kappa0_s": "kappa0_s_per_s", "kappa0_t": "kappa0_t_per_s", "q_spin": "Q_per_s",
               "tau_c": "tau_c_s", "lambda_amp": "lambda_amp_cm"}


def _build_radii(params: dict, seed):
    return dict(params, model=_built(diffusion.DiffusionParams, params, _RADII_KEYS))


def _radii_results(point: dict, workers):
    p = point["model"]
    radii = diffusion.compute_radii(p)
    results = {
        "l_SS_cm": radii.l_ss,
        "l_TT_cm": radii.l_tt,
        "l_ST_cm": radii.l_st,
        "l_ST_minus_d_cm": radii.l_st - p.d,
    }
    validity = None
    if p.z_cage is not None:
        rates = diffusion.cage_rates(radii, p)
        results["cage"] = _rate_block(rates)
        model = diffusion.to_reaction_model(rates)
        if p.tau_c is not None:
            validity = br.validity_check(radical_pair.reaction_supermatrix(model), p.tau_c)
    if p.lambda_amp is not None and p.tau_c is not None:
        results["kappa_ST_estimate_per_s"] = diffusion.st_dephasing_rate_estimate(p)
    if p.q_spin is not None:
        sens = diffusion.recombination_sensitivity(p, radii.l_ss, radii.l_st)
        results["sensitivity_index"] = sens.value
        results["sensitivity_insensitive"] = sens.insensitive
    report = diffusion.equal_radius_regime_check(p, tolerance=point["equal_radius_tolerance"])
    results["equal_radius"] = {name: getattr(report, name) for name in (
        "q_s", "exchange_ratio", "in_regime", "relative_gap", "radii_match")}
    results["validity"] = _validity_block(p.tau_c, validity)
    return results, None


_ORACLE = {
    "kind": (REQUIRED, _one_of([k.value for k in stochastic.NoiseKind])),
    "variance_rad2_s2": (REQUIRED, _NUMBER),
    "tau_c_s": (REQUIRED, _NUMBER),
    "dt_s": (OPTIONAL, _NUMBER),
    "omega_s_rad_s": (REQUIRED, _NUMBER),
    "omega0_rad_s": (0.0, _NUMBER),
    "t_total_s": (OPTIONAL, _NUMBER),
    # the CLI's own bounds: the library checks n_spectrum_paths only once the
    # spectrum's paths are drawn
    "n_traj": (10000, _integer(100, ORACLE_MAX_CELLS)),
    "n_spectrum_paths": (2000, _integer(stochastic.MIN_SPECTRUM_PATHS)),
}
#: NoiseProcess keyword -> config key
_NOISE_KEYS = {"variance": "variance_rad2_s2", "tau_c": "tau_c_s", "dt": "dt_s"}
#: closed_loop_check keyword -> config key
_LOOP_KEYS = {"omega_s": "omega_s_rad_s", "omega0": "omega0_rad_s", "n_traj": "n_traj",
              "n_spectrum_paths": "n_spectrum_paths"}
#: oracle result key -> the attribute of the Monte Carlo rates that it reports
_MC_RESULTS = {"w11_mc_per_s": "w11", "w11_mc_stderr_per_s": "w11_stderr", "w01_mc_per_s": "w01",
               "w01_mc_stderr_per_s": "w01_stderr", "ratio_w01_w11": "ratio",
               "ratio_stderr": "ratio_stderr", "ratio_ci95": "ratio_ci95",
               "w11_from_delta_a_per_s": "w11_from_delta_a", "fit_window_s": "window"}


def _build_oracle(params: dict, seed):
    """The noise process, of ``seed`` or else 12345, and the closed loop's
    duration, once the run's largest array is known to fit ORACLE_MAX_CELLS:
    the spectrum's paths, or one chunk of trajectories, over at least 60 tau_c."""
    process = _built(stochastic.NoiseProcess, params, _NOISE_KEYS,
                     kind=stochastic.NoiseKind(params["kind"]),
                     seed=seed if seed is not None else 12345)
    duration = _built(stochastic.closed_loop_duration, params, {"duration": "t_total_s"},
                      p=process)
    paths = max(params["n_spectrum_paths"], min(params["n_traj"], stochastic.CHUNK))
    steps = np.ceil(max(duration, 60.0 * process.tau_c) / process.dt) + 1  # a float: may be inf
    if paths * steps > ORACLE_MAX_CELLS:
        raise ConfigError(f"config.parameters: {paths} noise paths (n_spectrum_paths, or n_traj "
                          f"up to {stochastic.CHUNK}) of {steps:.12g} steps (dt_s) exceed "
                          f"{ORACLE_MAX_CELLS} float64 cells")
    return dict(params, model=(process, duration))


def _oracle_results(point: dict, workers):
    process, duration = point["model"]
    chunks = math.ceil(point["n_traj"] / stochastic.CHUNK)
    with _task_map(min(workers, chunks)) as chunk_map:
        report = stochastic.closed_loop_check(
            process, duration=duration, map=chunk_map,
            **{kw: point[key] for kw, key in _LOOP_KEYS.items()})
    results = {key: getattr(report.rates, name) for key, name in _MC_RESULTS.items()}
    results.update({
        "w11_assembled_per_s": report.w11_assembled,
        "relative_difference": report.relative_difference,
        "agrees_within_10pct": report.agrees_within_10pct,
        "validity": _validity_block(process.tau_c, report.validity),
    })
    return results, report.run


def _oracle_series(point: dict, run):
    z = run.rho01  # hypot, not np.abs: it rounds exactly like Python's abs(complex)
    table = np.column_stack(
        [run.times, run.rho11, np.hypot(z.real, z.imag), 2.0 * run.delta_a_mean.real]
    )
    return ["t_s", "rho_11", "abs_rho_01", "two_re_delta_a"], table


class _Scenario(NamedTuple):
    """A scenario's stages, in the order they run. ``build(params, seed)`` makes
    the library objects, whose constructors check every range the ``schema``
    leaves out, and returns the point the later stages read: the checked
    parameters plus ``model``, those objects. ``results(point, workers)`` gives
    the results block and what ``series(point, carried)`` reads; that returns
    the time series (columns, table), and is None where there is none.
    ``seeded``: the build reads a seed, so a sweep derives one per point."""

    schema: object
    build: object
    results: object
    series: object = None
    seeded: bool = False


_RUNNERS = {
    "three-state": _Scenario(_THREE_STATE, _build_three_state, _three_state_results,
                             functools.partial(_state_series, "three-state")),
    "radical-pair": _Scenario(_RADICAL_PAIR, _build_radical_pair, _radical_pair_results,
                              functools.partial(_state_series, "radical-pair")),
    "radii": _Scenario(_RADII, _build_radii, _radii_results),
    "oracle": _Scenario(_ORACLE, _build_oracle, _oracle_results, _oracle_series, seeded=True),
}


# ---------------------------------------------------------------------------
# config handling and output
# ---------------------------------------------------------------------------

_OUTPUT = {"dir": (".", _text), "format": ("csv", _one_of(("csv", "json")))}
#: a config's envelope: its parameters are checked by _check_parameters alone
_CONFIG = {"scenario": (REQUIRED, _one_of(_RUNNERS)), "parameters": (REQUIRED, _object),
           "output": ({}, _OUTPUT), "seed": (OPTIONAL, _integer(0))}


def _load_config(args) -> dict:
    """The config file of ``args`` with each flag given laid over the key it
    overrides, so that the flag meets that key's check."""
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "inputs" in doc and "results" in doc:
        doc = doc["inputs"]  # a summary.json can be re-fed directly
        if not isinstance(doc, dict):
            raise ConfigError("summary inputs block must be an object")
    if args.seed is not None:
        doc["seed"] = args.seed
    flags = {"dir": args.out_dir, "format": getattr(args, "format", None)}
    output = doc.setdefault("output", {})
    if isinstance(output, dict):  # else config.output fails its check
        output.update((key, flag) for key, flag in flags.items() if flag is not None)
    return doc


def _check_parameters(scenario: str, block, seed):
    """A run's or a sweep point's parameters checked by the scenario's schema
    and built with ``seed``: (the block as given plus its static defaults, which
    a summary records, the built point)."""
    entry = _RUNNERS[scenario]
    given, checked = _block(entry.schema, block, "config.parameters")
    return given, entry.build(checked, seed)


def _set_dotted(params: dict, dotted: str, value) -> dict:
    """A copy of ``params`` with the key at the dotted path set to ``value``."""
    *path, last = dotted.split(".")
    out = node = dict(params)
    for k in path:
        if not isinstance(node.get(k), dict):
            raise ConfigError(f"grid key {dotted!r} does not address a parameter block")
        node[k] = node = dict(node[k])  # a copy, set in its parent copy
    node[last] = value
    return out


def _flatten(results: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in results.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                flat[f"{name}[{i}]"] = v
        else:
            flat[name] = value
    return flat


def _write_text(path: Path, text) -> None:
    """Write one output file from its text, or from its pieces of text in order,
    and name it on stdout; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise ConfigError(f"output file {str(path)!r} cannot be written: {exc}") from None
    print(f"wrote {path}")


def _write_summary(out_dir: Path, config: dict, results: dict, started: float) -> None:
    """Write ``summary.json``, last: it exists only for a complete run or sweep."""
    summary = {
        "scenario": config["scenario"],
        "inputs": config,
        "results": _round_tree(results),
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    _write_text(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _series_pieces(columns, table: np.ndarray, fmt: str):
    """The text of ``timeseries.csv`` (``timeseries.json`` for ``fmt`` "json")
    for the (n_times, n_cols) series ``table``, in pieces; every cell printed
    with ``%.12g``. A CSV piece is a block of ``SERIES_BLOCK_ROWS`` rows, one
    string operation, so one block's floats are alive at a time. JSON is one
    piece: a record per row of the floats the cells read back to, in which a
    repeated column keeps its first place and its last value, as in a dict.
    """
    if fmt == "json":
        records = [dict(zip(columns, map(_round12, row))) for row in table.tolist()]
        yield json.dumps(records, indent=2) + "\n"
        return
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    yield _csv_text([columns])
    for start in range(0, table.shape[0], SERIES_BLOCK_ROWS):
        block = table[start : start + SERIES_BLOCK_ROWS]
        yield row * block.shape[0] % tuple(block.ravel().tolist())


def _cpus() -> int:
    """The CPUs this process may run on: its affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _task_map(workers: int, chunksize: int = 1):
    """The map that runs a stage's tasks and yields their results in order: the
    builtin map for one worker, else the map of a pool of ``workers`` processes
    that sends its tasks out ``chunksize`` at a time.

    Each worker runs one BLAS thread. A set call in a freshly forked worker
    starts OpenBLAS's server thread, which busy-waits beside the worker's own,
    so no worker makes one: the parent pins its copies to one thread while its
    pool runs, and the workers fork with that count. The parent's counts come
    back when the block closes. The pool is shut down, its workers joined,
    before the block is left, also when a task raises.
    """
    if workers <= 1:
        yield map
        return
    with one_thread(), ProcessPoolExecutor(max_workers=workers) as pool:
        yield functools.partial(pool.map, chunksize=chunksize)


def _run_point(scenario: str, point: dict, seed, workers: int = 1):
    """Run a point's results stage in at most ``workers`` processes (one for a
    sweep point, so that pools never nest): (its results, its series stage as
    a function of nothing, or None). ``seed``, None for a scenario that reads
    none, is the one the point was built with, and its model holds it."""
    entry = _RUNNERS[scenario]
    results, carried = entry.results(point, workers)
    return results, entry.series and functools.partial(entry.series, point, carried)


def _checked_config(doc: dict, *, sweep: bool):
    """(inputs, tasks): every check made and every point built, before any work.
    A run is a one-point grid: its one task sets no grid key and has the run's
    own seed."""
    schema = {**_CONFIG, "grid": (REQUIRED, _grid)} if sweep else _CONFIG
    inputs = _block(schema, doc, "config")[0]
    if sweep:
        return inputs, list(_sweep_tasks(inputs))
    scenario, seed = inputs["scenario"], inputs.get("seed")
    inputs["parameters"], point = _check_parameters(scenario, inputs["parameters"], seed)
    return inputs, [(scenario, {}, point, seed)]


def _out_dir(config: dict) -> Path:
    """The output directory of a checked config, created."""
    out_dir = Path(config["output"]["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise ConfigError(f"config.output.dir {str(out_dir)!r} cannot be created: {exc}") from None
    return out_dir


def cmd_run(args) -> int:
    started = time.monotonic()
    config, [(scenario, _, point, seed)] = _checked_config(_load_config(args), sweep=False)
    out_dir = _out_dir(config)
    results, series = _run_point(scenario, point, seed, _cpus())
    if series is not None:
        fmt = config["output"]["format"]
        _write_text(out_dir / f"timeseries.{fmt}", _series_pieces(*series(), fmt))
    _write_summary(out_dir, config, results, started)
    return EXIT_OK


def _sweep_tasks(config: dict):
    """Grid points as ``_sweep_worker`` tasks: (scenario, point, built point, seed).

    Each point is laid over the ``parameters`` block as given, then checked
    and built once, on its own, so the block may leave out keys the grid sets,
    and values derived from swept keys follow the grid. A point's seed is
    SeedSequence((master seed, index)), so no stream is shared, for a scenario
    whose build reads one; None for the others.
    """
    grid = config["grid"]
    keys = sorted(grid)
    base_seed = config.get("seed", 0)
    seeded = _RUNNERS[config["scenario"]].seeded
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        point = dict(zip(keys, combo))
        params = config["parameters"]
        for key, value in point.items():
            params = _set_dotted(params, key, value)
        seed = (int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])
                if seeded else None)
        try:
            _, built = _check_parameters(config["scenario"], params, seed)
        except ValidationError as exc:
            raise ConfigError(f"grid point {point}: {exc}") from None
        yield config["scenario"], point, built, seed


def _sweep_worker(task, series: bool):
    """A sweep point's results. Its series stage runs too when ``series``,
    though no sweep writes a series."""
    scenario, point, built, seed = task
    try:
        results, stage = _run_point(scenario, built, seed)
        if series and stage is not None:
            stage()
    except SpinKineticsError as exc:  # same class, so the same exit code
        raise type(exc)(f"grid point {point}: {exc}") from None
    return results


def cmd_sweep(args) -> int:
    started = time.monotonic()
    config, tasks = _checked_config(_load_config(args), sweep=True)
    out_dir = _out_dir(config)
    cpus = _cpus()
    # a fork pool starts every worker at once, however few points there are
    workers = min(args.workers or cpus, len(tasks), cpus)
    # the series stage still runs: the traced sweep of bench/run.py requires
    # propagate to fire
    worker = functools.partial(_sweep_worker, series=True)
    # multiprocessing.Pool's default: about four chunks per worker, not one
    # round trip per point
    with _task_map(workers, max(1, len(tasks) // (4 * workers))) as point_map:
        all_results = list(point_map(worker, tasks))

    grid_keys = sorted(config["grid"])
    flat_rows = [_flatten(r) for r in all_results]
    # a key any row has, blank where missing, unless another row expands it
    # (no bare ``yields`` beside ``yields.total``)
    keys = set().union(*flat_rows)
    value_keys = sorted(k for k in keys if not any(o.startswith((k + ".", k + "[")) for o in keys))
    rows = ([_fmt(combo[k]) for k in grid_keys] + [_fmt(flat.get(k)) for k in value_keys]
            for (_scenario, combo, _point, _seed), flat in zip(tasks, flat_rows))
    _write_text(out_dir / "sweep.csv", _csv_text(itertools.chain([grid_keys + value_keys], rows)))
    _write_summary(out_dir, config, {"n_points": len(tasks)}, started)
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
    except NumericalError as exc:
        _error_line("numerical", exc)
        return EXIT_NUMERICAL
    except SpinKineticsError as exc:
        _error_line("validation", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
