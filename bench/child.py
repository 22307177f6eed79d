"""One workload invocation in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON  (with the repo's src on PYTHONPATH)

SPEC_JSON names the workload, its inputs, the output and report paths and the
monotonic time at which the parent spawned this process. ``setup_s`` runs from
that spawn time until spinkinetics is imported and the inputs are ready; the
timed part that follows is the CLI call or the library calls. The report
(timings, rusage, outputs for the correctness gate, environment and, when
traced, the per-layer metrics) is written as JSON to the spec's report path.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spinkinetics.cli  # imports the whole package
from spinkinetics import bloch_redfield as br
from spinkinetics import liouville as lv

import tracer


def _dim_tag(args, kwargs):
    h = kwargs.get("h", args[1] if len(args) > 1 else None)
    return f"N{h.dim}"


def _steps(args, kwargs, result):
    return {"liouville.propagate.steps": int(np.size(result.times))}


def _components(args, kwargs, result):
    return {"bloch_redfield.components": len(result)}


#: every layer boundary the traced run wraps, by module and attribute
TARGETS = [
    tracer.Target("spinkinetics.cli", "main", "cli.main"),
    tracer.Target("spinkinetics.liouville", "propagate", "liouville.propagate", measure=_steps),
    tracer.Target("spinkinetics.liouville", "expm", "liouville.expm", timed=False),
    tracer.Target("spinkinetics.liouville", "DensityMatrix.__init__", "liouville.density_matrix",
                  timed=False, calls="liouville.density_matrix.count"),
    tracer.Target("spinkinetics.liouville", "infinite_time_integral",
                  "liouville.infinite_time_integral"),
    tracer.Target("spinkinetics.bloch_redfield", "relaxation_supermatrix",
                  "bloch_redfield.relaxation_supermatrix", tag=_dim_tag),
    tracer.Target("spinkinetics.bloch_redfield", "frequency_decompose",
                  "bloch_redfield.frequency_decompose", timed=False, measure=_components),
    tracer.Target("spinkinetics.bloch_redfield", "validity_check", "bloch_redfield.validity_check"),
    tracer.Target("spinkinetics.three_state", "closed_form_rates", "three_state.closed_form_rates"),
    tracer.Target("spinkinetics.three_state", "build_bath", "three_state.build_bath"),
    tracer.Target("spinkinetics.radical_pair", "coherence_decay_rate",
                  "radical_pair.coherence_decay_rate"),
    tracer.Target("spinkinetics.radical_pair", "recombination_yields",
                  "radical_pair.recombination_yields"),
    tracer.Target("spinkinetics.stochastic", "perturbative_amplitudes",
                  "stochastic.perturbative_amplitudes"),
    tracer.Target("spinkinetics.stochastic", "simulate_noise", "stochastic.simulate_noise"),
    tracer.Target("spinkinetics.stochastic", "correlation_spectrum",
                  "stochastic.correlation_spectrum"),
    tracer.Target("spinkinetics.stochastic", "extract_rates", "stochastic.extract_rates"),
    tracer.Target("spinkinetics.stochastic", "closed_loop_check", "stochastic.closed_loop_check"),
]


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h / np.linalg.norm(h, 2)


def ladder_inputs(p):
    """Raw arrays for the spin ladder, drawn from the workload seed."""
    rng = np.random.default_rng(p["seed"])
    systems = []
    for n in p["sizes"]:
        h = p["h_scale_rad_s"] * _random_hermitian(rng, n)
        couplings = [_random_hermitian(rng, n) for _ in range(p["n_couplings"])]
        amplitudes = p["amplitude_rad2_s2"] * (1.0 + 0.2 * rng.random(p["n_couplings"]))
        top = np.linalg.eigh(h)[1][:, -1]
        systems.append((n, h, couplings, amplitudes, top))
    return systems


def run_ladder(p, systems):
    """relaxation_supermatrix -> validity_check -> assemble_generator -> propagate."""
    results = []
    for n, h, couplings, amplitudes, top in systems:
        basis = lv.BasisLabel(tuple(f"s{i}" for i in range(n)))
        hop = lv.OperatorMatrix(basis, h, hermitian=True)
        bath = br.BathSpec.uncorrelated(
            [br.CouplingOperator(f"c{k}", lv.OperatorMatrix(basis, c, hermitian=True), k)
             for k, c in enumerate(couplings)],
            [br.Lorentzian(amplitude=float(a), tau_c=p["tau_c_s"]) for a in amplitudes],
            beta=p["beta_s"],
        )
        relax = br.relaxation_supermatrix(bath, hop)
        validity = br.validity_check(relax, p["tau_c_s"])
        gen = lv.assemble_generator(hop, relaxers=[relax])
        times = np.linspace(0.0, p["t_max_s"], p["n_steps"] + 1)[1:]
        prop = lv.propagate(gen, lv.DensityMatrix.pure(basis, top), times)
        results.append((n, relax, validity, prop))
    return results


def ladder_outputs(results):
    out = []
    for n, relax, validity, prop in results:
        r = relax.matrix
        diagonal = [i * n + i for i in range(n)]
        out.append({
            "n": n,
            "trace_flux_residual": float(np.abs(r[diagonal, :].sum(axis=0)).max()),
            "max_abs_r": float(np.abs(r).max()),
            "validity_ratio": float(validity.ratio),
            "trace_error": float(np.abs(prop.traces() - 1.0).max()),
        })
    return out


def cli_argv(spec):
    kind = "sweep" if spec["workload"] == "three-state-sweep" else "run"
    argv = [kind, spec["config"], "--out-dir", spec["out_dir"]]
    if spec.get("workers") is not None:
        argv += ["--workers", str(spec["workers"])]
    if spec.get("cli_seed") is not None:
        argv += ["--seed", str(spec["cli_seed"])]
    return argv


def environment():
    import multiprocessing
    import os
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec):
    ladder = spec["workload"] == "spin-ladder"
    systems = ladder_inputs(spec["ladder"]) if ladder else None
    argv = None if ladder else cli_argv(spec)
    setup_s = time.monotonic() - spec["spawned"]

    tr = None
    if spec["trace"]:
        tr = tracer.Tracer("spinkinetics")
        tr.install(TARGETS)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    if ladder:
        results = run_ladder(spec["ladder"], systems)
        code = 0
    else:
        code = spinkinetics.cli.main(argv)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    if tr is not None:
        tr.restore()

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "outputs": ladder_outputs(results) if ladder else None,
        "environment": environment(),
        "layers": tr.metrics() if tr is not None else None,
    }
    Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
