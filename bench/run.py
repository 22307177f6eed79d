"""spinkinetics benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each invocation of the program runs in a fresh
interpreter (bench/child.py) with src on PYTHONPATH, so import cost shows in
``setup_s``. Thread variables such as OPENBLAS_NUM_THREADS are passed through
as found, never set. The last stdout line is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment.

--trace 0 repeats the workload while another invocation fits in S seconds
and reports medians of the end-to-end metrics. --trace 1 runs the tracer
self-test, measures import attribution with ``-X importtime`` in its own
process, then one traced and one untraced invocation of the same
configuration, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: metric names, units and bounds: the result line reports exactly these
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CHILD_TIMEOUT_S = 150.0
#: the run gives up on starting new work this long before the 180 s limit
HARD_LIMIT_S = 165.0

_EVERYWHERE = ["cli.import_s", "liouville.import_s", "stochastic.import_s", "process.cpu_s"]
_ASSEMBLY = ["bloch_redfield.relaxation_supermatrix.self_s",
             "bloch_redfield.frequency_decompose.calls", "bloch_redfield.components",
             "bloch_redfield.validity_check.self_s"]
_PROPAGATION = ["liouville.propagate.calls", "liouville.propagate.self_s",
                "liouville.expm.calls", "liouville.density_matrix.count"]
#: metrics that must be non-zero on each workload; a silent one is an error
EXPECTED = {
    wl.SWEEP: _EVERYWHERE + _ASSEMBLY + _PROPAGATION + [
        "cli.main.self_s", "cli.output_bytes",
        "three_state.closed_form_rates.self_s", "three_state.build_bath.self_s"],
    wl.ORACLE: _EVERYWHERE + _ASSEMBLY + [
        "cli.main.self_s", "cli.output_bytes",
        "stochastic.perturbative_amplitudes.self_s", "stochastic.simulate_noise.self_s",
        "stochastic.correlation_spectrum.self_s", "stochastic.extract_rates.self_s",
        "stochastic.closed_loop_check.self_s"],
    wl.LADDER: _EVERYWHERE + _ASSEMBLY + _PROPAGATION + [
        "bloch_redfield.relaxation_supermatrix.self_s.N4",
        "bloch_redfield.relaxation_supermatrix.self_s.N8",
        "bloch_redfield.relaxation_supermatrix.self_s.N16"],
    wl.RADICAL_PAIR: _EVERYWHERE + _PROPAGATION + [
        "cli.main.self_s", "cli.output_bytes",
        "liouville.infinite_time_integral.self_s",
        "radical_pair.coherence_decay_rate.self_s", "radical_pair.recombination_yields.self_s"],
}
IMPORT_MODULES = {"cli.import_s": "spinkinetics.cli",
                  "liouville.import_s": "spinkinetics.liouville",
                  "stochastic.import_s": "spinkinetics.stochastic"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, child crash, timeout)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list, deadline: float) -> tuple:
    """Run argv in its own session; on timeout or interrupt kill its whole group."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic())))
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"timed out: {' '.join(argv)}") from None
        raise
    return proc.returncode, err.decode("utf-8", "replace")


class Invoker:
    """Writes specs, starts child processes and collects their reports."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.config = None
        if workload == wl.SWEEP:
            self.config = wl.write_config(work / "config.json", wl.sweep_config(seed))
        elif workload == wl.ORACLE:
            self.config = wl.write_config(work / "config.json", wl.oracle_config())
        elif workload == wl.RADICAL_PAIR:
            self.config = wl.write_config(work / "config.json", wl.radical_pair_config(seed))

    def invoke(self, *, workers=None, trace=False) -> dict:
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        spec = {
            "workload": self.workload,
            "config": self.config,
            "out_dir": str(out_dir),
            "workers": workers,
            "cli_seed": self.seed if self.workload == wl.ORACLE else None,
            "ladder": wl.ladder_params(self.seed) if self.workload == wl.LADDER else None,
            "trace": trace,
            "report": str(self.work / f"report{self.count}.json"),
        }
        spec_path = self.work / f"spec{self.count}.json"
        spec["spawned"] = time.monotonic()
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code, err = _spawn([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                           self.deadline)
        report_path = Path(spec["report"])
        if code != 0 or not report_path.exists():
            sys.stderr.write(err)
            return {"ok": False, "errors": [f"child exited {code}"], "out_dir": out_dir}
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["out_dir"] = out_dir
        report["errors"] = [] if report["exit_code"] == 0 else [f"cli exit {report['exit_code']}"]
        if not report["errors"]:
            report["errors"] = self.gate(report)
        report["ok"] = not report["errors"]
        if report["errors"]:
            sys.stderr.write(json.dumps({"gate": self.workload, "errors": report["errors"][:5]}) + "\n")
        return report

    def gate(self, report: dict) -> list:
        out = report["out_dir"]
        if self.workload == wl.SWEEP:
            return wl.gate_sweep_pass(out)
        if self.workload == wl.ORACLE:
            return wl.gate_oracle(out)
        if self.workload == wl.LADDER:
            return wl.gate_ladder(report["outputs"])
        return wl.gate_radical_pair(out)


def _pair_gate(reference: dict, report: dict) -> None:
    """Sweep passes at any worker count must write the same sweep.csv."""
    if reference is not report and reference["ok"] and report["ok"]:
        report["errors"] += wl.gate_sweep_pair(reference["out_dir"], report["out_dir"])
        report["ok"] = not report["errors"]
        if report["errors"]:
            sys.stderr.write(json.dumps({"gate": wl.SWEEP, "errors": report["errors"]}) + "\n")


def _variant(workload: str, index: int) -> str:
    return "serial" if workload == wl.SWEEP and index % 2 == 0 else "default"


def measure(inv: Invoker, seconds: float) -> tuple:
    """Invoke while another invocation fits in the budget; return medians.

    The sweep alternates --workers 1 with the default worker count, starting
    serially because a serial pass is shorter and noisier, and every pass must
    write the same sweep.csv as the first good one.
    """
    started = time.monotonic()
    reports = []
    reference = None
    longest = {}  # per variant: predicts whether the next invocation fits
    while True:
        variant = _variant(inv.workload, len(reports))
        t0 = time.monotonic()
        report = inv.invoke(workers=1 if variant == "serial" else None)
        report["variant"] = variant
        if inv.workload == wl.SWEEP:
            reference = reference or (report if report["ok"] else None)
            if reference is not None:
                _pair_gate(reference, report)
        reports.append(report)
        longest[variant] = max(longest.get(variant, 0.0), time.monotonic() - t0)
        following = _variant(inv.workload, len(reports))
        upcoming = longest.get(following, max(longest.values()))
        now = time.monotonic()
        if now - started + upcoming > seconds or now + upcoming > inv.deadline:
            break
    good = [r for r in reports if r["ok"]]
    default = [r for r in good if r["variant"] == "default"]
    if not default:
        raise BenchError("no invocation at the default settings succeeded")
    serial = [r for r in good if r["variant"] == "serial"] or default
    points = wl.POINTS[inv.workload]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "wall_s": statistics.median(r["wall_s"] for r in default),
        "points_per_s": statistics.median(points / r["wall_s"] for r in default),
        "points_per_s.serial": statistics.median(points / r["wall_s"] for r in serial),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in default),
    }
    samples = {"invocations": len(reports),
               "wall_s": [round(r["wall_s"], 4) for r in default],
               "serial_wall_s": [round(r["wall_s"], 4) for r in serial if r["variant"] == "serial"],
               "setup_s": [round(r["setup_s"], 4) for r in good]}
    return reports, metrics, good[0]["environment"], samples


def import_times(deadline: float) -> dict:
    """Cumulative import time per module from -X importtime, in its own process."""
    argv = [sys.executable, "-X", "importtime", "-c", "import spinkinetics.cli"]
    code, err = _spawn(argv, deadline)
    if code != 0:
        raise BenchError(f"import failed:\n{err}")
    cumulative = {}
    for line in err.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_MODULES.items()}


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob("*") if p.is_file()) if out_dir.exists() else 0


def traced(inv: Invoker) -> tuple:
    """Self-test, import attribution, then a traced and an untraced invocation."""
    selftest.run()
    imports = import_times(inv.deadline)
    # pool workers would take their spans with them: trace the sweep serially
    workers = 1 if inv.workload == wl.SWEEP else None
    traced_run = inv.invoke(workers=workers, trace=True)
    plain = inv.invoke(workers=workers)
    reports = [traced_run, plain]
    if inv.workload == wl.SWEEP:
        _pair_gate(traced_run, plain)
    if "layers" not in traced_run or "wall_s" not in plain:
        raise BenchError("the traced or the untraced invocation failed")
    layers = dict(traced_run["layers"])
    steps = layers.get("liouville.propagate.steps", 0)
    layers["liouville.expm.hit_ratio"] = (
        1.0 - layers.get("liouville.expm.calls", 0) / steps if steps else 0.0)
    layers["cli.output_bytes"] = _output_bytes(traced_run["out_dir"])
    layers["process.cpu_s"] = plain["cpu_s"]
    layers["trace.overhead_s"] = traced_run["wall_s"] - plain["wall_s"]
    layers.update(imports)
    tracer.require_fired(layers, EXPECTED[inv.workload])
    metrics = {m["name"]: layers.get(m["name"], 0) for m in SPEC["per_layer"]}
    samples = {"traced_wall_s": traced_run["wall_s"], "untraced_wall_s": plain["wall_s"]}
    return reports, metrics, traced_run["environment"], samples


def _result_metrics(values: dict, section: str) -> dict:
    """Attach units from BENCHMARK.json; every listed metric must be measured."""
    missing = [m["name"] for m in SPEC[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinkinetics" / "__init__.py").is_file():
        print(f"spinkinetics sources not found under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so _spawn kills the running child group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + HARD_LIMIT_S
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inv = Invoker(args.workload, args.seed, work, deadline)
        if args.trace:
            reports, values, env, samples = traced(inv)
        else:
            reports, values, env, samples = measure(inv, args.seconds)
        metrics = _result_metrics(values, "per_layer" if args.trace else "end_to_end")
    except (BenchError, tracer.TracerError, selftest.SelfTestError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failed = sum(not r["ok"] for r in reports)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "samples": samples}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
