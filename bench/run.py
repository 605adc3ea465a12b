"""srenyi benchmark: end-to-end metrics per workload, or a traced run of
per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload spectrum-large --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py`` for inputs and oracles):

* ``spectrum-large``       ``srenyi spectrum`` as a subprocess, n=10^5
* ``invert-recover``       in-process ``recover_distribution_probe``, n=200
* ``divergence-shuffled``  ``srenyi divergence`` as a subprocess, n=10^4
* ``batch-spectra``        in-process ``sample_spectrum``, n in [2, 50]

Only the first two are listed in BENCHMARK.json; the other two run the same
way but are too unsteady on a host whose speed drifts (see their classes).

Load is a closed loop with one client: each op starts after the previous one
returns, until ``--seconds`` have passed.  Every op's output is checked
against a numpy oracle; a mismatch, a nonzero exit or an exception counts as
a failed op.

The benchmark and every process it starts run pinned to one CPU, with the
math libraries single-threaded.  Every time it reports is at reference
speed: the op's wall time scaled by how fast a fixed reference block ran on
that CPU just before and just after the op (see ``reference.py``), because
on a shared host the speed of a vCPU drifts by up to a factor of two over
minutes.  The raw wall times are printed above the result line.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
set-ups, each generating and writing the inputs and running one op on a tiny
input in a fresh interpreter, import included), ``ops_per_s`` (completed ops
per second of op time), ``latency_p50_ms``, ``latency_tail_ms`` (the highest
percentile with at least ten samples beyond it, or the median when there
are fewer than 22 ops), ``success_rate`` (one minus the error rate,
so that the metric is never 0) and ``peak_rss_mb`` (of the op's own
process: the child for the CLI workloads, this process otherwise).

``--trace 1`` prints the per-layer metrics.  It probes import time with
``python -X importtime -c "import srenyi.cli"`` in fresh interpreters, then
runs every op twice in this process, once plain and once with the
:class:`tracing.Tracer` wrappers installed; CLI ops go through
``srenyi.cli.main(argv)`` with stdout captured.  Layer metrics are per
traced op; ``trace.overhead_ratio`` is traced over plain op time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics with their units, the workload's provenance and, for a traced run,
the call-structure check.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy loads here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
IMPORT_PROBES = 3
OP_TIMEOUT_S = 100
TAIL_BEYOND = 10

# Which end-to-end metric, on which workload, each layer metric should move.
# A layer metric should leave the workloads not named for it unchanged.
LAYER_TARGETS = {
    "import.*": "latency_p50_ms on spectrum-large and divergence-shuffled; setup_s elsewhere",
    "cli.read_measure.ms, cli.parse_orders.ms, cli.output.ms": "latency_p50_ms on spectrum-large",
    "measures.normalize.*": "latency_p50_ms on spectrum-large",
    "measures.aligned_weights.*, measures.ratio.*": "latency_p50_ms on divergence-shuffled only",
    "means.log_power_mean.*, means.branch.*": "ops_per_s on batch-spectra and invert-recover",
    "info.*": "spectrum-large and batch-spectra; info.shifted_divergence.* on divergence-shuffled",
    "spectrum.sample_spectrum.self_ms, spectrum.validate.ms": "batch-spectra",
    "spectrum.invert_probability.ms, spectrum.pi_evals_per_inversion.*, "
    "spectrum.invert_snapped, spectrum.invert_rel_miss": "ops_per_s on invert-recover only",
}

# Runs each command from a helper process started while this one is still
# small: Linux carries a parent's peak RSS into its child's ru_maxrss across
# fork and exec, so a child started from here after numpy and the inputs
# are loaded would report this process's peak instead of its own.
_LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, env=job["env"])
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}), flush=True)
"""


class Launcher:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("RENYI_BASE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> tuple[int, float, int, str, str]:
        """(exit code, wall seconds, child peak RSS in KiB, stdout, stderr)."""
        out, err = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        job = {"argv": argv, "env": self.env, "stdout": str(out), "stderr": str(err), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (
            reply["code"],
            reply["wall_s"],
            reply["maxrss_kb"],
            out.read_text(encoding="utf-8"),
            err.read_text(encoding="utf-8"),
        )

    def srenyi(self, argv: list[str]):
        return self.run([sys.executable, "-m", "srenyi", *argv])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()


def import_srenyi():
    """Import the package under test from ``src/`` (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("RENYI_BASE", None)
    srenyi = importlib.import_module("srenyi")
    for name in ("cli", "measures", "means", "info", "spectrum"):
        importlib.import_module(f"srenyi.{name}")
    return srenyi


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU: a vCPU's
    speed changes independently of its sibling's, and the reference block
    only tells the speed of the CPU it ran on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class ReferenceClock:
    """Scales wall times to reference speed.  ``scale`` times the reference
    block again and returns the factor for the interval since the previous
    call, from the mean of the block's time at both ends of it."""

    def __init__(self):
        import reference  # loads numpy, so not before the launcher starts

        self.nominal_s = reference.NOMINAL_S
        self.measure = reference.reference_seconds
        self.measure()  # warm-up, untimed
        self.last = self.measure()

    def scale(self) -> float:
        now = self.measure()
        factor = self.nominal_s / (0.5 * (self.last + now))
        self.last = now
        return factor


def set_up(workload_cls, seed: int, workdir: Path, launcher: Launcher, clock: ReferenceClock):
    """Generate and write the inputs, then run one tiny op in a fresh
    interpreter; returns the workload and the seconds taken, at reference
    speed."""
    clock.scale()
    start = perf_counter()
    workload = workload_cls(seed, workdir)
    generated = perf_counter() - start
    code, wall, _, _, err = launcher.srenyi(workload.warm_argv())
    if code != 0:
        raise RuntimeError(f"set-up op failed with exit code {code}: {err.strip()}")
    return workload, (generated + wall) * clock.scale()


class Loop:
    """Closed-loop op records: latencies, failures, and the first few reasons."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0

    def record(self, seconds: float, problem: str | None) -> None:
        self.latencies.append(seconds)
        if problem is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"op {len(self.latencies) - 1} failed: {problem}", file=sys.stderr)


def check(workload, i: int, result) -> str | None:
    try:
        return workload.check(i, result)
    except (ValueError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def timed_call(workload, i: int):
    start = perf_counter()
    try:
        result, problem = workload.call(i), None
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        result, problem = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if problem is None:
        problem = check(workload, i, result)
    return elapsed, problem


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it.  Under 22 ops no percentile above the
    median has ten samples beyond it, and the tail is the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k < n // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def run_plain(workload_cls, args, workdir: Path, launcher: Launcher):
    clock = ReferenceClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, seconds = set_up(workload_cls, args.seed, workdir, launcher, clock)
        setups.append(seconds)
    loop, walls, peak_kb = Loop(), [], 0
    if workload.kind == "inproc":
        workload.prepare(import_srenyi())
        timed_call(workload, 0)  # warm-up, untimed
    deadline = perf_counter() + args.seconds
    i = 0
    clock.scale()
    while perf_counter() < deadline:
        if workload.kind == "cli":
            code, wall, rss_kb, out, err = launcher.srenyi(workload.argv(i))
            peak_kb = max(peak_kb, rss_kb)
            problem = check(workload, i, (code, out))
            if code != 0:
                problem = f"{problem}: {err.strip()[-300:]}"
        else:
            wall, problem = timed_call(workload, i)
        walls.append(wall)
        loop.record(wall * clock.scale(), problem)
        i += 1
    if workload.kind == "inproc":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(loop.latencies)
    completed = attempted - loop.failed
    tail, tail_pct, beyond = latency_tail(loop.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(loop.latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "success_rate": (completed / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}: " + ", ".join(f"{s:.4f}" for s in setups),
        "latency_p50_ms": f"{attempted} ops; wall p50 {1e3 * statistics.median(walls):.1f} ms, "
        f"{completed / sum(walls):.4g} ops per wall second",
        "latency_tail_ms": f"p{tail_pct:.2f} of {attempted} ops, {beyond} beyond",
        "success_rate": f"error_rate {loop.failed / attempted:g} = {loop.failed} failed / {attempted} attempted",
    }
    return workload, metrics, notes, attempted, loop.failed


def import_probe(launcher: Launcher) -> dict[str, float]:
    """Cumulative import milliseconds of srenyi.cli, scipy.special and numpy
    in a fresh interpreter, from ``-X importtime``; 0 for a module not
    imported."""
    mark = "--srenyi-bench-import--"
    code = f"import sys; sys.stderr.write({mark!r} + '\\n'); import srenyi.cli"
    rc, _, _, _, err = launcher.run([sys.executable, "-X", "importtime", "-c", code])
    if rc != 0:
        raise RuntimeError(f"import probe failed with exit code {rc}: {err.strip()[-300:]}")
    cumulative_ms = {}
    for line in err.split(mark, 1)[1].splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, module = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                cumulative_ms[module.strip()] = int(cumulative) / 1e3
    return {
        "import.srenyi_cli_ms": cumulative_ms.get("srenyi.cli", 0.0),
        "import.scipy_special_ms": cumulative_ms.get("scipy.special", 0.0),
        "import.numpy_ms": cumulative_ms.get("numpy", 0.0),
    }


def run_traced(workload_cls, args, workdir: Path, launcher: Launcher):
    from tracing import Tracer

    workload = workload_cls(args.seed, workdir)
    import_probe(launcher)  # warms the bytecode and file caches
    probes = [import_probe(launcher) for _ in range(IMPORT_PROBES)]
    srenyi = import_srenyi()
    workload.prepare(srenyi)
    timed_call(workload, 0)  # warm-up, untimed
    tracer, plain, traced = Tracer(), Loop(), Loop()
    deadline = perf_counter() + args.seconds
    i = 0
    while perf_counter() < deadline:
        plain.record(*timed_call(workload, i))
        with tracer.installed(srenyi):
            traced.record(*timed_call(workload, i))
        i += 1
    metrics = {name: statistics.median(p[name] for p in probes) for name in probes[0]}
    metrics.update(tracer.per_op(len(traced.latencies)))
    snapped, rel_miss = workload.defect_counts() if hasattr(workload, "defect_counts") else (0, 0)
    metrics["spectrum.invert_snapped"] = float(snapped)
    metrics["spectrum.invert_rel_miss"] = float(rel_miss)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    metrics = {name: (value, layer_unit(name)) for name, value in metrics.items()}
    notes = {"trace.overhead_ratio": f"{len(traced.latencies)} traced and {len(plain.latencies)} plain ops"}
    print_structure(workload, tracer)
    attempted = len(plain.latencies) + len(traced.latencies)
    return workload, metrics, notes, attempted, plain.failed + traced.failed


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes_computed"):
        return "B"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def print_structure(workload, tracer) -> None:
    """Compare traced call counts with the call structure of the code when
    the benchmark was written: one normalize per finite order in
    sample_spectrum, and two label alignments per shifted_divergence (one
    per order).  A refactor may change this on purpose, so it is reported,
    not gated."""
    calls = tracer.calls
    checks = []
    if calls["spectrum.sample_spectrum"]:
        finite = sum(1 for r in workload.grid if math.isfinite(r))
        checks.append(("measures.normalize per finite order per sample_spectrum",
                       calls["measures.normalize"] / (calls["spectrum.sample_spectrum"] * finite), 1.0))
    if calls["info.shifted_divergence"]:
        checks.append(("measures.aligned_weights per shifted_divergence",
                       calls["measures.aligned_weights"] / calls["info.shifted_divergence"], 2.0))
    for label, seen, expected in checks:
        verdict = "as written" if seen == expected else "CHANGED"
        print(f"structure: {label} = {seen:g} (expected {expected:g}, {verdict})")


def provenance(workload, seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "input": workload.sizes,
        "load": "closed loop, one client",
        "layer_targets": LAYER_TARGETS,
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.workload_cls = WORKLOADS[args.workload]
    return args


def main(argv=None) -> int:
    if not (SRC / "srenyi" / "__init__.py").is_file():
        print(f"bench: no srenyi sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    cpu = pin_to_one_cpu()
    # the launcher starts first, while this process has loaded nothing large
    launcher = Launcher(workdir)
    try:
        args = parse_args(argv)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  cpu {cpu}")
        run = run_traced if args.trace else run_plain
        workload, metrics, notes, attempted, failed = run(args.workload_cls, args, workdir, launcher)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    print("provenance " + json.dumps(provenance(workload, args.seed)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
