#!/usr/bin/env python3
"""witness-lab benchmark: closed loop, one client, in-process CLI calls.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each operation is one call to ``witness_lab.cli.main([cmd, "--config", cfg,
"--out", csv])`` on a freshly generated config, written before the clock
starts. Operations repeat until their summed wall time reaches ``--seconds``.
Every operation's output is checked, and a seeded sample is also checked
against the dense library route and the Schmidt oracle (``checks.py``), all
outside the timed region.

``--trace 0`` reports the gated end-to-end metrics: ops_per_s, setup_s
(median of fresh processes timed from before ``import witness_lab`` to the
end of one operation) and peak_rss_mb. op_p50_s, and op_p90_s when a run has
at least P90_MIN_OPS operations, go to the human-readable lines and the
result file. ``--trace 1`` alternates untraced and traced runs of
each config and reports per-layer metrics per operation plus
trace.overhead_frac (``tracing.py``).

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. A result file with machine facts, per-op times and problems
goes to ``perfbench/out/``. OpenBLAS keeps its default thread count, which
the result file records.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.tracing import PER_LAYER_METRICS, Span, Tracer, per_op_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, encode  # noqa: E402

SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
SAMPLE_RATE = 0.1  # share of timed ops also checked against the library route
DEADLINE_S = 140.0  # no operation starts later than this after the run began

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = dict(PER_LAYER_METRICS, **{"trace.overhead_frac": "ratio"})
# Latency percentiles are printed and recorded but not gated. The host's
# speed shifts between levels for tens of seconds at a time, so the median of
# a run's ~20 operations flips between levels, while ops_per_s (one over the
# mean) blends them. op_p90_s also needs ten samples beyond it.
P90_MIN_OPS = 100


def _write_config(workload: Workload, seed: int, index: int, workdir: Path) -> tuple[dict, list[str], Path]:
    doc = workload.config(seed, index)
    cfg = workdir / "config.json"
    csv = workdir / "out.csv"
    cfg.write_bytes(encode(doc))
    csv.unlink(missing_ok=True)
    return doc, [workload.command, "--config", str(cfg), "--out", str(csv)], csv


def _call(cli, argv: list[str], csv: Path) -> tuple[float, int | str, str]:
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = csv.read_text(encoding="utf-8") if csv.exists() else ""
    csv.unlink(missing_ok=True)
    return elapsed, code, text


def _setup_probe(workload: Workload, seed: int, workdir: Path) -> None:
    """Child process: time ``import witness_lab`` plus one operation."""
    _, argv, csv = _write_config(workload, seed, -1, workdir)
    start = time.perf_counter()
    from witness_lab import cli

    _, code, text = _call(cli, argv, csv)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "code": code, "csv": text}))


class Tally:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def account(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)[:500]}")


def _measure_setup(workload: Workload, seed: int, workdir: Path, tally: Tally, deadline: float) -> float:
    from perfbench.checks import check_output

    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload.name,
             "--seed", str(seed), "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()), cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        doc = workload.config(seed, -1)
        tally.account(f"setup probe {k}", check_output(workload.command, doc, probe["code"], probe["csv"]))
        times.append(probe["setup_s"])
    return statistics.median(times)


def _measure_ops(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 tally: Tally, deadline: float):
    """Timed loop. Returns untraced-op times, traced-op times and the tracer."""
    from perfbench.checks import check_against_library, check_output
    from witness_lab import cli

    sampler = random.Random(f"witness-lab-bench/sample/{workload.name}/{seed}")
    tracer = Tracer() if trace else None

    def checked(label, doc, code, text, library):
        problems = check_output(workload.command, doc, code, text)
        if library and not problems:
            try:
                problems = check_against_library(workload.command, doc, text)
            except Exception as exc:  # the library route itself failed on this input
                problems = [f"library route raised {type(exc).__name__}: {exc}"]
        tally.account(label, problems)

    doc, argv, csv = _write_config(workload, seed, -1, workdir)
    _, code, text = _call(cli, argv, csv)
    checked("warm-up", doc, code, text, library=True)

    plain, traced = [], []
    index = 0
    while sum(plain) + sum(traced) < seconds and time.perf_counter() < deadline:
        doc, argv, csv = _write_config(workload, seed, index, workdir)
        library = sampler.random() < SAMPLE_RATE
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if with_trace:
                tracer.op = index
                with tracer.installed():
                    elapsed, code, text = _call(cli, argv, csv)
                traced.append(elapsed)
                checked(f"op {index} traced", doc, code, text, library=False)
            else:
                elapsed, code, text = _call(cli, argv, csv)
                plain.append(elapsed)
                checked(f"op {index}", doc, code, text, library=library)
        index += 1
    return plain, traced, tracer


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts(seed: int, workloads: list[str]) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            "effective": _openblas_threads(),
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "git_commit": _git_commit(),
        "seed": seed,
        "workloads": workloads,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    import witness_lab

    if not Path(witness_lab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"witness_lab imported from {witness_lab.__file__}, not {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    tally = Tally()
    try:
        setup = None if trace else _measure_setup(workload, seed, workdir, tally, deadline)
        plain, traced, tracer = _measure_ops(workload, seed, seconds, trace, workdir, tally, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(plain) < 2:
        raise RuntimeError(f"only {len(plain)} timed operations; raise --seconds")

    if trace:
        values = per_op_metrics(tracer.spans)
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = LAYER_UNITS
    else:
        values = {
            "ops_per_s": len(plain) / sum(plain),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    p50 = statistics.median(plain)
    p90 = None
    if len(plain) >= P90_MIN_OPS:
        p90 = statistics.quantiles(plain, n=10, method="inclusive")[-1]
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {
        "machine": machine_facts(seed, list(WORKLOADS)),
        "workload": workload.record(),
        "seconds": seconds,
        "trace": trace,
        "timed_ops": len(plain),
        "op_p50_s": p50,
        "op_p90_s": p90,
        "op_times_s": plain,
        "traced_op_times_s": traced,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "result": result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans = {"fields": Span._fields, "spans": tracer.spans}
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={seed} timed_ops={len(plain)} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.4g} (ratio) "
          f"blas_threads={record['machine']['blas_threads']['effective']}")
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        print(f"{workload.name} op_p50_s {p50:.6g} s (n={len(plain)}; not gated)")
        if p90 is not None:
            print(f"{workload.name} op_p90_s {p90:.6g} s (n={len(plain)}; not gated)")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=180, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "witness_lab" / "__init__.py").is_file():
        print(f"error: no witness_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(WORKLOADS[args.workload], args.seed, Path(args.workdir))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
