#!/usr/bin/env python3
"""nivatlab benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload diag-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from `src/` next to
this directory and nowhere else.  One process, one thread, closed loop: each
op starts when the previous one returns.

--trace 0 runs one untimed warm-up pass, then timed passes for about
`--seconds`, and reports throughput, per-op latency, peak memory and
`setup_s`: the median time to import the library and build every body, shape,
line and CLI config file, which is redone before every pass.  Timings are
scaled to a reference host speed by a calibration kernel timed around every
op (see CALIBRATION_REF_S); the unscaled figures are printed too.  --trace 1 runs
a warm-up pass, one pass without and one with the tracer, and reports the
per-layer metrics of the traced pass; its spans are written to
`.perfbench_out/`.

Every op's result, in every pass, is compared with its reference (see
`workloads.py`).  The last line printed is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
result matched.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliResult, NoClaim, plain  # noqa: E402

MODULES = ("geometry", "configurations", "complexity", "words", "structure", "verifier", "cli", "errors")
# The host's speed drifts by up to 2x over tens of seconds, in ways no run
# length averages out.  So a fixed calibration kernel is timed before every
# op and after the last, and each op's latency is scaled by CALIBRATION_REF_S
# over the mean of the two samples around it: timings read as if the host ran
# at the speed at which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.008
CALIBRATION_BODY = oracle.PeriodicBody(
    ["".join("ab"[(x * x + 3 * y + x * y) % 5 % 2] for x in range(30)) for y in range(30)])
CALIBRATION_SHAPE = oracle.rect(5, 5)
TAIL_BEYOND = 10  # ops beyond the reported tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class LibraryMissing(Exception):
    pass


class Failure(NamedTuple):
    """An op that raised something other than its expected outcome."""

    reason: str


def import_library() -> dict:
    """Import `nivatlab` afresh from `src/` and return its modules by layer name."""
    for name in [m for m in sys.modules if m == "nivatlab" or m.startswith("nivatlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("nivatlab")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import nivatlab from {SRC}: {exc}") from None
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise LibraryMissing(f"nivatlab was imported from {package.__file__}, not from {SRC}")
    lib = {"package": package}
    for name in MODULES:
        lib[name] = importlib.import_module(f"nivatlab.{name}")
    return lib


def setup(workload: str, seed: int, tmp: str):
    """Import the library and build every input of the workload; returns (seconds, lib, ops)."""
    start = perf_counter()
    lib = import_library()
    ops = workloads.WORKLOADS[workload](lib, random.Random(f"{workload}/{seed}"), tmp)
    elapsed = perf_counter() - start
    keys = [op.key for op in ops]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate op keys in {workload}")
    return elapsed, lib, ops


def calibration_sample() -> float:
    """Median seconds of three runs of the calibration kernel: brute-force
    pattern counting in the benchmark's own code, which no change to nivatlab
    moves."""
    runs = []
    for _ in range(3):
        start = perf_counter()
        CALIBRATION_BODY.count(CALIBRATION_SHAPE)
        runs.append(perf_counter() - start)
    return statistics.median(runs)


def run_pass(ops, lib, tracer=None, calibration=None) -> tuple[list[float], list[str]]:
    """Run every op once; returns per-op seconds and result fingerprints (JSON text).

    With a `calibration` list, a calibration sample is appended to it before
    every op and after the last one.
    """
    no_claim = lib["errors"].HypothesisNotMet
    latencies, prints = [], []
    for op in ops:
        gc.collect()
        if calibration is not None:
            calibration.append(calibration_sample())
        start = perf_counter()
        try:
            result = op.call()
        except no_claim as exc:
            result = NoClaim(str(exc))
        except Exception as exc:  # any other outcome is a failed op
            result = Failure(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - start)
        if tracer is not None and isinstance(result, CliResult):
            tracer.counts["cli.bytes_out"] += result.bytes_out()
        prints.append(fingerprint(op, result))
    if calibration is not None:
        calibration.append(calibration_sample())
    return latencies, prints


def fingerprint(op, result) -> str:
    if isinstance(result, Failure):
        return json.dumps({"error": result.reason})
    try:
        return json.dumps(op.fingerprint(result), sort_keys=True)
    except Exception as exc:  # a result of the wrong shape is a failure, not a crash
        return json.dumps({"error": f"fingerprint {type(exc).__name__}: {exc}"})


def check(ops, passes: list[list[str]]) -> tuple[int, list[str]]:
    """Compare every pass's fingerprints with the references; returns (failed ops, messages)."""
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    failed, messages = 0, []
    for i, op in enumerate(ops):
        try:
            if op.reference is not None:
                ref = json.dumps(plain(op.reference()), sort_keys=True)
            elif op.key in expected:
                ref = json.dumps(expected[op.key], sort_keys=True)
            else:
                ref = json.dumps({"error": "no recorded reference"})
        except Exception as exc:  # a broken reference fails the op, loudly
            ref = json.dumps({"error": f"reference {type(exc).__name__}: {exc}"})
        for p, prints in enumerate(passes):
            if prints[i] != ref:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"pass {p} op {op.key!r}: got {prints[i][:300]} expected {ref[:300]}")
    return failed, messages


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile_tail(values: list[float]) -> float:
    """The value with TAIL_BEYOND values above it."""
    return sorted(values)[-TAIL_BEYOND - 1]


def measure(args, tmp: str) -> tuple[dict, int, int, list[str], list[str]]:
    """Warm-up pass, then timed passes for about `--seconds` (at least two).

    The workload is set up afresh before every pass, so `setup_s`, like the
    pass metrics, is a median over samples spread across the whole run.
    Each op's time is scaled by the calibration samples around it (see
    CALIBRATION_REF_S), and each setup like its pass's first op; the raw
    figures are printed beside them.
    """
    setups, passes, scales = [], [], []

    def one_pass():
        gc.collect()
        elapsed, lib, ops = setup(args.workload, args.seed, tmp)
        samples = []
        passes.append(run_pass(ops, lib, calibration=samples))
        setups.append(elapsed)
        scales.append([2 * CALIBRATION_REF_S / (a + b) for a, b in zip(samples, samples[1:])])
        return ops

    ops = one_pass()
    start = perf_counter()
    while True:
        ops = one_pass()
        done, elapsed = len(passes) - 1, perf_counter() - start
        # Stop at the pass boundary nearest to `--seconds`.
        if done >= 2 and elapsed + 0.5 * elapsed / done >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(scaled: bool) -> dict:
        timed = [[x * (c if scaled else 1.0) for x, c in zip(lat, scale)]
                 for (lat, _), scale in zip(passes[1:], scales[1:])]
        per_op = [statistics.median(lat[i] for lat in timed) for i in range(len(ops))]
        tail = percentile_tail(per_op)
        return {
            "setup_s": statistics.median(t * (c[0] if scaled else 1.0) for t, c in zip(setups, scales)),
            "ops_per_s": statistics.median(len(ops) / sum(lat) for lat in timed),
            "op_p50_ms": statistics.median(per_op) * 1000.0,
            "op_tail_ms": tail * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }

    metrics, raw = figures(True), figures(False)
    failed, messages = check(ops, [prints for _, prints in passes])
    attempted = len(ops) * len(passes)
    count = len(passes) - 1
    pct = 100.0 * (len(ops) - TAIL_BEYOND) / len(ops)
    notes = [f"op_tail_ms is p{pct:.1f} of {len(ops)} ops, each op's latency the median of its "
             f"{count} timed runs ({len(ops) * count} samples)",
             "pass seconds (raw): " + " ".join(f"{sum(lat):.3f}" for lat, _ in passes[1:]),
             "median calibration scale per pass: "
             + " ".join(f"{statistics.median(c):.3f}" for c in scales[1:]),
             "raw (unscaled): " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())]
    return metrics, attempted, failed, messages, notes


def trace(args, tmp: str) -> tuple[dict, int, int, list[str], list[str]]:
    _, lib, ops = setup(args.workload, args.seed, tmp)
    warm = run_pass(ops, lib)
    plain_pass = run_pass(ops, lib)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traced = run_pass(ops, lib, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(sum(traced[0]), sum(plain_pass[0]))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.json.gz"
    tracer.write(spans_path)
    failed, messages = check(ops, [warm[1], plain_pass[1], traced[1]])
    notes = [f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, len(ops) * 3, failed, messages, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # The thread-pool path is not measured; results are identical without it.
    os.environ.pop("NIVATLAB_THREADS", None)

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace == 0:
            metrics, attempted, failed, messages, notes = measure(args, str(tmp))
            units = dict(END_TO_END)
        else:
            metrics, attempted, failed, messages, notes = trace(args, str(tmp))
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for message in messages:
        print("MISMATCH " + message)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
