"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench

They run a cheap subset of each workload, so they take well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

# Keys (substrings) of cheap ops that still reach every layer of their workload.
CHEAP = {
    "diag-sweep": ("block(3,4)", "hexagon(2, 1, 3)", "cli nivat", "expansive_witness"),
    "periodic-tables": (" E ", "is_generated", "nivat_check periodic D"),
    "structure-search": ("block(3,4)", "defect", "tile33", "cli balanced"),
    "aperiodic-cli": (" F3", " W3", "cli generating"),
}


def cheap_ops(workload, tmp_path):
    _, lib, ops = run.setup(workload, 0, str(tmp_path))
    return lib, [op for op in ops if any(part in op.key for part in CHEAP[workload])]


def traced_pass(lib, ops):
    tracer = tracing.Tracer(lib)
    tracer.install()
    start = perf_counter()
    try:
        latencies, prints = run.run_pass(ops, lib, tracer)
    finally:
        tracer.uninstall()
    wall = perf_counter() - start
    return tracer, wall, latencies, prints


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_traced_work_counts_repeat_and_self_time_fits_wall(workload, tmp_path):
    lib, ops = cheap_ops(workload, tmp_path)
    assert ops
    runs = []
    for _ in range(2):
        tracer, wall, latencies, prints = traced_pass(lib, ops)
        metrics = tracer.metrics(sum(latencies), sum(latencies))
        _, self_s = tracer.layer_totals()
        assert 0 < sum(self_s.values()) <= wall
        runs.append((metrics, prints))
    first, second = runs
    assert {k: first[0][k] for k in tracing.WORK_COUNTS} == {k: second[0][k] for k in tracing.WORK_COUNTS}
    assert first[1] == second[1]
    for layer in tracing.LAYERS:
        calls = "configurations.domain_calls" if layer == "configurations" else f"{layer}.calls"
        assert first[0][calls] > 0, f"{workload} never reaches {layer}"


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_cheap_ops_match_their_references(workload, tmp_path):
    lib, ops = cheap_ops(workload, tmp_path)
    _, prints = run.run_pass(ops, lib)
    failed, messages = run.check(ops, [prints])
    assert failed == 0, messages


def test_uninstall_restores_every_function(tmp_path):
    lib, _ = cheap_ops("diag-sweep", tmp_path)
    before = {name: dict(vars(module)) for name, module in lib.items()}
    cls = lib["geometry"].ConvexLatticeSet.__init__
    tracer = tracing.Tracer(lib)
    tracer.install()
    assert lib["package"].complexity is not before["package"]["complexity"]
    assert lib["words"].complexity is lib["package"].complexity
    tracer.uninstall()
    for name, module in lib.items():
        for attr, value in before[name].items():
            assert vars(module)[attr] is value, f"{name}.{attr} not restored"
    assert lib["geometry"].ConvexLatticeSet.__init__ is cls


def test_a_mismatch_fails_the_op(tmp_path):
    lib, ops = cheap_ops("diag-sweep", tmp_path)
    op = next(op for op in ops if op.reference is not None)
    _, prints = run.run_pass([op], lib)
    wrong = json.loads(prints[0])
    wrong["count"] = wrong.get("count", 0) + 1
    failed, _ = run.check([op], [[json.dumps(wrong, sort_keys=True)]])
    assert failed == 1


def test_diagonal_oracle_known_values():
    # P(n, k) = n + k up to n + k = 7, the equality case P(3, 4) = 7, and the
    # hand count 43 for block(1, 13) (the stated closed form gives 42).
    for n in range(1, 7):
        for k in range(1, 8 - n):
            assert oracle.diagonal_count(oracle.rect(n, k)) == n + k
    assert oracle.diagonal_count(oracle.rect(1, 13)) == 43
    assert oracle.diagonal_count(oracle.rect(3, 4, at=(17, -5))) == 7


def test_periodic_oracle_checkerboard():
    body = oracle.PeriodicBody(["ab", "ba"])
    assert body.block_table(2, 2) == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}
    assert body.periods(1) == [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    sheared = oracle.PeriodicBody(["abc"], shear=1)
    assert sheared.is_period((3, 0)) and sheared.is_period((1, 1))


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "diag-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
