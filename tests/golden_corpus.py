"""The same-results corpus: CLI `complexity` runs and `extension_counts` groups
on a fixed set of small bodies, recorded as JSON under `tests/golden/`.

    PYTHONPATH=src python tests/golden_corpus.py

rewrites the corpus from the working tree; `tests/test_golden.py` replays it.
A change that alters a recorded byte regenerates the corpus and says why.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nivatlab.cli import cli_main
from nivatlab.complexity import extension_counts
from nivatlab.configurations import config_from_dict
from nivatlab.errors import NivatlabError
from nivatlab.geometry import Line, block, convex_hull

GOLDEN = Path(__file__).resolve().parent / "golden"

BODIES = {
    "diagonal": {"type": "diagonal_family"},
    "axis_torus": {"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": ["abb", "bab", "aab"]},
    "sheared_torus": {
        "type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[-3, 4], [-1, 4]],
        "table": [[[-3, 5], "b"], [[-3, 6], "a"], [[-2, 3], "a"], [[-2, 4], "b"],
                  [[-2, 5], "a"], [[-1, 2], "b"], [[-1, 3], "b"], [[0, 0], "a"]],
    },
    "torus_3_letters": {"type": "doubly_periodic", "alphabet": ["a", "b", "c"],
                        "rows": ["abca", "ccab", "bacb"]},
    "defect_1": {"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
                 "defects": [[0, 0, "b"]]},
    "defect_3": {"type": "finite_defect", "alphabet": ["w", "b", "c"], "background": "w",
                 "defects": [[0, 0, "b"], [2, 1, "c"], [-1, 3, "b"]]},
    "window_offset": {"type": "window", "alphabet": ["a", "b", "c"], "origin": [-2, 3],
                      "rows": ["abcabca", "ccbaabc", "bacbbca", "aacbcab", "cbabcca", "abbcaac"]},
    "window_small": {"type": "window", "alphabet": ["a", "b"], "rows": ["ab", "ba"]},
}
SHAPE_LITERALS = ["rect:2,2", "rect:3,2", "rect:1,3", "rect:3,3", "points:0,0;2,0;1,2;3,1"]
VARIANTS = {"plain": [], "json": ["--json"]}
SHAPES = {"block(2,2)": block(2, 2), "block(3,2)": block(3, 2), "block(2,3)": block(2, 3),
          "hexagon": convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])}
LINES = {"line(1,0)": Line(1, 0, 0), "line(1,1)": Line(1, 1, 0)}


def _run(argv: list[str]) -> dict:
    """cli_main in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_records() -> dict[str, dict]:
    """`complexity` with and without `--dump`, plain and with `--json`, on every
    body and shape literal."""
    records = {}
    with tempfile.TemporaryDirectory() as root:
        for name, spec in BODIES.items():
            path = os.path.join(root, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            for literal in SHAPE_LITERALS:
                for variant, flags in VARIANTS.items():
                    for dump in ([], ["--dump"]):
                        argv = [*flags, "complexity", "--config", path, "--shape", literal, *dump]
                        records[" ".join([name, literal, variant, *dump])] = _run(argv)
    return records


def _cells(pattern) -> str:
    """A pattern's cells, ((x, y), a) in order, spelled "x,ya" and joined by spaces."""
    return " ".join(f"{x},{y}{a}" for (x, y), a in pattern.cells)


def extension_records() -> dict[str, object]:
    """`extension_counts` on every body, shape and line: its items in dict
    order, each as (base cells, [cells of each extension]), or the error."""
    records: dict[str, object] = {}
    for name, spec in BODIES.items():
        body = config_from_dict(spec)
        for shape_name, shape in SHAPES.items():
            for line_name, line in LINES.items():
                try:
                    table = extension_counts(body, shape, line)
                except NivatlabError as exc:
                    record: object = f"{type(exc).__name__}: {exc}"
                else:
                    record = {"exactness": table.exactness.value,
                              "extensions": [[_cells(base), [_cells(p) for p in group]]
                                             for base, group in table.extensions.items()]}
                records[f"{name} {shape_name} {line_name}"] = record
    return records


def as_json(records: dict) -> str:
    """The recorded form: one JSON object, keys sorted, one record per line."""
    lines = [f"{json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}" for key in sorted(records)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


FILES = {"complexity_cli.json": cli_records, "extension_counts.json": extension_records}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for file_name, produce in FILES.items():
        (GOLDEN / file_name).write_text(as_json(produce()), encoding="utf-8")
        print(f"wrote {GOLDEN / file_name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
