"""The same-results corpus, recorded as JSON under `tests/golden/`: CLI
`complexity` runs and `extension_counts` groups on a fixed set of small bodies,
every other subcommand's outputs, exit codes, CSV files and diagnostics, and
the sorted `repr`s of library results (block tables, m-classes, directional
languages and the example suite).

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
from nivatlab.complexity import complexity_table, directional_language, extension_counts
from nivatlab.configurations import config_from_dict
from nivatlab.errors import NivatlabError
from nivatlab.geometry import Line, block, convex_hull
from nivatlab.structure import m_classes
from nivatlab.verifier import example_suite

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
# Bodies whose given basis is coarser than their period lattice: an axis torus
# given as four copies of one 4x3 tile, the same tile under a sheared basis,
# and diagonal stripes (period lattice x + y = 0 mod 3) under a sheared basis.
_TILE = ["baba", "bbbb", "babb"]
TILED_BODIES = {
    "tiled_axis_torus": {"type": "doubly_periodic", "alphabet": ["a", "b"],
                         "rows": [row * 2 for row in _TILE] * 2},
    "tiled_sheared_torus": {"type": "doubly_periodic", "alphabet": ["a", "b"], "basis": [[8, 0], [4, 6]],
                            "table": [[[x, y], _TILE[y % 3][x % 4]] for x in range(8) for y in range(6)]},
    "striped_sheared_torus": {"type": "doubly_periodic", "alphabet": ["a", "b", "c"],
                              "basis": [[6, 0], [1, 5]],
                              "table": [[[x, y], "abc"[(x + y) % 3]] for x in range(6) for y in range(5)]},
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


# Input files of `command_records`, by the relative name its argvs use: a JSON
# spec, or raw text.  missing.json and missing.txt are never written.
COMMAND_FILES = {
    "diag.json": {"type": "diagonal_family"},
    "checker.json": {"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": ["ab", "ba"]},
    "sheared.json": BODIES["sheared_torus"],
    "torus3.json": BODIES["torus_3_letters"],
    "defect.json": BODIES["defect_1"],
    "defect_pair.json": {"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
                         "defects": [[0, 0, "b"], [1, 0, "b"]]},
    "window.json": {"type": "window", "alphabet": ["a", "b"], "rows": ["abab", "baba", "abab", "baba"]},
    "window_offset.json": BODIES["window_offset"],
    "grid.txt": "abab\nbaba\nabab\n",
    "bad.json": '{"type": "diagonal_family",',
    "no_alphabet.json": {"type": "window", "rows": ["ab", "ba"]},
    "bad_rows.json": {"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": [1, 2]},
    "bad_defects.json": {"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
                         "defects": [[0, 0]]},
    "not_object.json": [1, 2],
    "mystery.json": {"type": "mystery"},
    "stray_letter.json": {"type": "window", "alphabet": ["a", "b"], "rows": ["ac", "ba"]},
    "triangle.txt": "0 0\n2 0\n\n0 2\n",
    "two_faults.txt": "0 0\n1\n1 1 1\n",
    "word.txt": "abc" * 9 + "\n",
}

# One argv per case, without global flags.  Each command has a case with two or
# more bad inputs, which pins the error that wins.
COMMAND_ARGVS = [
    ["hull", "--shape", "rect:3,2"],
    ["hull", "--shape", "points:0,0;2,0;0,2"],
    ["hull", "--shape", "file:triangle.txt"],
    ["hull", "--shape", "rect:1"],
    ["hull", "--shape", "rect:2,3,4"],
    ["hull", "--shape", "points:0,0;1"],
    ["hull", "--shape", "circle:3"],
    ["hull", "--shape", "file:two_faults.txt"],
    ["hull", "--shape", "file:missing.txt"],
    ["quasiregular", "--shape", "rect:3,2"],
    ["quasiregular", "--shape", "points:0,0;2,0;0,2"],
    ["quasiregular", "--shape", "points:0,0;2,0;1,2;3,1"],
    ["quasiregular", "--shape", "rect:a,b"],
    ["table", "--config", "diag.json", "--max", "3,4"],
    ["table", "--config", "defect_pair.json", "--max", "3,3"],
    ["table", "--config", "window.json", "--max", "2,3"],
    ["table", "--config", "torus3.json", "--max", "2,2"],
    ["table", "--config", "checker.json", "--max", "2,2", "--csv", "checker.csv"],
    ["table", "--config", "window_offset.json", "--max", "3,2", "--csv", "window.csv"],
    ["table", "--config", "diag.json", "--max", "3"],
    ["table", "--config", "diag.json", "--max", "3,x"],
    ["table", "--config", "missing.json", "--max", "3,x"],
    ["table", "--config", "diag.json", "--max", "2,2", "--csv", "no_such_dir/out.csv"],
    ["mh", "--word", "abababababab", "--n0", "2"],
    ["mh", "--word", "abaababaab", "--n0", "3", "--mode", "two_sided"],
    ["mh", "--word-file", "word.txt", "--n0", "3"],
    ["mh", "--word", "abaab", "--n0", "3"],
    ["mh", "--n0", "2"],
    ["mh", "--word", "ab", "--n0", "0"],
    ["mh", "--word-file", "missing.txt", "--n0", "0"],
    ["finewilf", "--word", "ababababab", "--p", "4", "--q", "6"],
    ["finewilf", "--word", "abaababaabaab", "--p", "5", "--q", "8"],
    ["finewilf", "--word", "abab", "--p", "3", "--q", "2"],
    ["finewilf", "--word", "aabaa", "--p", "3", "--q", "4"],
    ["finewilf", "--word-file", "word.txt", "--p", "3", "--q", "6"],
    ["finewilf", "--p", "0", "--q", "1"],
    ["periods", "--config", "checker.json", "--bound", "2"],
    ["periods", "--config", "sheared.json"],
    ["periods", "--config", "window.json", "--bound", "2"],
    ["periods", "--config", "defect.json", "--bound", "2"],
    ["periods", "--config", "bad.json", "--bound", "0"],
    ["generating", "--config", "checker.json", "--shape", "rect:2,2"],
    ["generating", "--config", "diag.json", "--shape", "rect:3,3", "--line", "1,0"],
    ["generating", "--config", "sheared.json", "--shape", "rect:2,2", "--line", "1,1"],
    ["generating", "--config", "defect.json", "--shape", "rect:2,2"],
    ["generating", "--config", "diag.json", "--shape", "rect:2,2", "--line", "1"],
    ["generating", "--config", "diag.json", "--shape", "circle:1", "--line", "1"],
    ["generating", "--config", "missing.json", "--shape", "rect:x", "--line", "1"],
    ["mlc", "--config", "checker.json", "--shape", "rect:3,3"],
    ["mlc", "--config", "diag.json", "--shape", "rect:3,4"],
    ["mlc", "--config", "grid.txt", "--shape", "rect:2,2"],
    ["mlc", "--config", "bad.json", "--shape", "rect:0,0"],
    ["balanced", "--config", "diag.json", "--shape", "rect:3,4", "--line", "1,0"],
    ["balanced", "--config", "diag.json", "--shape", "rect:3,3", "--line", "1,0", "--witness-radius", "0"],
    ["balanced", "--config", "sheared.json", "--shape", "rect:2,2", "--line", "1,0"],
    ["balanced", "--config", "checker.json", "--shape", "rect:2,3", "--line", "0,1,1"],
    ["balanced", "--config", "window.json", "--shape", "rect:2,2", "--line", "1,0"],
    ["balanced", "--config", "diag.json", "--shape", "rect:1", "--line", "1,a"],
    ["balanced", "--config", "no_alphabet.json", "--shape", "rect:1", "--line", "1,a"],
    ["phi", "--config", "diag.json", "--shape", "rect:2,2", "--line", "1,1", "--p", "0"],
    ["phi", "--config", "diag.json", "--shape", "points:0,2;0,3;1,3;2,3", "--line", "1,0", "--p", "0"],
    ["phi", "--config", "sheared.json", "--shape", "rect:2,2", "--line", "1,0", "--p", "2"],
    ["phi", "--config", "diag.json", "--shape", "rect:3,3", "--line", "1,0", "--p", "1"],
    ["phi", "--config", "defect_pair.json", "--shape", "rect:2,2", "--line", "0,1", "--p", "1"],
    ["phi", "--config", "diag.json", "--shape", "rect:2,2", "--line", "1,a", "--p", "1"],
    ["phi", "--config", "bad.json", "--shape", "rect:2,2", "--line", "1,a", "--p", "1"],
    ["striplemma", "--config", "sheared.json", "--shape", "rect:2,2", "--line", "1,0", "--p", "2",
     "--window", "20"],
    ["striplemma", "--config", "sheared.json", "--shape", "rect:2,2", "--line", "1,0", "--p", "2",
     "--window", "2"],
    ["striplemma", "--config", "checker.json", "--shape", "rect:3,3", "--line", "1,0", "--p", "2",
     "--window", "4"],
    ["striplemma", "--config", "diag.json", "--shape", "points:0,2;0,3;1,3;2,3", "--line", "1,0",
     "--p", "0"],
    ["striplemma", "--config", "defect_pair.json", "--shape", "rect:2,2", "--line", "0,1", "--p", "1"],
    ["striplemma", "--config", "diag.json", "--shape", "points:x", "--line", "x", "--p", "1"],
    ["witness", "--config", "diag.json", "--line", "1,1", "--radius", "1"],
    ["witness", "--config", "checker.json", "--line", "1,0", "--radius", "1"],
    ["witness", "--config", "defect.json", "--line", "0,1"],
    ["witness", "--config", "diag.json", "--line", "1,0,0,0"],
    ["witness", "--config", "missing.json", "--line", "1"],
    ["nivat", "--config", "diag.json", "--shape", "rect:3,4"],
    ["nivat", "--config", "defect.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "window.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "checker.json", "--shape", "rect:2,2", "--period-bound", "2"],
    ["nivat", "--config", "sheared.json", "--shape", "points:0,0;1,0;0,1"],
    ["nivat", "--config", "grid.txt", "--shape", "rect:2,2"],
    ["nivat", "--config", "bad.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "no_alphabet.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "bad_rows.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "bad_defects.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "not_object.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "mystery.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "stray_letter.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "missing.json", "--shape", "rect:2,2"],
    ["nivat", "--config", "bad.json", "--shape", "circle:1"],
    ["example-suite"],
]
COMMAND_VARIANTS = {"plain": [], "json": ["--json"], "strict": ["--strict"]}


def command_records() -> dict[str, dict]:
    """Every argv of COMMAND_ARGVS under each variant, run in a directory that
    holds COMMAND_FILES; a run that writes a CSV file also records its text."""
    records = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            for name, content in COMMAND_FILES.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(content if isinstance(content, str) else json.dumps(content))
            for argv in COMMAND_ARGVS:
                for variant, flags in COMMAND_VARIANTS.items():
                    record = _run([*flags, *argv])
                    if "--csv" in argv and os.path.exists(csv := argv[argv.index("--csv") + 1]):
                        with open(csv, encoding="utf-8", newline="") as fh:
                            record["csv"] = fh.read()
                        os.remove(csv)
                    records[" ".join([variant, *argv])] = record
        finally:
            os.chdir(cwd)
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


def sorted_repr(value) -> str:
    """`repr` with every set's members sorted by their own sorted `repr`, so
    the text does not follow hashing; dataclasses spell their fields."""
    if isinstance(value, (set, frozenset)):
        return f"{type(value).__name__}({{{', '.join(sorted(map(sorted_repr, value)))}}})"
    if isinstance(value, dict):
        items = sorted(f"{sorted_repr(k)}: {sorted_repr(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (tuple, list)):
        inner = ", ".join(map(sorted_repr, value))
        return f"({inner},)" if isinstance(value, tuple) and len(value) == 1 else (
            f"({inner})" if isinstance(value, tuple) else f"[{inner}]")
    if hasattr(value, "__dataclass_fields__"):
        fields = ", ".join(f"{name}={sorted_repr(getattr(value, name))}" for name in value.__dataclass_fields__)
        return f"{type(value).__name__}({fields})"
    return repr(value)


def _outcome(call) -> str:
    """sorted_repr of call(), or the library error it raises."""
    try:
        return sorted_repr(call())
    except NivatlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def library_records() -> dict[str, str]:
    """Sorted `repr`s of `complexity_table`, `m_classes` and `directional_language`
    on every body (the tiled ones too), and of `example_suite`."""
    records = {f"example_suite{args}": _outcome(lambda args=args: example_suite(*args))
               for args in [(), (8, 6)]}
    for name, spec in {**BODIES, **TILED_BODIES}.items():
        body = config_from_dict(spec)
        records[f"{name} complexity_table 4x4"] = _outcome(lambda: complexity_table(body, 4, 4))
        records[f"{name} complexity_table 2x5"] = _outcome(lambda: complexity_table(body, 2, 5))
        for shape_name, shape in SHAPES.items():
            for line_name, line in LINES.items():
                for p in (1, 2):
                    records[f"{name} m_classes {shape_name} {line_name} p={p}"] = _outcome(
                        lambda: m_classes(body, shape, line, p))
                for base in [(0, 0), (1, 2), (-3, 1)]:
                    records[f"{name} directional_language {shape_name} {line_name} at {base}"] = _outcome(
                        lambda: directional_language(body, shape, line, base))
    return records


def as_json(records: dict) -> str:
    """The recorded form: one JSON object, keys sorted, one record per line."""
    lines = [f"{json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}" for key in sorted(records)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


FILES = {"complexity_cli.json": cli_records, "extension_counts.json": extension_records,
         "cli_commands.json": command_records, "library.json": library_records}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for file_name, produce in FILES.items():
        (GOLDEN / file_name).write_text(as_json(produce()), encoding="utf-8")
        print(f"wrote {GOLDEN / file_name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
