"""Randomized robustness sweeps: every structure operation on random inputs
must either succeed with self-consistent certificates or refuse cleanly.
A ConstructionError or crash here is a genuine bug."""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nivatlab import cli
from nivatlab.cli import cli_main

from nivatlab.complexity import complexity, directional_language, extension_counts
from nivatlab.configurations import DiagonalFamily, DoublyPeriodic, extract_pattern
from nivatlab.errors import GeometryError, HypothesisNotMet
from nivatlab.geometry import Line, block, convex_hull, line_section, supporting_line
from nivatlab.structure import (
    construct_balanced_set,
    expansive_witness,
    find_directional_generating_set,
    find_generating_set,
    find_mlc_set,
    thickness_ok,
)

from conftest import random_doubly_periodic

LINES = [
    Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0), Line(1, -1, 0),
    Line(-1, 0, 0), Line(0, -1, 0), Line(-1, -1, 0), Line(2, 1, 0), Line(1, 2, 0),
]
HEXAGON = convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
SHAPES = [block(2, 2), block(3, 3), block(3, 4), HEXAGON]


@pytest.fixture(scope="module")
def zoo(checkerboard, diagonal):
    rng = random.Random(555)
    return [diagonal, checkerboard] + [random_doubly_periodic(rng) for _ in range(8)]


def test_balanced_construction_never_trips(zoo):
    for cfg in zoo:
        for shape in SHAPES:
            for line in LINES:
                w = expansive_witness(cfg, line, 1)
                try:
                    cert = construct_balanced_set(cfg, shape, line, witness_absent=not w.found)
                except HypothesisNotMet:
                    continue
                assert cert.drop <= cert.drop_bound
                assert len(cert.support_section) <= len(cert.antiparallel_section)
                if cert.p >= 1:
                    assert thickness_ok(cert.set, line, cert.p)[0]


def test_directional_generating_invariants(zoo):
    for cfg in zoo:
        for shape in (block(3, 3), block(3, 4)):
            for line in LINES:
                try:
                    r = find_directional_generating_set(cfg, shape, line)
                except HypothesisNotMet:
                    continue
                assert all(c.generated for c in r.certificates)
                if r.remark_i is not None:
                    drop, allowed = r.remark_i
                    assert drop <= allowed
                if r.half_plane_line is not None:
                    sec = line_section(r.set, supporting_line(r.set, line))
                    rest = set(r.set.points) - sec
                    expected = {
                        g for g in shape.points
                        if r.half_plane_line.half_plane_contains(g)
                    }
                    assert rest == expected


def test_minimal_sets_are_generating(zoo):
    for cfg in zoo:
        for shape in (block(2, 2), block(3, 3)):
            for finder in (find_generating_set, find_mlc_set):
                try:
                    r = finder(cfg, shape)
                except HypothesisNotMet:
                    continue
                assert all(c.generated for c in r.certificates)
                assert r.bound_check.satisfied


def test_extension_identity_on_random_bodies(zoo):
    for cfg in zoo:
        for shape in (block(2, 2), block(3, 2), block(3, 3)):
            for line in LINES[:6]:
                try:
                    table = extension_counts(cfg, shape, line)
                except GeometryError:
                    continue
                p_u = complexity(cfg, shape).count
                p_b = complexity(cfg, table.base).count
                assert table.excess() == p_u - p_b


def test_doubly_periodic_directional_matches_brute(zoo):
    # the directional stride must realize the full language along each line
    for cfg in zoo[2:6]:
        for line in LINES[:6]:
            shape = block(2, 2)
            dl = directional_language(cfg, shape, line)
            v = line.minimal_vector()
            brute = {
                extract_pattern(cfg, shape, (t * v[0], t * v[1]))
                for t in range(-60, 61)
            }
            assert dl.patterns == brute


def test_finite_defect_directional_matches_brute(one_defect):
    shape = block(2, 2)
    for line in LINES:
        dl = directional_language(one_defect, shape, line, base=(0, 1))
        v = line.minimal_vector()
        brute = {
            extract_pattern(one_defect, shape, (t * v[0], 1 + t * v[1]))
            for t in range(-200, 201)
        }
        assert dl.patterns == brute


# -- CLI commands on random literals and configs ------------------------------------


def _small_max(text: str) -> bool:
    """False when the text reads as N,K with a value above 6: every table stays small."""
    try:
        return all(int(v) <= 6 for v in text.split(","))
    except ValueError:
        return True


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
COORDS = st.integers(-6, 6)
GRIDS = st.integers(1, 5).flatmap(
    lambda w: st.lists(st.text("ab", min_size=w, max_size=w), min_size=1, max_size=5))
# Well-formed specs (most pass validation); MALFORMED sets one field to a bad value.
VALID = st.one_of(
    st.fixed_dictionaries({"type": st.just("diagonal_family")},
                          optional={"black": st.sampled_from("bx"), "white": st.sampled_from("wx")}),
    st.fixed_dictionaries({"type": st.just("doubly_periodic"), "alphabet": st.just(["a", "b"]),
                           "rows": GRIDS}),
    st.fixed_dictionaries({
        "type": st.just("finite_defect"), "alphabet": st.just(["a", "b"]), "background": st.just("a"),
        "defects": st.lists(st.tuples(COORDS, COORDS, st.just("b")).map(list), min_size=1, max_size=5),
    }),
    st.fixed_dictionaries({"type": st.just("window"), "alphabet": st.just(["a", "b"]), "rows": GRIDS},
                          optional={"origin": st.lists(COORDS, min_size=2, max_size=2)}),
)
LETTERS = st.sampled_from(["a", "b", "c", "ab", "", 1])
FIELDS = st.sampled_from(["type", "alphabet", "rows", "basis", "table", "background", "defects",
                          "origin", "black", "white"])
MALFORMED = st.builds(lambda spec, field, value: {**spec, field: value},
                      VALID, FIELDS, JUNK | LETTERS | st.lists(LETTERS, max_size=3))
BASES = st.fixed_dictionaries({
    "type": st.just("doubly_periodic"), "alphabet": st.just(["a", "b"]),
    "basis": st.lists(st.lists(COORDS, min_size=2, max_size=2), min_size=2, max_size=2),
    "table": st.lists(st.tuples(st.lists(COORDS, min_size=2, max_size=2), st.sampled_from("ab"))
                      .map(list), max_size=8),
})
CONFIGS = VALID | MALFORMED | BASES | JUNK
SIZES = st.integers(1, 5) | st.integers(-1, 6)
MAX_LITERALS = (st.tuples(SIZES, SIZES).map(lambda nk: f"{nk[0]},{nk[1]}")
                | st.text(max_size=8).filter(_small_max))
SHAPE_LITERALS = (
    st.tuples(SIZES, SIZES).map(lambda nk: f"rect:{nk[0]},{nk[1]}")
    | st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4)
    .map(lambda pts: "points:" + ";".join(f"{x},{y}" for x, y in pts))
    | st.sampled_from(["rect:2", "rect:a,b", "points:", "points:1,x", "hex:1,1"])
)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli_fuzz"))


def _write_config(cli_dir: str, spec) -> str:
    path = os.path.join(cli_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def _run_cleanly(argv: list[str]) -> tuple[int, str, str]:
    """cli_main in process: exit 0, 1 or 2 and never a traceback; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(CONFIGS, MAX_LITERALS, st.booleans(), st.booleans(), st.booleans())
def test_table_command_exits_cleanly(cli_dir, spec, literal, as_json, to_csv, joined):
    """Exit 0, 1 or 2 and never a traceback; a table that succeeds has N*K rows."""
    config, csv_path = _write_config(cli_dir, spec), os.path.join(cli_dir, "table.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    argv = (["--json"] if as_json else []) + ["table", "--config", config]
    argv += [f"--max={literal}"] if joined else ["--max", literal]
    argv += ["--csv", csv_path] if to_csv else []
    code, out, _ = _run_cleanly(argv)
    if code == 0:
        n, k = (int(v) for v in literal.split(","))
        if to_csv:
            with open(csv_path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
        elif as_json:
            rows = json.loads(out)["rows"]
        else:
            rows = out.splitlines()[1:]
        assert len(rows) == n * k


@settings(max_examples=200, deadline=None)
@given(CONFIGS, st.sampled_from([["complexity"], ["complexity", "--dump"], ["nivat"]]),
       SHAPE_LITERALS, st.booleans(), st.booleans())
def test_shape_commands_exit_cleanly(cli_dir, spec, command, literal, as_json, strict):
    """`complexity` and `nivat`: exit 0, 1 or 2 and never a traceback; a JSON
    report that succeeds is exact unless the body is a window sample, and a
    JSON dump lists `count` distinct patterns, sorted by their words."""
    argv = (["--json"] if as_json else []) + (["--strict"] if strict else [])
    code, out, _ = _run_cleanly(argv + command + ["--config", _write_config(cli_dir, spec), "--shape", literal])
    if code == 0 and as_json:
        payload = json.loads(out)
        assert payload["exact"] is (spec["type"] != "window")
        if "--dump" in command:
            words = _dumped_words(payload["patterns"], literal)
            assert len(words) == payload["count"] and words == sorted(set(words))


def _dumped_words(grids: list[str], literal: str) -> list[str]:
    """Each dumped grid's letters read back in sorted cell order, the order of
    `Pattern.word`: a grid's rows run from the highest y down, from the least x."""
    cells = sorted(cli.parse_shape(literal).points)
    top, left = max(y for _, y in cells), min(x for x, _ in cells)
    return ["".join(rows[top - y][x - left] for x, y in cells) for rows in (g.split("\n") for g in grids)]


BOUND_LITERALS = st.integers(-2, 12).map(str) | st.sampled_from(["", "x", "1.5", "1e3", " 3", "-0"])


@settings(max_examples=150, deadline=None)
@given(CONFIGS, BOUND_LITERALS, st.booleans())
def test_periods_command_exits_cleanly(cli_dir, spec, bound, as_json):
    """`periods`: exit 0, 1 or 2 and never a traceback; a JSON report that
    succeeds lists only periods within the bound."""
    argv = (["--json"] if as_json else []) + ["periods", "--config", _write_config(cli_dir, spec)]
    code, out, _ = _run_cleanly(argv + ["--bound", bound])
    if code == 0 and as_json:
        assert all(max(abs(x), abs(y)) <= int(bound) for x, y in json.loads(out)["periods"])


SMALL_SHAPE_LITERALS = (
    st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(lambda nk: f"rect:{nk[0]},{nk[1]}")
    | st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2)), min_size=1, max_size=4)
    .map(lambda pts: "points:" + ";".join(f"{x},{y}" for x, y in pts))
    | st.sampled_from(["rect:2", "points:", "hex:1,1"])
)
LINE_LITERALS = (st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda v: f"{v[0]},{v[1]}")
                 | st.sampled_from(["1,0,2", "1,1,-1", "1", "x,y", ""]))


@settings(max_examples=150, deadline=None)
@given(CONFIGS, SMALL_SHAPE_LITERALS, st.none() | LINE_LITERALS, st.booleans())
def test_generating_command_exits_cleanly(cli_dir, spec, literal, line, as_json):
    """`generating`, with and without `--line`: exit 0, 1 or 2 and never a
    traceback; a JSON report with a claim names the search that ran."""
    argv = (["--json"] if as_json else []) + ["generating", "--config", _write_config(cli_dir, spec)]
    argv += ["--shape", literal] + ([] if line is None else ["--line", line])
    code, out, _ = _run_cleanly(argv)
    payload = json.loads(out) if code == 0 and as_json else {"status": "no_claim"}
    if payload.get("status") != "no_claim":
        assert payload["kind"] == ("generating" if line is None else "directional")


@settings(max_examples=100, deadline=None)
@given(CONFIGS, LINE_LITERALS, st.integers(-2, 1), st.booleans())
def test_witness_radius_exits_cleanly(cli_dir, spec, line, radius, as_json):
    """`witness --radius` and `balanced --witness-radius`: exit 0, 1 or 2 and
    never a traceback; a negative radius is one error, the same from both."""
    flags = ["--json"] if as_json else []
    body = ["--config", _write_config(cli_dir, spec), f"--line={line}"]
    witness = _run_cleanly(flags + ["witness"] + body + [f"--radius={radius}"])
    balanced = _run_cleanly(flags + ["balanced"] + body + ["--shape", "rect:2,2", f"--witness-radius={radius}"])
    if radius < 0:
        assert witness[0] == balanced[0] == 1
        assert witness[2] == balanced[2] and len(witness[2].splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(CONFIGS, st.sampled_from(["phi", "striplemma", "mlc"]), SMALL_SHAPE_LITERALS,
       LINE_LITERALS, st.integers(-2, 3), st.booleans())
def test_strip_commands_exit_cleanly(cli_dir, spec, command, literal, line, p, as_json):
    """`phi`, `striplemma` (both with `--p` from -2 to 3) and `mlc`: exit 0, 1
    or 2 and never a traceback; `phi` never reports a soundness failure."""
    argv = (["--json"] if as_json else []) + [command, "--config", _write_config(cli_dir, spec)]
    argv += ["--shape", literal]
    if command != "mlc":
        argv += [f"--line={line}", f"--p={p}"]
    _, _, err = _run_cleanly(argv)
    if command == "phi":
        assert "soundness failure" not in err


INT_LITERALS = st.integers(-2, 9).map(str) | st.sampled_from(["", "x", "1.5", " 3", "-0", "1e3"])
WORDS = st.text("ab", max_size=14) | st.text(max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["hull", "quasiregular"]), SHAPE_LITERALS, st.booleans())
def test_shape_only_commands_exit_cleanly(command, literal, as_json):
    """`hull` and `quasiregular`: exit 0, 1 or 2 and never a traceback; a
    JSON hull that succeeds lists its points sorted."""
    code, out, _ = _run_cleanly((["--json"] if as_json else []) + [command, "--shape", literal])
    if code == 0 and as_json and command == "hull":
        points = json.loads(out)["points"]
        assert points == sorted(points) and len(points) >= len(json.loads(out)["vertices"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["mh", "finewilf"]), WORDS, st.booleans(), INT_LITERALS, INT_LITERALS,
       st.sampled_from([None, "one_sided", "two_sided", "both", ""]), st.booleans(), st.booleans())
def test_word_commands_exit_cleanly(cli_dir, command, word, from_file, first, second, mode, as_json, strict):
    """`mh` (`--word` or `--word-file`, `--n0`, `--mode`) and `finewilf`
    (`--p`, `--q`): exit 0, 1 or 2 and never a traceback."""
    argv = (["--json"] if as_json else []) + (["--strict"] if strict else []) + [command]
    if from_file:
        path = os.path.join(cli_dir, "word.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(word)
        argv += ["--word-file", path]
    else:
        argv += [f"--word={word}"]
    if command == "mh":
        argv += [f"--n0={first}"] + ([] if mode is None else [f"--mode={mode}"])
    else:
        argv += [f"--p={first}", f"--q={second}"]
    code, out, _ = _run_cleanly(argv)
    if code == 0 and as_json and command == "finewilf":
        payload = json.loads(out)
        assert payload["applies"] is (payload["length"] >= payload["required_length"])


@settings(max_examples=100, deadline=None)
@given(CONFIGS, SMALL_SHAPE_LITERALS, st.none() | BOUND_LITERALS, st.booleans(), st.booleans())
def test_nivat_period_bound_exits_cleanly(cli_dir, spec, literal, bound, as_json, strict):
    """`nivat --period-bound`: exit 0, 1 or 2 and never a traceback; a JSON
    report that succeeds lists only periods within the bound it was given."""
    argv = (["--json"] if as_json else []) + (["--strict"] if strict else [])
    argv += ["nivat", "--config", _write_config(cli_dir, spec), "--shape", literal]
    argv += [] if bound is None else [f"--period-bound={bound}"]
    code, out, _ = _run_cleanly(argv)
    payload = json.loads(out) if out and as_json else {}  # argparse errors print nothing on stdout
    if bound is not None and "periods" in payload:
        assert all(max(abs(x), abs(y)) <= int(bound) for x, y in payload["periods"])


@settings(max_examples=100, deadline=None)
@given(CONFIGS, SMALL_SHAPE_LITERALS, LINE_LITERALS, st.integers(-1, 3), INT_LITERALS,
       st.booleans(), st.booleans())
def test_striplemma_window_exits_cleanly(cli_dir, spec, literal, line, p, window, as_json, strict):
    """`striplemma --window`: exit 0, 1 or 2 and never a traceback."""
    argv = (["--json"] if as_json else []) + (["--strict"] if strict else [])
    argv += ["striplemma", "--config", _write_config(cli_dir, spec), "--shape", literal,
             f"--line={line}", f"--p={p}", f"--window={window}"]
    _run_cleanly(argv)


@settings(max_examples=100, deadline=None)
@given(CONFIGS, SMALL_SHAPE_LITERALS, LINE_LITERALS, st.integers(0, 1), st.booleans())
def test_balanced_shapes_and_lines_exit_cleanly(cli_dir, spec, literal, line, radius, as_json):
    """`balanced` over shapes and lines: exit 0, 1 or 2 and never a
    traceback; a JSON certificate keeps its drop within its bound."""
    argv = (["--json"] if as_json else []) + ["balanced", "--config", _write_config(cli_dir, spec)]
    argv += ["--shape", literal, f"--line={line}", f"--witness-radius={radius}"]
    code, out, _ = _run_cleanly(argv)
    payload = json.loads(out) if code == 0 and as_json else {"status": "no_claim"}
    if payload.get("status") != "no_claim":
        assert payload["drop"] <= payload["drop_bound"]


@settings(max_examples=10, deadline=None)
@given(st.booleans(), st.booleans(), st.sampled_from([[], ["extra"], ["--bogus"], ["-h"]]))
def test_example_suite_exits_cleanly(as_json, strict, tail):
    """`example-suite`: exit 0, 1 or 2 and never a traceback (it reports the
    criterion 3 rows as mismatches, so a run that completes exits 1)."""
    argv = (["--json"] if as_json else []) + (["--strict"] if strict else [])
    code, out, _ = _run_cleanly(argv + ["example-suite"] + tail)
    if not tail:
        assert code == 1 and ("mismatches" in out or json.loads(out)["passed"] is False)


TOKENS = st.sampled_from([
    "--json", "--strict", "--js", "--st", "-h", "--help", "--version", "--", "--bogus", "-x",
    "hull", "quasiregular", "mh", "finewilf", "example-suite", "nivat", "table", "bogus",
    "--shape", "--sh", "--shape=rect:2,2", "rect:2,2", "points:0,0;1,1", "--word", "--word=ab",
    "--n0", "--n0=2", "--mode", "--mode=two_sided", "--p", "--q", "--p=1", "--q=2", "--config",
    "--max", "--max=2,2", "1", "x", "",
]) | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(TOKENS, max_size=7))
def test_malformed_argv_matches_full_parser(argv):
    """Any argv at the argparse level: exit 0, 1 or 2 and never a traceback,
    and cli_main prints and exits exactly as it would through the full parser."""
    fast = _run_cleanly(argv)
    with mock.patch.object(cli, "_parser_for", lambda argv: cli.build_parser()):
        assert _run_cleanly(argv) == fast
