import argparse
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nivatlab
from nivatlab import cli
from nivatlab.cli import build_parser, cli_main, parse_shape
from nivatlab.complexity import language
from nivatlab.configurations import config_from_dict
from nivatlab.errors import ConstructionError, SoundnessError
from nivatlab.geometry import convex_hull

from conftest import BODY_DIAGNOSTICS, PERIODIC_TABLES


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    paths["diag"] = root / "diag.json"
    paths["diag"].write_text('{"type": "diagonal_family"}')
    paths["checker"] = root / "checker.json"
    paths["checker"].write_text(
        '{"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": ["ab", "ba"]}'
    )
    paths["defect"] = root / "defect.json"
    paths["defect"].write_text(
        '{"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",'
        ' "defects": [[0, 0, "b"]]}'
    )
    paths["defect_pair"] = root / "defect_pair.json"
    paths["defect_pair"].write_text(
        '{"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",'
        ' "defects": [[0, 0, "b"], [1, 0, "b"]]}'
    )
    paths["window"] = root / "window.json"
    paths["window"].write_text(
        '{"type": "window", "alphabet": ["a", "b"], "rows": ["abab", "baba", "abab", "baba"]}'
    )
    paths["bad"] = root / "bad.json"
    paths["bad"].write_text('{"type": "diagonal_family",')
    paths["grid"] = root / "grid.txt"
    paths["grid"].write_text("abab\nbaba\nabab\n")
    paths["ambiguous"] = root / "ambiguous.json"
    paths["ambiguous"].write_text(json.dumps({
        "type": "doubly_periodic",
        "alphabet": ["a", "b"],
        "basis": [[-3, 4], [-1, 4]],
        "table": [[[-3, 5], "b"], [[-3, 6], "a"], [[-2, 3], "a"], [[-2, 4], "b"],
                  [[-2, 5], "a"], [[-1, 2], "b"], [[-1, 3], "b"], [[0, 0], "a"]],
    }))
    return {k: str(v) for k, v in paths.items()}


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_separately(*argv):
    """The CLI in a fresh interpreter: exit code, stdout and stderr."""
    src = os.path.dirname(os.path.dirname(nivatlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nivatlab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_captured(*argv):
    """cli_main in process with its output captured without a fixture: exit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def outcome(capsys, argv):
    """cli_main in process, argparse exits included: exit code, stdout and stderr."""
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def parser_argvs(configs):
    """Every subcommand, and help, version and argparse errors in their usual places."""
    diag, checker = configs["diag"], configs["checker"]
    return [
        ["hull", "--shape", "rect:3,2"],
        ["--json", "quasiregular", "--shape", "points:0,0;2,0;0,1"],
        ["complexity", "--config", diag, "--shape", "rect:3,2", "--dump"],
        ["--json", "table", "--config", configs["defect_pair"], "--max", "3,3"],
        ["mh", "--word", "abaababaab", "--n0", "3", "--mode", "two_sided"],
        ["--json", "finewilf", "--word", "abaababaabaab", "--p", "5", "--q", "8"],
        ["periods", "--config", checker, "--bound", "2"],
        ["generating", "--config", diag, "--shape", "rect:3,3", "--line", "1,0"],
        ["mlc", "--config", checker, "--shape", "rect:3,3"],
        ["balanced", "--config", diag, "--shape", "rect:3,3", "--line", "1,0"],
        ["phi", "--config", diag, "--shape", "rect:3,3", "--line", "1,0", "--p", "1"],
        ["--strict", "striplemma", "--config", checker, "--shape", "rect:3,3", "--line", "1,0",
         "--p", "2", "--window", "4"],
        ["witness", "--config", diag, "--line", "1,0"],
        ["--json", "--strict", "nivat", "--config", configs["window"], "--shape", "rect:2,2"],
        ["--json", "example-suite"],
        ["-h"], ["--help"], ["--version"], ["--json", "--version"],
        ["-h", "hull"], ["hull", "-h"], ["--json", "table", "-h"], ["nivat", "--help"],
        ["bogus"], ["--json", "bogus"], [], ["--json"], ["--strict", "--json"],
        ["hull"], ["table", "--config", diag], ["mh", "--word", "ab"],
        ["mh", "--word", "ab", "--n0", "x"], ["periods", "--config", checker, "--bound", "1.5"],
        ["mh", "--word", "ab", "--n0", "1", "--mode", "both"],
        ["hull", "--shape", "rect:2,2", "extra"], ["--json", "example-suite", "extra"],
        ["--bogus"], ["--bogus", "hull", "--shape", "rect:2,2"], ["hull", "--shape", "rect:2,2", "--bogus"],
        ["--js", "hull", "--shape", "rect:2,2"], ["--str", "hull", "--shape", "rect:2,2"],
        ["hull", "--sh", "rect:2,2"], ["mh", "--word", "aaaa", "--n0", "1", "--mo", "two_sided"],
        ["hull", "--shape", "rect:2,2", "--json"], ["--", "hull", "--shape", "rect:2,2"],
        ["--json=1", "hull", "--shape", "rect:2,2"],
    ]


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_matches_full_parser(self, configs, capsys, monkeypatch):
        """cli_main prints and exits exactly as it would through the full parser,
        both as a process's first command and after every subcommand ran."""
        monkeypatch.setenv("COLUMNS", "100")
        argvs = parser_argvs(configs)
        first = []
        for argv in argvs:
            cli._command_parser.cache_clear()
            first.append(outcome(capsys, argv))
        after_all = [outcome(capsys, argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parser_for", lambda argv: build_parser())
        full = [outcome(capsys, argv) for argv in argvs]
        assert first == full and after_all == full

    def test_builds_only_the_parser_it_runs(self, capsys, monkeypatch):
        """A valid command builds the top-level parser and its own subcommand
        parser, and a later run builds only a subcommand not run before."""
        cli._command_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(capsys, "--json", "hull", "--shape", "rect:2,2")[0] == 0
        assert built == ["nivatlab", "nivatlab hull"]
        assert run(capsys, "hull", "--shape", "rect:3,2")[0] == 0
        assert run(capsys, "quasiregular", "--shape", "rect:3,2")[0] == 0
        assert built == ["nivatlab", "nivatlab hull", "nivatlab quasiregular"]

    def test_in_process_calls_match_separate_runs(self, configs, capsys):
        # The second call drops --json and switches subcommand: nothing of the
        # first parse may carry over into it through the shared parser.
        argvs = [
            ["--json", "complexity", "--config", configs["diag"], "--shape", "rect:3,2", "--dump"],
            ["periods", "--config", configs["checker"], "--bound", "2"],
        ]
        in_process = [run(capsys, *argv) for argv in argvs]
        assert in_process == [run_separately(*argv) for argv in argvs]


class TestCommandTable:
    def test_handlers_take_their_required_inputs_in_order(self):
        """cli_main passes a handler the inputs `_COMMANDS` lists, by name and in order."""
        for name, (fn, _, required, _) in cli._COMMANDS.items():
            assert list(inspect.signature(fn).parameters) == ["args", *required], name

    @pytest.mark.parametrize("error", [
        ConstructionError("half-count", "cut keeps 1 point"),
        SoundnessError("a verified theorem failed"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_soundness_failure(self, capsys, monkeypatch, error, flags):
        """A handler that raises ConstructionError or SoundnessError gives one
        `soundness failure:` line on stderr, nothing on stdout, and exit code 1."""
        def failing(args, shape):
            raise error

        _, help, required, options = cli._COMMANDS["hull"]
        monkeypatch.setitem(cli._COMMANDS, "hull", (failing, help, required, options))
        code, out, err = run(capsys, *flags, "hull", "--shape", "rect:2,2")
        assert (code, out, err) == (1, "", f"soundness failure: {error}\n")

    @pytest.mark.parametrize("argv", [
        ["hull", "--shape", "rect:2,2"],
        ["generating", "--config", "DEFECT", "--shape", "rect:2,2"],
    ])
    def test_closed_stdout_is_an_error(self, configs, argv):
        """Printing a result or a no-claim to a closed stdout is an `error:` with exit code 1."""
        out, err = io.StringIO(), io.StringIO()
        out.close()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main([configs["defect"] if a == "DEFECT" else a for a in argv])
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")


class TestNivatCommand:
    def test_consistent_exit_zero(self, configs, capsys):
        code, out, _ = run(capsys, "nivat", "--config", configs["diag"], "--shape", "rect:3,4")
        assert code == 0 and out.startswith("CONSISTENT")

    def test_vacuous_exit_zero(self, configs, capsys):
        code, out, _ = run(capsys, "nivat", "--config", configs["defect"], "--shape", "rect:2,2")
        assert code == 0 and out.startswith("VACUOUS")

    def test_json_deterministic(self, configs, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "--json", "nivat", "--config", configs["diag"], "--shape", "rect:3,4"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["schema"] == 1 and payload["verdict"] == "consistent"

    def test_inconclusive_strict_exit(self, configs, capsys):
        code, out, _ = run(
            capsys, "--strict", "nivat", "--config", configs["window"], "--shape", "rect:2,2"
        )
        assert code == 2 and out.startswith("INCONCLUSIVE")
        code2, _, _ = run(
            capsys, "nivat", "--config", configs["window"], "--shape", "rect:2,2"
        )
        assert code2 == 0


@st.composite
def body_specs(draw):
    """A JSON body of any of the four kinds, over two or three letters."""
    kind = draw(st.sampled_from(["diagonal_family", "doubly_periodic", "finite_defect", "window"]))
    if kind == "diagonal_family":
        black, white = draw(st.permutations("bw"))
        return {"type": kind, "black": black, "white": white}
    letters = draw(st.sampled_from(["ab", "abc"]))
    if kind == "finite_defect":
        defects = draw(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                       st.sampled_from(letters[1:]), min_size=1, max_size=6))
        return {"type": kind, "alphabet": sorted({letters[0], *defects.values()}), "background": letters[0],
                "defects": [[x, y, a] for (x, y), a in defects.items()]}
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.text(letters, min_size=width, max_size=width), min_size=1, max_size=5))
    alphabet = sorted(set("".join(rows)))
    assume(len(alphabet) >= 2)
    spec = {"type": kind, "alphabet": alphabet, "rows": rows}
    if kind == "window":
        spec["origin"] = [draw(st.integers(-4, 4)), draw(st.integers(-4, 4))]
    return spec


SHAPE_LITERALS = (
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda nk: f"rect:{nk[0]},{nk[1]}")
    | st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4)
    .map(lambda pts: "points:" + ";".join(f"{x},{y}" for x, y in pts))
)


class TestComplexityCommand:
    @settings(max_examples=120, deadline=None)
    @given(body_specs(), SHAPE_LITERALS)
    def test_dump_lists_the_sorted_language(self, tmp_path_factory, spec, literal):
        """`--dump --json` lists the renders of the language sorted by word,
        with the count, exactness and translates of the run without `--dump`,
        and the plain listing shows the same grids; a shape that fits nowhere
        fails alike with and without `--dump`."""
        path = tmp_path_factory.getbasetemp() / "dump_body.json"
        path.write_text(json.dumps(spec))
        argv = ["complexity", "--config", str(path), "--shape", literal]
        plain, dumped = run_captured(*argv), run_captured(*argv, "--dump")
        as_json, dumped_json = run_captured("--json", *argv), run_captured("--json", *argv, "--dump")
        if plain[0] != 0:
            assert dumped == plain and dumped_json == as_json == plain
            assert plain[0] == 1 and plain[1] == "" and plain[2].count("\n") == 1
            return
        body = config_from_dict(spec)
        renders = [p.render() for p in sorted(language(body, parse_shape(literal)), key=attrgetter("word"))]
        payload = json.loads(dumped_json[1])
        assert payload.pop("patterns") == renders and payload == json.loads(as_json[1])
        listed = "".join(f"-- pattern {i}\n{r}\n" for i, r in enumerate(renders))
        assert dumped == (0, plain[1] + listed, "")

    def test_window_too_small_fails_alike_with_and_without_dump(self, configs, capsys):
        for flags in ([], ["--json"]):
            argv = [*flags, "complexity", "--config", configs["window"], "--shape", "rect:5,2"]
            plain, dumped = run(capsys, *argv), run(capsys, *argv, "--dump")
            assert plain == dumped == (1, "", "error: the 4x4 window cannot fit the shape anywhere\n")

    @pytest.mark.parametrize("kind", ["window", "defect_pair", "checker", "diag", "window3"])
    @pytest.mark.parametrize("literal, cells", [
        ("rect:3,2", [(x, y) for x in range(3) for y in range(2)]),
        ("points:0,0;2,0;1,2;3,1", convex_hull([(0, 0), (2, 0), (1, 2), (3, 1)])),
    ])
    def test_dump_sorts_by_cells(self, configs, capsys, tmp_path, kind, literal, cells):
        """`--dump` lists the language sorted by `Pattern.cells`, as text and as JSON."""
        if kind == "window3":
            rows = ["abcabca", "ccbaabc", "bacbbca", "aacbcab", "cbabcca", "abbcaac"]
            spec = {"type": "window", "alphabet": ["a", "b", "c"], "origin": [-2, 3], "rows": rows}
            path = tmp_path / "window3.json"
            path.write_text(json.dumps(spec))
            config = str(path)
        else:
            config = configs[kind]
        with open(config, encoding="utf-8") as fh:
            body = config_from_dict(json.load(fh))
        renders = [p.render() for p in sorted(language(body, cells), key=lambda p: p.cells)]
        code, out, _ = run(capsys, "--json", "complexity", "--config", config, "--shape", literal, "--dump")
        assert code == 0 and json.loads(out)["patterns"] == renders
        code, out, _ = run(capsys, "complexity", "--config", config, "--shape", literal, "--dump")
        listed = "".join(f"-- pattern {i}\n{r}\n" for i, r in enumerate(renders))
        assert code == 0 and out.split("\n", 1)[1] == listed


class TestTableCommand:
    def test_csv_output(self, configs, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "table", "--config", configs["diag"], "--max", "3,4", "--csv", str(target)
        )
        assert code == 0
        rows = target.read_text().splitlines()
        assert rows[0] == "n,k,count,exact"
        values = {tuple(r.split(",")[:2]): int(r.split(",")[2]) for r in rows[1:]}
        assert values[("3", "4")] == 7
        assert values[("2", "2")] == 4

    @pytest.mark.parametrize("size", ["5,2", "2,5", "5,5"])
    def test_window_too_small_for_the_table(self, configs, capsys, size):
        """Too wide, too tall or both: one fits-nowhere error line and exit 1."""
        for flags in ([], ["--json"]):
            assert run(capsys, *flags, "table", "--config", configs["window"], "--max", size) == (
                1, "", "error: the 4x4 window cannot fit the shape anywhere\n")


class TestWordCommands:
    def test_finewilf(self, configs, capsys):
        code, out, _ = run(capsys, "finewilf", "--word", "ababababab", "--p", "4", "--q", "6")
        assert code == 0 and "combined period 2" in out

    def test_mh(self, capsys):
        code, out, _ = run(capsys, "mh", "--word", "ab" * 12, "--n0", "2")
        assert code == 0 and "period_found" in out

    def test_mh_json(self, capsys):
        code, out, _ = run(capsys, "--json", "mh", "--word", "ab" * 12, "--n0", "2")
        payload = json.loads(out)
        assert payload["period"] == 2 and payload["schema"] == 1

    def test_word_file(self, capsys, tmp_path):
        wf = tmp_path / "word.txt"
        wf.write_text("abc" * 9 + "\n")
        code, out, _ = run(capsys, "mh", "--word-file", str(wf), "--n0", "3")
        assert code == 0 and "period 3" in out


class TestStructureCommands:
    def test_generating(self, configs, capsys):
        code, out, _ = run(
            capsys, "generating", "--config", configs["checker"], "--shape", "rect:2,2"
        )
        assert code == 0 and "vertices generated: True" in out

    def test_generating_no_claim(self, configs, capsys):
        code, out, _ = run(
            capsys, "generating", "--config", configs["defect"], "--shape", "rect:2,2"
        )
        assert code == 0 and out.startswith("no claim")

    @pytest.mark.parametrize("command", ["phi", "striplemma"])
    def test_json_no_claim(self, configs, capsys, command):
        code, out, _ = run(
            capsys, "--json", command, "--config", configs["defect_pair"],
            "--shape", "rect:2,2", "--line", "0,1", "--p", "1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1 and payload["status"] == "no_claim"
        assert payload["reason"]

    def test_balanced_and_phi_and_striplemma(self, configs, capsys):
        code, out, _ = run(
            capsys, "--json", "balanced", "--config", configs["diag"],
            "--shape", "rect:3,4", "--line", "1,0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 0 and payload["drop"] <= payload["drop_bound"]
        shape = "points:" + ";".join(f"{x},{y}" for x, y in payload["set"])
        code, out, _ = run(
            capsys, "phi", "--config", configs["diag"], "--shape", shape,
            "--line", "1,0", "--p", "0",
        )
        assert code == 0 and "phi = 0" in out
        code, out, _ = run(
            capsys, "striplemma", "--config", configs["diag"], "--shape", shape,
            "--line", "1,0", "--p", "0", "--window", "12",
        )
        assert code == 0 and "pass" in out

    def test_phi_p_zero_with_classes_is_no_claim(self, configs, capsys):
        code, out, err = run(
            capsys, "phi", "--config", configs["diag"], "--shape", "rect:2,2",
            "--line", "1,1", "--p", "0",
        )
        assert code == 0 and err == ""
        assert out == "no claim: p = 0 but ambiguous-extension classes exist\n"

    def test_striplemma_nonvacuous_and_strict_inconclusive(self, configs, capsys):
        code, out, _ = run(
            capsys, "--json", "striplemma", "--config", configs["ambiguous"],
            "--shape", "rect:2,2", "--line", "1,0", "--p", "2", "--window", "20",
        )
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "pass" and not payload["vacuous"]
        # a window shorter than three bounds cannot decide; strict mode exits 2
        code, out, _ = run(
            capsys, "--strict", "striplemma", "--config", configs["ambiguous"],
            "--shape", "rect:2,2", "--line", "1,0", "--p", "2", "--window", "2",
        )
        assert code == 2 and "inconclusive" in out

    def test_phi_max_branch(self, configs, capsys):
        code, out, _ = run(
            capsys, "phi", "--config", configs["ambiguous"],
            "--shape", "rect:2,2", "--line", "1,0", "--p", "2",
        )
        assert code == 0 and "phi = 2 (max_alphabet_form" in out

    def test_phi_large_block_matches_library(self, configs, capsys):
        # One directional language per orbit puts this block within tier-1's reach.
        code, out, _ = run(
            capsys, "--json", "phi", "--config", configs["diag"],
            "--shape", "rect:9,10", "--line", "1,0", "--p", "2",
        )
        rep = nivatlab.phi(nivatlab.DiagonalFamily(), nivatlab.block(9, 10), nivatlab.Line(1, 0, 0), 2)
        assert code == 0
        assert json.loads(out) == {
            "schema": 1, "phi": rep.value, "case": rep.case, "diff": rep.diff,
            "classes": len(rep.classes), "scope": rep.scope,
        }

    def test_witness(self, configs, capsys):
        code, out, _ = run(
            capsys, "witness", "--config", configs["diag"], "--line", "1,1", "--radius", "1"
        )
        assert code == 0 and "no witness" in out
        code, out, _ = run(
            capsys, "witness", "--config", configs["checker"], "--line", "1,0", "--radius", "1"
        )
        assert code == 0 and "generated point" in out


class TestShapesAndErrors:
    def test_hull_and_quasiregular(self, capsys):
        code, out, _ = run(capsys, "hull", "--shape", "points:0,0;2,0;0,2")
        assert code == 0 and "6 points" in out
        code, out, _ = run(capsys, "quasiregular", "--shape", "points:0,0;2,0;0,2")
        assert code == 0 and "False" in out

    def test_thin_hull_in_a_fresh_process(self):
        """A 1,003-point hull whose bounding box holds a million points prints at once."""
        code, out, err = run_separately("--json", "hull", "--shape", "points:0,0;1000,1001;1001,1000")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert len(payload["points"]) == 1003
        assert payload["vertices"] == [[0, 0], [1001, 1000], [1000, 1001]]
        assert payload["twice_area"] == 2001
        assert [e["count"] for e in payload["edges"]] == [2, 2, 2]

    def test_malformed_config_diagnostic(self, configs, capsys):
        code, _, err = run(capsys, "nivat", "--config", configs["bad"], "--shape", "rect:2,2")
        assert code == 1 and "line" in err

    @pytest.mark.parametrize("spec", [
        {"type": "doubly_periodic", "rows": ["ab"]},
        {"type": "finite_defect", "background": "w", "defects": [[0, 0, "b"]]},
        {"type": "window", "rows": ["ab", "ba"]},
    ])
    def test_missing_alphabet_diagnostic(self, capsys, tmp_path, spec):
        path = tmp_path / "no_alphabet.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "complexity", "--config", str(path), "--shape", "rect:1,1")
        assert code == 1
        assert err == "error: missing field 'alphabet' in configuration spec\n"

    @pytest.mark.parametrize("spec, field", [
        ({"type": "doubly_periodic", "alphabet": ["a", "b"], "rows": [1, 2]}, "'rows'"),
        ([1, 2], "JSON object"),
        ({"type": "finite_defect", "alphabet": ["w", "b"], "background": "w",
          "defects": [[0, 0]]}, "'defects'"),
    ])
    def test_malformed_field_diagnostic(self, tmp_path, spec, field):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_separately("complexity", "--config", str(path), "--shape", "rect:1,1")
        lines = err.splitlines()
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("basis, entries, message", PERIODIC_TABLES)
    def test_periodic_table_diagnostic(self, capsys, tmp_path, basis, entries, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"type": "doubly_periodic", "alphabet": ["a", "b"],
                                    "basis": basis, "table": entries}))
        code, out, err = run(capsys, "complexity", "--config", str(path), "--shape", "rect:1,1")
        if message is None:
            # The first accepted table is a checkerboard: its period lattice (2,0),(1,1)
            # has index 2.  The second has no period outside its basis lattice.
            translates = {((2, 0), (0, 2)): 2, ((2, 0), (1, 2)): 4}[basis]
            assert (code, out, err) == (0, f"P = 2 (exact, {translates} translates)\n", "")
        else:
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec, message", [(spec, message) for _, _, spec, message in BODY_DIAGNOSTICS])
    def test_body_diagnostic(self, capsys, tmp_path, spec, message):
        path = tmp_path / "body.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "complexity", "--config", str(path), "--shape", "rect:1,1")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,literal,form", [
        (["hull", "--shape", "rect:1"], "'rect:1'", "rect:N,K"),
        (["hull", "--shape", "rect:a,b"], "'rect:a,b'", "rect:N,K"),
        (["hull", "--shape", "rect:2,3,4"], "'rect:2,3,4'", "rect:N,K"),
        (["hull", "--shape", "points:0,0;1"], "'points:0,0;1'", "points:X,Y;X,Y;..."),
        (["table", "--config", "DIAG", "--max", "3"], "'3'", "N,K"),
        (["table", "--config", "DIAG", "--max", "3,x"], "'3,x'", "N,K"),
        (["phi", "--config", "DIAG", "--shape", "rect:2,2", "--line", "1,a", "--p", "1"],
         "'1,a'", "DX,DY or DX,DY,C"),
    ])
    def test_malformed_literal_is_quoted(self, configs, argv, literal, form):
        argv = [configs["diag"] if a == "DIAG" else a for a in argv]
        code, out, err = run_separately(*argv)
        lines = err.splitlines()
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert literal in lines[0] and form in lines[0]
        assert "Traceback" not in err

    def test_plain_grid_window(self, configs, capsys):
        code, out, _ = run(
            capsys, "complexity", "--config", configs["grid"], "--shape", "rect:2,2"
        )
        assert code == 0 and "lower bound" in out

    def test_bad_shape_literal(self, configs, capsys):
        code, _, err = run(capsys, "hull", "--shape", "circle:3")
        assert code == 1 and "unrecognized shape literal" in err

    def test_periods_command(self, configs, capsys):
        code, out, _ = run(capsys, "periods", "--config", configs["checker"], "--bound", "2")
        assert code == 0 and "(1, 1)" in out


class TestExampleSuiteCommand:
    def test_reports_boundary_mismatches(self, capsys):
        code, out, _ = run(capsys, "--json", "example-suite")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert all(f["n"] + f["k"] == 14 for f in payload["failures"])
