import json
import os
import subprocess
import sys

import pytest

import nivatlab
from nivatlab.cli import cli_main


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
        src = os.path.dirname(os.path.dirname(nivatlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "nivatlab.cli", "complexity", "--config", str(path),
             "--shape", "rect:1,1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]
        assert "Traceback" not in proc.stderr

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
        src = os.path.dirname(os.path.dirname(nivatlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "nivatlab.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert literal in lines[0] and form in lines[0]
        assert "Traceback" not in proc.stderr

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
