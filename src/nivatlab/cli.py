"""Command-line interface.

One table, `_COMMANDS`, says what each subcommand reads: `cli_main` reads its
required `--config`, `--shape` and `--line` in the order the table lists them
and passes them to the handler.  The handler returns its human text, JSON
payload and exit code, and `cli_main` alone prints and picks the exit code,
so a global flag is handled there once and not in every handler.

Exit codes: 0 for success (including vacuous verdicts and no-claim results),
1 for errors and soundness violations, 2 for inconclusive outcomes under
--strict.  All output is deterministic; --json emits machine-readable reports
tagged with a schema version.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .complexity import _language_grids, complexity, complexity_table, table_to_csv
from .configurations import (
    Alphabet,
    Configuration,
    WindowSample,
    config_from_dict,
)
from .errors import (
    ConstructionError,
    HypothesisNotMet,
    NivatlabError,
    SoundnessError,
)
from .geometry import ConvexLatticeSet, Line, block, convex_hull, is_quasi_regular
from .structure import (
    construct_balanced_set,
    expansive_witness,
    find_directional_generating_set,
    find_generating_set,
    find_mlc_set,
    phi,
    verify_strip_lemma,
)
from .verifier import Verdict, example_suite, nivat_check
from .words import MHStatus, Word, detect_periods_2d, fine_wilf, mh_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _ints(text: str, count: int, malformed: str, sep: str | None = ",", most: int = 0) -> tuple[int, ...]:
    """count (up to most, if given) integers separated by sep; NivatlabError(malformed) otherwise."""
    try:
        values = tuple(int(v) for v in text.split(sep))
    except ValueError:
        values = ()
    if not count <= len(values) <= max(count, most):
        raise NivatlabError(malformed)
    return values


def parse_shape(text: str) -> ConvexLatticeSet:
    if text.startswith("rect:"):
        return block(*_ints(text[5:], 2, f"shape literal {text!r} is not of the form rect:N,K"))
    if text.startswith("points:"):
        malformed = f"shape literal {text!r} is not of the form points:X,Y;X,Y;..."
        return convex_hull(_ints(chunk, 2, malformed) for chunk in text[7:].split(";"))
    if text.startswith("file:"):
        pts = []
        with open(text[5:], encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                if raw.strip():
                    pts.append(_ints(raw, 2, f"shape file line {line_no}: expected 'x y'", None))
        return convex_hull(pts)
    raise NivatlabError(f"unrecognized shape literal {text!r} (rect:N,K | points:... | file:...)")


def parse_line(text: str) -> Line:
    return Line.make(*_ints(text, 2, f"line literal must be DX,DY or DX,DY,C, got {text!r}", most=3))


def load_config(path: str) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        # Plain character grids double as window samples.
        rows = [r for r in raw.splitlines() if r.strip()]
        if rows and len(set(map(len, rows))) == 1 and not raw.lstrip().startswith("{"):
            letters = tuple(sorted(set("".join(rows))))
            return WindowSample(Alphabet(letters), (0, 0), rows)
        raise NivatlabError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    return config_from_dict(spec)


# The reader of each required input a command lists in _COMMANDS, by its flag.
_INPUTS = {"config": load_config, "shape": parse_shape, "line": parse_line}


def parse_word(args) -> Word:
    if args.word is not None:
        return Word.from_text(args.word)
    if args.word_file is None:
        raise NivatlabError("provide --word or --word-file")
    with open(args.word_file, encoding="utf-8") as fh:
        return Word.from_text(fh.read().strip())


def emit(args, human: str, payload: dict) -> None:
    if args.json:
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(human)


# -- subcommand handlers -------------------------------------------------------
#
# Each takes the parsed args and then its required inputs, already read, in
# the order _COMMANDS lists them.  It returns (human text, JSON payload, exit
# code); cli_main prints one of the two and exits with the code.

Output = tuple[str, dict, int]


def cmd_hull(args, shape) -> Output:
    edges = [{"start": e.start, "end": e.end, "count": e.lattice_count} for e in shape.edges]
    return (
        f"{len(shape)} points, {len(shape.vertices)} vertices, "
        f"{len(edges)} edges, area {Fraction(shape.twice_area(), 2)}",
        {"points": list(shape.cells), "vertices": list(shape.vertices), "edges": edges,
         "twice_area": shape.twice_area()},
        EXIT_OK,
    )


def cmd_quasiregular(args, shape) -> Output:
    rep = is_quasi_regular(shape)
    edge = None if rep.violating_edge is None else [rep.violating_edge.start, rep.violating_edge.end]
    return (
        f"quasi-regular: {rep.quasi_regular}"
        + ("" if rep.quasi_regular else f" (edge {edge[0]}->{edge[1]} unmatched)"),
        {"quasi_regular": rep.quasi_regular, "pairing": list(rep.pairing), "violating_edge": edge},
        EXIT_OK,
    )


def cmd_complexity(args, config, shape) -> Output:
    rep, grids = _language_grids(config, shape) if args.dump else (complexity(config, shape), None)
    tag = "exact" if rep.exact else "lower bound"
    human = f"P = {rep.count} ({tag}, {rep.translates_examined} translates)"
    payload = {"count": rep.count, "exact": rep.exact, "translates": rep.translates_examined}
    if grids is not None:
        payload["patterns"] = grids
        if not args.json:
            human = "\n".join([human, *(f"-- pattern {i}\n{grid}" for i, grid in enumerate(grids))])
    return human, payload, EXIT_OK


def cmd_table(args, config) -> Output:
    n_max, k_max = _ints(args.max, 2, f"--max literal {args.max!r} is not of the form N,K")
    table = complexity_table(config, n_max, k_max)
    csv_text = table_to_csv(table)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        return f"wrote {len(table)} rows to {args.csv}", {"rows": len(table), "path": args.csv}, EXIT_OK
    # The plain text is the CSV itself, less the final newline that printing adds back.
    return csv_text[:-1], {"rows": [
        {"n": n, "k": k, "count": r.count, "exact": r.exact} for (n, k), r in sorted(table.items())
    ]}, EXIT_OK


def cmd_mh(args) -> Output:
    rep = mh_check(parse_word(args), args.n0, mode=args.mode)
    human = (
        f"P({args.n0}) = {rep.factor_count}, bound {rep.predicted_period_bound}: {rep.status.value}"
        + (f", period {rep.period}" if rep.period is not None else "")
    )
    code = {MHStatus.VIOLATION: EXIT_ERROR, MHStatus.WINDOW_TOO_SHORT: EXIT_INCONCLUSIVE}
    return human, {
        "n0": rep.n0, "alphabet_size": rep.alphabet_size, "factor_count": rep.factor_count,
        "bound": rep.predicted_period_bound, "hypothesis_holds": rep.hypothesis_holds,
        "status": rep.status.value, "period": rep.period, "mode": rep.mode,
    }, code.get(rep.status, EXIT_OK)


def cmd_finewilf(args) -> Output:
    rep = fine_wilf(parse_word(args), args.p, args.q)
    human = (
        f"combined period {rep.combined_period}"
        if rep.applies
        else f"window too short ({rep.length} < {rep.required_length}); no combined-period claim"
    )
    return human, {
        "p": rep.p, "q": rep.q, "length": rep.length,
        "required_length": rep.required_length, "applies": rep.applies,
        "combined_period": rep.combined_period,
    }, EXIT_OK


def cmd_periods(args, config) -> Output:
    rep = detect_periods_2d(config, args.bound)
    tag = "certified" if rep.certified else "window-verified only"
    return (f"{len(rep.periods)} periods within {args.bound} ({tag}): {list(rep.periods)}",
            {"periods": [list(h) for h in rep.periods], "certified": rep.certified,
             "bound": rep.search_bound},
            EXIT_OK)


def _generating_output(result) -> Output:
    return (
        f"set {list(result.set.cells)}; {result.bound_check}; "
        f"vertices generated: {all(c.generated for c in result.certificates)}",
        {
            "set": list(result.set.cells),
            "kind": result.kind.value,
            "count": result.bound_check.count,
            "size": result.bound_check.size,
            "bound": str(result.bound_check.bound),
            "certificates": [
                {"point": c.point, "with": c.count_with, "without": c.count_without}
                for c in result.certificates
            ],
            "remark_drop": result.remark_i,
            "peeling": list(result.peeling_trace),
            "subsets_examined": result.subsets_examined,
        },
        EXIT_OK,
    )


def cmd_generating(args, config, shape) -> Output:
    if args.line is not None:
        return _generating_output(find_directional_generating_set(config, shape, parse_line(args.line)))
    return _generating_output(find_generating_set(config, shape))


def cmd_mlc(args, config, shape) -> Output:
    return _generating_output(find_mlc_set(config, shape))


def cmd_balanced(args, config, shape, line) -> Output:
    witness_absent = True
    witness_payload = None
    if args.witness_radius != 0:
        w = expansive_witness(config, line, args.witness_radius)
        witness_absent = not w.found
        witness_payload = {
            "found": w.found,
            "set": list(w.witness.cells) if w.witness else None,
        }
    cert = construct_balanced_set(config, shape, line, witness_absent=witness_absent)
    return (
        f"balanced set {list(cert.set.cells)}, p = {cert.p}, "
        f"drop {cert.drop} <= {cert.drop_bound}, "
        f"sections {len(cert.support_section)}/{len(cert.antiparallel_section)}, "
        f"nonexpansive regime: {cert.nonexpansive_regime}",
        {
            "set": list(cert.set.cells),
            "p": cert.p,
            "drop": cert.drop,
            "drop_bound": cert.drop_bound,
            "support_section": list(cert.support_section),
            "antiparallel_section": list(cert.antiparallel_section),
            "condition_i": [list(w) for w in cert.condition_i],
            "condition_ii": [list(w) for w in cert.condition_ii],
            "nonexpansive_regime": cert.nonexpansive_regime,
            "expansive_witness": witness_payload,
            "scope": cert.scope,
        },
        EXIT_OK,
    )


def cmd_phi(args, config, shape, line) -> Output:
    rep = phi(config, shape, line, args.p)
    return (f"phi = {rep.value} ({rep.case}; empirical over {len(rep.classes)} classes)",
            {"phi": rep.value, "case": rep.case, "diff": rep.diff,
             "classes": len(rep.classes), "scope": rep.scope},
            EXIT_OK)


def cmd_striplemma(args, config, shape, line) -> Output:
    rep = verify_strip_lemma(config, shape, line, args.p, args.window)
    code = {"fail": EXIT_ERROR, "inconclusive": EXIT_INCONCLUSIVE}
    return (
        f"strip lemma: {rep.status.value}"
        + (" (vacuous: no ambiguous-extension classes)" if rep.vacuous else ""),
        {
            "status": rep.status.value,
            "vacuous": rep.vacuous,
            "data_exact": rep.data_exact,
            "outcomes": [
                {"translate": o.translate, "bound": o.bound, "period": o.period, "status": o.status}
                for o in rep.outcomes
            ],
            "scope": rep.scope,
        },
        code.get(rep.status.value, EXIT_OK),
    )


def cmd_witness(args, config, line) -> Output:
    rep = expansive_witness(config, line, args.radius)
    human = (
        f"witness {list(rep.witness.cells)} with generated point {rep.point}"
        if rep.found
        else f"no witness within radius {args.radius} ({rep.sets_examined} sets examined); not a nonexpansiveness proof"
    )
    return human, {
        "found": rep.found,
        "witness": list(rep.witness.cells) if rep.witness else None,
        "point": rep.point,
        "sets_examined": rep.sets_examined,
        "radius": rep.radius,
    }, EXIT_OK


def cmd_nivat(args, config, shape) -> Output:
    rep = nivat_check(config, shape, period_bound=args.period_bound)
    code = {Verdict.VIOLATION: EXIT_ERROR, Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}
    return (
        f"{rep.verdict.value.upper()}: P = {rep.complexity.count}"
        f"{'' if rep.complexity.exact else '+'} vs bound {rep.bound}; "
        f"quasi-regular {rep.quasi_regular}; periods {list(rep.periods.periods)}",
        rep.to_dict(),
        code.get(rep.verdict, EXIT_OK),
    )


def cmd_example_suite(args) -> Output:
    result = example_suite()
    failures = result.failures()
    return (
        f"{len(result.rows)} closed-form rows + {len(result.cyr_kra_rows)} strict-bound rows; "
        + ("all match" if result.passed else f"{len(failures)} mismatches: "
           + ", ".join(f"({r.n},{r.k}) got {r.count} expected {r.expected}" for r in failures[:6])),
        {
            "passed": result.passed,
            "rows": len(result.rows) + len(result.cyr_kra_rows),
            "failures": [
                {"n": r.n, "k": r.k, "count": r.count, "expected": r.expected} for r in failures
            ],
        },
        EXIT_OK if result.passed else EXIT_ERROR,
    )


# name: (handler, help, required --flags in order, further (flag, add_argument options))
_COMMANDS = {
    "hull": (cmd_hull, "convex lattice hull of a shape literal", ("shape",), ()),
    "quasiregular": (cmd_quasiregular, "antiparallel edge pairing check", ("shape",), ()),
    "complexity": (cmd_complexity, "pattern count of a shape", ("config", "shape"), (
        ("--dump", dict(action="store_true", help="also print every pattern as a text grid")),
    )),
    "table": (cmd_table, "block complexity table", ("config",), (
        ("--max", dict(required=True, metavar="N,K")),
        ("--csv", dict(help="write CSV to this path")),
    )),
    "mh": (cmd_mh, "complexity-to-periodicity bound on a word", (), (
        ("--word", {}),
        ("--word-file", {}),
        ("--n0", dict(type=int, required=True)),
        ("--mode", dict(choices=["one_sided", "two_sided"], default="one_sided")),
    )),
    "finewilf": (cmd_finewilf, "combine two verified periods", (), (
        ("--word", {}),
        ("--word-file", {}),
        ("--p", dict(type=int, required=True)),
        ("--q", dict(type=int, required=True)),
    )),
    "periods": (cmd_periods, "periods within a sup-norm bound", ("config",), (
        ("--bound", dict(type=int, default=8)),
    )),
    "generating": (cmd_generating, "minimal generating set (optionally directional)",
                   ("config", "shape"), (
        ("--line", dict(help="direction DX,DY[,C] for the directional variant")),
    )),
    "mlc": (cmd_mlc, "minimal half-bound generating set", ("config", "shape"), ()),
    "balanced": (cmd_balanced, "constructive balanced-set certificate", ("config", "shape", "line"), (
        ("--witness-radius", dict(type=int, default=1)),
    )),
    "phi": (cmd_phi, "strip-extension budget", ("config", "shape", "line"), (
        ("--p", dict(type=int, required=True)),
    )),
    "striplemma": (cmd_striplemma, "strip periodicity harness", ("config", "shape", "line"), (
        ("--p", dict(type=int, required=True)),
        ("--window", dict(type=int, default=12)),
    )),
    "witness": (cmd_witness, "one-sided expansiveness witness search", ("config", "line"), (
        ("--radius", dict(type=int, default=1)),
    )),
    "nivat": (cmd_nivat, "hypothesis/conclusion check on a configuration", ("config", "shape"), (
        ("--period-bound", dict(type=int)),
    )),
    "example-suite": (cmd_example_suite, "reference-family value checks", (), ()),
}


def _top_parser(**subparsers) -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    """The top-level parser and its still empty subcommand action."""
    parser = argparse.ArgumentParser(
        prog="nivatlab",
        description="Exact pattern complexity and periodicity analysis on Z^2.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 on inconclusive outcomes instead of 0")
    return parser, parser.add_subparsers(dest="command", required=True, **subparsers)


def _add_command(sub: argparse._SubParsersAction, name: str) -> None:
    _, help, required, options = _COMMANDS[name]
    p = sub.add_parser(name, help=help)
    for flag in required:
        p.add_argument(f"--{flag}", required=True)
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand, built once: it keeps no state between parses."""
    parser, sub = _top_parser()
    for name in _COMMANDS:
        _add_command(sub, name)
    return parser


@cache
def _command_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    """The top-level parser that `_parser_for` adds subcommands to one at a time.

    Its metavar names every subcommand, so the usage it prints with an
    "unrecognized arguments" error is the full parser's.
    """
    return _top_parser(metavar="{" + ",".join(_COMMANDS) + "}")


def _parser_for(argv: list[str]) -> argparse.ArgumentParser:
    """A parser that treats argv exactly as `build_parser()` does.

    When argv is only `--json` and `--strict` flags followed by a known
    subcommand, that is the shared top-level parser holding the subcommands
    run so far, this one added if new; parsing never reaches the others.
    Any other argv (help, `--version`, abbreviated flags, a missing or
    unknown command) gets the full parser.
    """
    i = 0
    while i < len(argv) and argv[i] in ("--json", "--strict"):
        i += 1
    if i == len(argv) or argv[i] not in _COMMANDS:
        return build_parser()
    parser, sub = _command_parser()
    if argv[i] not in sub.choices:
        _add_command(sub, argv[i])
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser_for(argv).parse_args(argv)
    fn, _, required, _ = _COMMANDS[args.command]
    try:
        try:
            human, payload, code = fn(args, **{name: _INPUTS[name](getattr(args, name)) for name in required})
        except HypothesisNotMet as exc:
            human, payload, code = f"no claim: {exc}", {"status": "no_claim", "reason": str(exc)}, EXIT_OK
        emit(args, human, payload)
    except (ConstructionError, SoundnessError) as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (NivatlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if code == EXIT_INCONCLUSIVE and not args.strict else code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
