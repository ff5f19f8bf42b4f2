"""Command-line interface.

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

from . import __version__
from .complexity import complexity, complexity_table, language, table_to_csv
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


def _ints(text: str, count: int, malformed: str, sep: str | None = ",") -> tuple[int, ...]:
    """Exactly count integers separated by sep; NivatlabError(malformed) otherwise."""
    try:
        values = tuple(int(v) for v in text.split(sep))
    except ValueError:
        values = ()
    if len(values) != count:
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
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) == 2:
        return Line.make(parts[0], parts[1], 0)
    if len(parts) == 3:
        return Line.make(*parts)
    raise NivatlabError(f"line literal must be DX,DY or DX,DY,C, got {text!r}")


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


def _inconclusive_exit(args) -> int:
    return EXIT_INCONCLUSIVE if args.strict else EXIT_OK


# -- subcommand handlers -------------------------------------------------------


def cmd_hull(args) -> int:
    s = parse_shape(args.shape)
    emit(
        args,
        f"{len(s)} points, {len(s.vertices)} vertices, "
        f"{len(s.edges)} edges, area {Fraction(s.twice_area(), 2)}",
        {
            "points": sorted(s.points),
            "vertices": list(s.vertices),
            "edges": [
                {"start": e.start, "end": e.end, "count": e.lattice_count} for e in s.edges
            ],
            "twice_area": s.twice_area(),
        },
    )
    return EXIT_OK


def cmd_quasiregular(args) -> int:
    s = parse_shape(args.shape)
    rep = is_quasi_regular(s)
    emit(
        args,
        f"quasi-regular: {rep.quasi_regular}"
        + ("" if rep.quasi_regular else f" (edge {rep.violating_edge.start}->{rep.violating_edge.end} unmatched)"),
        {
            "quasi_regular": rep.quasi_regular,
            "pairing": list(rep.pairing),
            "violating_edge": None
            if rep.violating_edge is None
            else [rep.violating_edge.start, rep.violating_edge.end],
        },
    )
    return EXIT_OK


def cmd_complexity(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    rep = complexity(config, s)
    tag = "exact" if rep.exact else "lower bound"
    payload = {"count": rep.count, "exact": rep.exact, "translates": rep.translates_examined}
    if args.dump:
        pats = sorted(language(config, s), key=lambda p: p.cells)
        payload["patterns"] = [p.render() for p in pats]
        if not args.json:
            print(f"P = {rep.count} ({tag}, {rep.translates_examined} translates)")
            for i, p in enumerate(pats):
                print(f"-- pattern {i}")
                print(p.render())
            return EXIT_OK
    emit(
        args,
        f"P = {rep.count} ({tag}, {rep.translates_examined} translates)",
        payload,
    )
    return EXIT_OK


def cmd_table(args) -> int:
    config = load_config(args.config)
    n_max, k_max = _ints(args.max, 2, f"--max literal {args.max!r} is not of the form N,K")
    table = complexity_table(config, n_max, k_max)
    csv_text = table_to_csv(table)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        emit(args, f"wrote {len(table)} rows to {args.csv}", {"rows": len(table), "path": args.csv})
    else:
        if args.json:
            emit(args, "", {"rows": [
                {"n": n, "k": k, "count": r.count, "exact": r.exact}
                for (n, k), r in sorted(table.items())
            ]})
        else:
            sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_mh(args) -> int:
    word = parse_word(args)
    rep = mh_check(word, args.n0, mode=args.mode)
    human = (
        f"P({args.n0}) = {rep.factor_count}, bound {rep.predicted_period_bound}: {rep.status.value}"
        + (f", period {rep.period}" if rep.period is not None else "")
    )
    emit(args, human, {
        "n0": rep.n0, "alphabet_size": rep.alphabet_size, "factor_count": rep.factor_count,
        "bound": rep.predicted_period_bound, "hypothesis_holds": rep.hypothesis_holds,
        "status": rep.status.value, "period": rep.period, "mode": rep.mode,
    })
    if rep.status is MHStatus.VIOLATION:
        return EXIT_ERROR
    if rep.status is MHStatus.WINDOW_TOO_SHORT:
        return _inconclusive_exit(args)
    return EXIT_OK


def cmd_finewilf(args) -> int:
    word = parse_word(args)
    rep = fine_wilf(word, args.p, args.q)
    human = (
        f"combined period {rep.combined_period}"
        if rep.applies
        else f"window too short ({rep.length} < {rep.required_length}); no combined-period claim"
    )
    emit(args, human, {
        "p": rep.p, "q": rep.q, "length": rep.length,
        "required_length": rep.required_length, "applies": rep.applies,
        "combined_period": rep.combined_period,
    })
    return EXIT_OK


def cmd_periods(args) -> int:
    config = load_config(args.config)
    rep = detect_periods_2d(config, args.bound)
    tag = "certified" if rep.certified else "window-verified only"
    emit(args, f"{len(rep.periods)} periods within {args.bound} ({tag}): {list(rep.periods)}",
         {"periods": [list(h) for h in rep.periods], "certified": rep.certified,
          "bound": rep.search_bound})
    return EXIT_OK


def _emit_generating(args, result) -> None:
    emit(
        args,
        f"set {sorted(result.set.points)}; {result.bound_check}; "
        f"vertices generated: {all(c.generated for c in result.certificates)}",
        {
            "set": sorted(result.set.points),
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
    )


def cmd_generating(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    if args.line:
        result = find_directional_generating_set(config, s, parse_line(args.line))
    else:
        result = find_generating_set(config, s)
    _emit_generating(args, result)
    return EXIT_OK


def cmd_mlc(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    _emit_generating(args, find_mlc_set(config, s))
    return EXIT_OK


def cmd_balanced(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    line = parse_line(args.line)
    witness_absent = True
    witness_payload = None
    if args.witness_radius > 0:
        w = expansive_witness(config, line, args.witness_radius)
        witness_absent = not w.found
        witness_payload = {
            "found": w.found,
            "set": sorted(w.witness.points) if w.witness else None,
        }
    cert = construct_balanced_set(config, s, line, witness_absent=witness_absent)
    emit(
        args,
        f"balanced set {sorted(cert.set.points)}, p = {cert.p}, "
        f"drop {cert.drop} <= {cert.drop_bound}, "
        f"sections {len(cert.support_section)}/{len(cert.antiparallel_section)}, "
        f"nonexpansive regime: {cert.nonexpansive_regime}",
        {
            "set": sorted(cert.set.points),
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
    )
    return EXIT_OK


def cmd_phi(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    line = parse_line(args.line)
    rep = phi(config, s, line, args.p)
    emit(args, f"phi = {rep.value} ({rep.case}; empirical over {len(rep.classes)} classes)",
         {"phi": rep.value, "case": rep.case, "diff": rep.diff,
          "classes": len(rep.classes), "scope": rep.scope})
    return EXIT_OK


def cmd_striplemma(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    line = parse_line(args.line)
    rep = verify_strip_lemma(config, s, line, args.p, args.window)
    emit(
        args,
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
    )
    if rep.status.value == "fail":
        return EXIT_ERROR
    if rep.status.value == "inconclusive":
        return _inconclusive_exit(args)
    return EXIT_OK


def cmd_witness(args) -> int:
    config = load_config(args.config)
    line = parse_line(args.line)
    rep = expansive_witness(config, line, args.radius)
    human = (
        f"witness {sorted(rep.witness.points)} with generated point {rep.point}"
        if rep.found
        else f"no witness within radius {args.radius} ({rep.sets_examined} sets examined); not a nonexpansiveness proof"
    )
    emit(args, human, {
        "found": rep.found,
        "witness": sorted(rep.witness.points) if rep.witness else None,
        "point": rep.point,
        "sets_examined": rep.sets_examined,
        "radius": rep.radius,
    })
    return EXIT_OK


def cmd_nivat(args) -> int:
    config = load_config(args.config)
    s = parse_shape(args.shape)
    rep = nivat_check(config, s, period_bound=args.period_bound)
    emit(
        args,
        f"{rep.verdict.value.upper()}: P = {rep.complexity.count}"
        f"{'' if rep.complexity.exact else '+'} vs bound {rep.bound}; "
        f"quasi-regular {rep.quasi_regular}; periods {list(rep.periods.periods)}",
        rep.to_dict(),
    )
    if rep.verdict is Verdict.VIOLATION:
        return EXIT_ERROR
    if rep.verdict is Verdict.INCONCLUSIVE:
        return _inconclusive_exit(args)
    return EXIT_OK


def cmd_example_suite(args) -> int:
    result = example_suite()
    failures = result.failures()
    emit(
        args,
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
    )
    return EXIT_OK if result.passed else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nivatlab",
        description="Exact pattern complexity and periodicity analysis on Z^2.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 on inconclusive outcomes instead of 0")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *required):
        """A subcommand with its handler, followed by its required --flags in order."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for flag in required:
            p.add_argument(f"--{flag}", required=True)
        return p

    add("hull", cmd_hull, "convex lattice hull of a shape literal", "shape")
    add("quasiregular", cmd_quasiregular, "antiparallel edge pairing check", "shape")

    p = add("complexity", cmd_complexity, "pattern count of a shape", "config", "shape")
    p.add_argument("--dump", action="store_true", help="also print every pattern as a text grid")

    p = add("table", cmd_table, "block complexity table", "config")
    p.add_argument("--max", required=True, metavar="N,K")
    p.add_argument("--csv", help="write CSV to this path")

    p = add("mh", cmd_mh, "complexity-to-periodicity bound on a word")
    p.add_argument("--word")
    p.add_argument("--word-file")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--mode", choices=["one_sided", "two_sided"], default="one_sided")

    p = add("finewilf", cmd_finewilf, "combine two verified periods")
    p.add_argument("--word")
    p.add_argument("--word-file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("periods", cmd_periods, "periods within a sup-norm bound", "config")
    p.add_argument("--bound", type=int, default=8)

    p = add("generating", cmd_generating, "minimal generating set (optionally directional)",
            "config", "shape")
    p.add_argument("--line", help="direction DX,DY[,C] for the directional variant")

    add("mlc", cmd_mlc, "minimal half-bound generating set", "config", "shape")

    p = add("balanced", cmd_balanced, "constructive balanced-set certificate",
            "config", "shape", "line")
    p.add_argument("--witness-radius", type=int, default=1)

    p = add("phi", cmd_phi, "strip-extension budget", "config", "shape", "line")
    p.add_argument("--p", type=int, required=True)

    p = add("striplemma", cmd_striplemma, "strip periodicity harness", "config", "shape", "line")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--window", type=int, default=12)

    p = add("witness", cmd_witness, "one-sided expansiveness witness search", "config", "line")
    p.add_argument("--radius", type=int, default=1)

    p = add("nivat", cmd_nivat, "hypothesis/conclusion check on a configuration", "config", "shape")
    p.add_argument("--period-bound", type=int)

    add("example-suite", cmd_example_suite, "reference-family value checks")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConstructionError, SoundnessError) as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except HypothesisNotMet as exc:
        emit(args, f"no claim: {exc}", {"status": "no_claim", "reason": str(exc)})
        return EXIT_OK
    except NivatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
