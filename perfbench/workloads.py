"""The four workloads: seeded inputs, the timed call of each op, and its reference.

Each workload function gets the imported library (`lib`, a dict of modules), a seeded
`random.Random` and a scratch directory for CLI config files, and returns a
list of `Op`.  Inputs vary with the seed only in ways that keep the work of
every op the same size: letters, orientation, placement and random content of
a fixed multiset of bodies and shapes.  Runs on different seeds therefore
measure the same amount of work and differ only by noise.

An op's reference is either a callable built on `oracle` (brute force that
never calls the library's counting engine) or, for structure searches whose
results no simple oracle reproduces, the entry under the op's key in
`expected.json`.  Structure-search inputs are fixed up to a renaming of the
letters, which no structure result depends on, so that record holds for
every seed.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import oracle

LETTERS = "abcdefghijkmnopqrstuvwxyz0123456789"
HORIZONTAL = (1, 0, 0)
VERTICAL = (0, 1, 0)


@dataclass
class Op:
    key: str
    call: Callable[[], Any]
    fingerprint: Callable[[Any], Any]
    reference: Callable[[], Any] | None = None  # None: the recorded result under `key`


class NoClaim(NamedTuple):
    """A `HypothesisNotMet` raised by the op: an expected outcome, not a failure."""

    reason: str


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    csv_path: str | None

    def bytes_out(self) -> int:
        size = len(self.stdout.encode()) + len(self.stderr.encode())
        return size + (os.path.getsize(self.csv_path) if self.csv_path else 0)


def plain(value):
    """The JSON form of a value: tuples become lists, dict keys strings."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def no_claim_or(fp):
    def fingerprint(result):
        if isinstance(result, NoClaim):
            return {"no_claim": result.reason}
        return plain(fp(result))

    return fingerprint


# -- fingerprints ------------------------------------------------------------------


def fp_count(report):
    return {"count": report.count, "exact": report.exact, "cells": len(report.shape)}


def fp_nivat(report):
    return report.to_dict()


def fp_language(patterns):
    return sorted("".join(p.letters) for p in patterns)


def fp_periods(report):
    return {"periods": sorted(report.periods), "certified": report.certified}


def fp_cli(result: CliResult):
    csv_text = None
    if result.csv_path:
        with open(result.csv_path, encoding="utf-8") as fh:
            csv_text = fh.read()
    out = result.stdout.strip()
    return {"exit": result.code, "stdout": json.loads(out) if out else None,
            "stderr": result.stderr, "csv": csv_text}


def fp_example_suite(result):
    return {"rows": [[r.n, r.k, r.count] for r in result.rows],
            "strict_rows": [[r.n, r.k, r.count, r.ok] for r in result.cyr_kra_rows]}


def fp_extensions(table):
    sizes = sorted(len(v) for v in table.extensions.values())
    return {"exact": table.exactness.value == "exact", "groups": sizes}


def fp_directional(lang):
    return {"count": len(lang), "exact": lang.exactness.value == "exact"}


def _pts(s):
    return sorted(s.points) if s is not None else None


def _line(line):
    return [line.dx, line.dy, line.c] if line is not None else None


def fp_generating(r):
    return {
        "set": _pts(r.set), "kind": r.kind.value,
        "certificates": [[c.point, c.count_with, c.count_without] for c in r.certificates],
        "bound": [r.bound_check.count, r.bound_check.size, str(r.bound_check.bound)],
        "line": _line(r.line), "remark_i": r.remark_i,
        "half_plane_line": _line(r.half_plane_line),
        "peeling": r.peeling_trace, "subsets_examined": r.subsets_examined,
    }


def _mclass(x):
    return [x.translate, len(x.base_language), x.alphabet_size, x.exactness.value]


def fp_phi(r):
    return {"value": r.value, "case": r.case, "diff": r.diff,
            "classes": [_mclass(x) for x in r.classes], "scope": r.scope}


def fp_m_classes(result):
    classes, diff = result
    return {"classes": [_mclass(x) for x in classes], "diff": diff}


def fp_balanced(c):
    return {
        "set": _pts(c.set), "line": _line(c.line), "p": c.p,
        "support": c.support_section, "antiparallel": c.antiparallel_section,
        "condition_i": c.condition_i, "condition_ii": c.condition_ii,
        "drop": c.drop, "drop_bound": c.drop_bound, "cut": c.half_plane_cut,
        "generating": fp_generating(c.generating), "nonexpansive": c.nonexpansive_regime,
    }


def fp_strip(r):
    return {"status": r.status.value, "vacuous": r.vacuous, "data_exact": r.data_exact,
            "outcomes": [[o.translate, o.bound, o.period, o.status] for o in r.outcomes]}


def fp_witness(r):
    return {"found": r.found, "witness": _pts(r.witness), "point": r.point,
            "sets_examined": r.sets_examined, "radius": r.radius}


# -- shared helpers ------------------------------------------------------------------


def cli_call(lib, argv: list[str], csv_path: str | None = None):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib["cli"].cli_main(argv)
        return CliResult(code, out.getvalue(), err.getvalue(), csv_path)

    return call


def write_config(tmp: str, name: str, spec: dict) -> str:
    path = os.path.join(tmp, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def csv_text(counts: dict[tuple[int, int], int], exact: bool) -> str:
    lines = ["n,k,count,exact"]
    lines += [f"{n},{k},{counts[(n, k)]},{'1' if exact else '0'}" for n, k in sorted(counts)]
    return "\n".join(lines) + "\n"


def random_rows(rng, letters: str, width: int, height: int) -> list[str]:
    """A random letter grid in which every letter occurs."""
    while True:
        rows = ["".join(rng.choice(letters) for _ in range(width)) for _ in range(height)]
        if set("".join(rows)) == set(letters):
            return rows


def line_of(lib, spec):
    return lib["geometry"].Line(*spec)


# -- diag-sweep ----------------------------------------------------------------------

DIAG_BLOCKS = [(1, 1), (1, 13), (2, 3), (3, 4), (4, 4), (6, 6), (5, 5), (12, 12), (9, 14),
               (15, 10), (13, 13), (11, 15), (16, 20), (22, 18), (30, 16)]
DIAG_NIVAT = [(3, 4), (4, 4), (6, 5), (8, 10), (12, 9), (14, 14)]
# A band of equal-cost mid-size queries, each placed by the seed, so that the
# median op falls inside it rather than between two differently sized ops.
DIAG_MIDDLE = [(8, 8)] * 7
DIAG_HEXAGONS = [(2, 1, 3), (3, 2, 2), (4, 3, 5), (6, 4, 7), (8, 5, 9)]
DIAG_HEXAGON_NIVAT = [(2, 1, 3), (4, 3, 5)]


def diag_sweep(lib, rng, tmp) -> list[Op]:
    nl, geo = lib["package"], lib["geometry"]
    black, white = rng.sample(LETTERS, 2)
    eta = nl.DiagonalFamily(black, white)
    diag_periods = [[-1, -1], [1, 1]]  # x = y within sup-norm 1: the family depends on x - y only

    def placed_block(n, k):
        if rng.random() < 0.5:
            n, k = k, n
        at = (rng.randint(-40, 40), rng.randint(-40, 40))
        return geo.block(n, k).translate(at), oracle.rect(n, k, at)

    def placed_hexagon(a, b, c):
        verts = [(0, 0), (a, 0), (a + b, b), (a + b, b + c), (b, b + c), (0, c)]
        pts = oracle.hexagon(a, b, c)
        if rng.random() < 0.5:
            verts = [(y, x) for x, y in verts]
            pts = [(y, x) for x, y in pts]
        at = (rng.randint(-40, 40), rng.randint(-40, 40))
        shift = lambda ps: [(x + at[0], y + at[1]) for x, y in ps]  # noqa: E731
        return geo.convex_hull(shift(verts)), shift(pts)

    def count_op(key, shape, pts):
        return Op(key, lambda: nl.complexity(eta, shape), no_claim_or(fp_count),
                  lambda: {"count": oracle.diagonal_count(pts), "exact": True, "cells": len(pts)})

    def nivat_op(key, shape, pts):
        return Op(key, lambda: nl.nivat_check(eta, shape), no_claim_or(fp_nivat),
                  lambda: oracle.nivat_payload(pts, oracle.diagonal_count(pts), True, 2,
                                               diag_periods, True))

    ops = []
    for n, k in DIAG_BLOCKS:
        ops.append(count_op(f"complexity diagonal block({n},{k})", *placed_block(n, k)))
    for n, k in DIAG_NIVAT:
        ops.append(nivat_op(f"nivat_check diagonal block({n},{k})", *placed_block(n, k)))
    for i, (n, k) in enumerate(DIAG_MIDDLE):
        ops.append(count_op(f"complexity diagonal block({n},{k}) #{i}", *placed_block(n, k)))
        ops.append(nivat_op(f"nivat_check diagonal block({n},{k}) #{i}", *placed_block(n, k)))
    for abc in DIAG_HEXAGONS:
        ops.append(count_op(f"complexity diagonal hexagon{abc}", *placed_hexagon(*abc)))
    for abc in DIAG_HEXAGON_NIVAT:
        ops.append(nivat_op(f"nivat_check diagonal hexagon{abc}", *placed_hexagon(*abc)))

    def suite_reference():
        rows = [[n, s - n, oracle.diagonal_count(oracle.rect(n, s - n))]
                for s in range(2, 15) for n in range(1, s)]
        strict = []
        for n in range(1, 13):
            for k in range(1, 13):
                count = oracle.diagonal_count(oracle.rect(n, k))
                strict.append([n, k, count, 2 * count > n * k])
        return {"rows": rows, "strict_rows": strict}

    # The suite's own `passed` is False by design (a stated closed form is
    # off by one at n + k = 14), so only its rows are compared.
    ops.append(Op("example_suite", lambda: nl.example_suite(), no_claim_or(fp_example_suite),
                  suite_reference))

    config = write_config(tmp, "diagonal", {"type": "diagonal_family", "black": black, "white": white})
    n, k = (5, 6) if rng.random() < 0.5 else (6, 5)
    pts = oracle.rect(n, k)
    ops.append(Op("cli nivat diagonal rect(5,6)",
                  cli_call(lib, ["--json", "nivat", "--config", config, "--shape", f"rect:{n},{k}"]),
                  no_claim_or(fp_cli),
                  lambda: {"exit": 0, "stderr": "", "csv": None, "stdout": oracle.nivat_payload(
                      pts, oracle.diagonal_count(pts), True, 2, diag_periods, True)}))
    diagonal_line = line_of(lib, (1, 1, 0))
    ops.append(Op("expansive_witness diagonal line(1,1) r1",
                  lambda: nl.expansive_witness(eta, diagonal_line, 1), no_claim_or(fp_witness)))
    return ops


# -- periodic-tables -------------------------------------------------------------------

# (name, p, q, shear, letters, table size, tile width): the body is invariant
# under (p, 0) and (shear, q); a tile width repeats each row's content with
# that smaller period.
PERIODIC_BODIES = [
    ("A", 60, 60, 0, 2, (6, 6), None),
    ("B", 40, 40, 0, 3, (5, 5), None),
    ("C", 20, 50, 0, 2, (7, 7), None),
    ("D", 30, 20, 7, 2, (8, 8), None),
    ("E", 24, 36, 0, 3, (4, 4), 6),
]
PERIODIC_LANGUAGE_BLOCKS = [(2, 2), (3, 2), (2, 3)]
# Equal-cost mid-size queries on body A: `complexity` of random 6-cell point
# sets inside a 4x4 box (counting accepts any finite set, convex or not).
PERIODIC_MIDDLE = 10
PERIODIC_MIDDLE_CELLS = 6
# `nivat_check` of a 3x3 block on the sheared body, and on body A at nine
# seeded places: a band of equal-cost ops around the tail rank.
PERIODIC_NIVAT_A = 9
PERIOD_SEARCH_BOUND = 10


def periodic_tables(lib, rng, tmp) -> list[Op]:
    nl, geo = lib["package"], lib["geometry"]
    ops = []
    bodies = {}
    for name, p, q, shear, m, (tn, tk), tile in PERIODIC_BODIES:
        if shear == 0 and rng.random() < 0.5:
            p, q = q, p
        letters = "".join(rng.sample(LETTERS, m))
        if tile:
            pattern = random_rows(rng, letters, tile, q)
            table = [row * (p // tile) for row in pattern]
        else:
            table = random_rows(rng, letters, p, q)
        ref = oracle.PeriodicBody(table, shear)
        alphabet = nl.Alphabet(tuple(letters))
        if shear == 0:
            body = nl.DoublyPeriodic.from_rows(alphabet, list(reversed(table)))
        else:
            cells = {(x, y): table[y][x] for y in range(q) for x in range(p)}
            body = nl.DoublyPeriodic(alphabet, ((p, 0), (shear, q)), cells)
        bodies[name] = (body, ref, letters, table)
        default_bound = max(abs(c) for c in (p, q, shear))

        def table_call(body=body, tn=tn, tk=tk):
            return nl.table_to_csv(nl.complexity_table(body, tn, tk))

        ops.append(Op(f"complexity_table periodic {name} {tn}x{tk}", table_call,
                      no_claim_or(lambda csv: {"csv": csv}),
                      lambda ref=ref, tn=tn, tk=tk: {"csv": csv_text(ref.block_table(tn, tk), True)}))
        for n, k in PERIODIC_LANGUAGE_BLOCKS:
            shape = geo.block(n, k)
            ops.append(Op(f"language periodic {name} block({n},{k})",
                          lambda body=body, shape=shape: nl.language(body, shape),
                          no_claim_or(fp_language),
                          lambda ref=ref, n=n, k=k: sorted("".join(t) for t in ref.block_patterns(n, k))))
        for i in range(PERIODIC_NIVAT_A if name == "A" else 1 if shear else 0):
            at = (rng.randint(-30, 30), rng.randint(-30, 30))
            shape, pts = geo.block(3, 3).translate(at), oracle.rect(3, 3, at)
            ops.append(Op(f"nivat_check periodic {name} block(3,3) #{i}",
                          lambda body=body, shape=shape: nl.nivat_check(body, shape),
                          no_claim_or(fp_nivat),
                          lambda ref=ref, pts=pts, m=m, b=default_bound: oracle.nivat_payload(
                              pts, ref.count(pts), True, m, ref.periods(b), True)))
        ops.append(Op(f"detect_periods_2d periodic {name} bound {PERIOD_SEARCH_BOUND}",
                      lambda body=body: nl.detect_periods_2d(body, PERIOD_SEARCH_BOUND),
                      no_claim_or(fp_periods),
                      lambda ref=ref: {"periods": ref.periods(PERIOD_SEARCH_BOUND), "certified": True}))

    body, ref, _, _ = bodies["A"]
    box = [(x, y) for x in range(4) for y in range(4)]
    for i in range(PERIODIC_MIDDLE):
        pts = sorted(rng.sample(box, PERIODIC_MIDDLE_CELLS))
        ops.append(Op(f"complexity periodic A 6 cells #{i}", lambda pts=pts: nl.complexity(body, pts),
                      no_claim_or(fp_count),
                      lambda pts=pts: {"count": ref.count(pts), "exact": True, "cells": len(pts)}))

    _, tiled, letters, table = bodies["E"]
    config = write_config(tmp, "periodic", {"type": "doubly_periodic", "alphabet": list(letters),
                                            "rows": list(reversed(table))})
    csv_path = os.path.join(tmp, "periodic-table.csv")
    ops.append(Op("cli table periodic E 3x3",
                  cli_call(lib, ["--json", "table", "--config", config, "--max", "3,3",
                                 "--csv", csv_path], csv_path),
                  no_claim_or(fp_cli),
                  lambda: {"exit": 0, "stderr": "", "csv": csv_text(tiled.block_table(3, 3), True),
                           "stdout": {"schema": 1, "rows": 9, "path": csv_path}}))

    body, ref, _, _ = bodies["B"]
    square = geo.block(2, 2)
    rest = oracle.rect(2, 2)
    rest.remove((1, 1))
    ops.append(Op("is_generated periodic B block(2,2) at (1,1)",
                  lambda: nl.is_generated(body, square, (1, 1)), no_claim_or(lambda r: r),
                  lambda: ref.count(oracle.rect(2, 2)) == ref.count(rest)))
    return ops


# -- structure-search ------------------------------------------------------------------

# Small doubly periodic bodies as rows over the symbols "a" and "b" (top row
# first); the seed renames the symbols.
STRUCTURE_TILES = {
    "tile33": ["aab", "aba", "baa"],
    "tile42": ["aaab", "abaa"],
    "tile44": ["aabb", "abba", "bbaa", "baab"],
}
STRUCTURE_DEFECTS = {(0, 0): "b", (3, 1): "b", (-2, 4): "b"}
STRIP_POINTS = [(0, 2), (0, 3), (1, 3), (2, 3)]


def structure_search(lib, rng, tmp) -> list[Op]:
    nl, geo = lib["package"], lib["geometry"]
    a, b = rng.sample(LETTERS, 2)
    rename = {"a": a, "b": b}
    eta = nl.DiagonalFamily(b, a)
    h, v = line_of(lib, HORIZONTAL), line_of(lib, VERTICAL)
    diagonal, anti = line_of(lib, (1, 1, 0)), line_of(lib, (1, -1, 0))
    blk = geo.block
    blk34, blk66, blk67 = blk(3, 4), blk(6, 6), blk(6, 7)
    strip_shape = geo.convex_hull(STRIP_POINTS)
    ops = [
        Op("phi diagonal block(6,7) line(1,0) p=2", lambda: nl.phi(eta, blk67, h, 2), no_claim_or(fp_phi)),
        Op("m_classes diagonal block(6,6) line(0,1) p=1", lambda: nl.m_classes(eta, blk66, v, 1),
           no_claim_or(fp_m_classes)),
        Op("phi diagonal strip-points line(1,0) p=0", lambda: nl.phi(eta, strip_shape, h, 0),
           no_claim_or(fp_phi)),
        Op("phi diagonal block(3,4) line(1,0) p=1", lambda: nl.phi(eta, blk34, h, 1), no_claim_or(fp_phi)),
        Op("verify_strip_lemma diagonal strip-points line(1,0) p=0",
           lambda: nl.verify_strip_lemma(eta, strip_shape, h, 0, 12), no_claim_or(fp_strip)),
        Op("find_mlc_set diagonal block(3,4)", lambda: nl.find_mlc_set(eta, blk34), no_claim_or(fp_generating)),
        Op("find_generating_set diagonal block(3,4)", lambda: nl.find_generating_set(eta, blk34),
           no_claim_or(fp_generating)),
        Op("find_directional_generating_set diagonal block(3,4) line(1,0)",
           lambda: nl.find_directional_generating_set(eta, blk34, h), no_claim_or(fp_generating)),
        Op("expansive_witness diagonal line(1,0) r2", lambda: nl.expansive_witness(eta, h, 2),
           no_claim_or(fp_witness)),
        Op("expansive_witness diagonal line(1,1) r1", lambda: nl.expansive_witness(eta, diagonal, 1),
           no_claim_or(fp_witness)),
        Op("expansive_witness diagonal line(1,-1) r1", lambda: nl.expansive_witness(eta, anti, 1),
           no_claim_or(fp_witness)),
        Op("nivat_check diagonal block(3,4)", lambda: nl.nivat_check(eta, blk34), no_claim_or(fp_nivat)),
    ]
    for (n, k), line_name, line in (((3, 4), "1,0", h), ((3, 4), "0,1", v), ((4, 3), "1,0", h),
                                    ((6, 7), "1,0", h), ((7, 8), "0,1", v), ((8, 8), "1,0", h)):
        shape = blk(n, k)
        ops.append(Op(f"construct_balanced_set diagonal block({n},{k}) line({line_name})",
                      lambda shape=shape, line=line: nl.construct_balanced_set(eta, shape, line),
                      no_claim_or(fp_balanced)))
    for (n, k), line_name, line, p in (((6, 6), "1,0", h, 1), ((7, 8), "0,1", v, 2), ((8, 8), "1,0", h, 1)):
        shape = blk(n, k)
        ops.append(Op(f"verify_strip_lemma diagonal block({n},{k}) line({line_name}) p={p}",
                      lambda shape=shape, line=line, p=p: nl.verify_strip_lemma(eta, shape, line, p, 12),
                      no_claim_or(fp_strip)))

    alphabet = nl.Alphabet((a, b))
    defect = nl.FiniteDefect(alphabet, a, {g: rename[x] for g, x in STRUCTURE_DEFECTS.items()})
    for line_name, line in (("1,0", h), ("0,1", v)):
        ops.append(Op(f"expansive_witness defect line({line_name}) r1",
                      lambda line=line: nl.expansive_witness(defect, line, 1), no_claim_or(fp_witness)))

    for name, rows in STRUCTURE_TILES.items():
        body = nl.DoublyPeriodic.from_rows(alphabet, ["".join(rename[x] for x in r) for r in rows])
        size = 4
        shape = blk(size, size)
        for fname, fn in (("find_generating_set", lambda body=body, shape=shape: nl.find_generating_set(body, shape)),
                          ("find_mlc_set", lambda body=body, shape=shape: nl.find_mlc_set(body, shape)),
                          ("find_directional_generating_set",
                           lambda body=body, shape=shape: nl.find_directional_generating_set(body, shape, h))):
            ops.append(Op(f"{fname} periodic {name} block({size},{size})", fn, no_claim_or(fp_generating)))
        ops.append(Op(f"expansive_witness periodic {name} line(1,0) r2",
                      lambda body=body: nl.expansive_witness(body, h, 2), no_claim_or(fp_witness)))

    config = write_config(tmp, "diagonal", {"type": "diagonal_family", "black": b, "white": a})
    ops.append(Op("cli balanced diagonal rect(3,4) line(1,0) witness-radius 1",
                  cli_call(lib, ["--json", "balanced", "--config", config, "--shape", "rect:3,4",
                                 "--line", "1,0", "--witness-radius", "1"]),
                  no_claim_or(fp_cli)))
    return ops


# -- aperiodic-cli -----------------------------------------------------------------------

# (name, letters, defects, box side) and (name, letters, width, height).
DEFECT_BODIES = [("F1", 2, 6, 20), ("F2", 3, 10, 30), ("F3", 2, 3, 8)]
WINDOW_BODIES = [("W1", 2, 80, 80), ("W2", 3, 60, 40), ("W3", 2, 30, 70)]
DUMP_SHAPE = (3, 3)
TABLE_MAX = (4, 4)
NIVAT_SHAPE = (4, 4)
WINDOW_PERIOD_BOUND = 4
PERIODS_BOUND = 5
EXTENSION_SHAPE = (3, 3)
DIRECTIONAL_SHAPE = (2, 3)


def aperiodic_cli(lib, rng, tmp) -> list[Op]:
    nl, geo = lib["package"], lib["geometry"]
    ops = []
    bodies = []
    for name, m, count, side in DEFECT_BODIES:
        letters = "".join(rng.sample(LETTERS, m))
        background = letters[0]
        cells = rng.sample([(x, y) for x in range(side) for y in range(side)], count)
        defects = {g: letters[1 + i % (m - 1)] for i, g in enumerate(cells)}
        spec = {"type": "finite_defect", "alphabet": list(letters), "background": background,
                "defects": [[x, y, a] for (x, y), a in defects.items()]}
        bodies.append((name, nl.config_from_dict(spec), oracle.DefectBody(background, defects), spec, True))
    for name, m, width, height in WINDOW_BODIES:
        if rng.random() < 0.5:
            width, height = height, width
        letters = "".join(rng.sample(LETTERS, m))
        rows = random_rows(rng, letters, width, height)
        spec = {"type": "window", "alphabet": list(letters), "origin": [0, 0], "rows": rows}
        bodies.append((name, nl.config_from_dict(spec), oracle.WindowGrid(rows), spec, False))

    h, diagonal = line_of(lib, HORIZONTAL), line_of(lib, (1, 1, 0))
    for name, body, ref, spec, exact in bodies:
        config = write_config(tmp, name, spec)
        kind = "defect" if exact else "window"
        m = len(ref.letters)

        n, k = DUMP_SHAPE
        pts = oracle.rect(n, k)

        def dump_reference(ref=ref, pts=pts, n=n, k=k, exact=exact):
            patterns = sorted(ref.patterns(pts))
            return {"exit": 0, "stderr": "", "csv": None, "stdout": {
                "schema": 1, "count": len(patterns), "exact": exact,
                "translates": ref.library_translates(pts),
                "patterns": [oracle.block_render(t, n, k) for t in patterns]}}

        ops.append(Op(f"cli complexity --dump {kind} {name} rect({n},{k})",
                      cli_call(lib, ["--json", "complexity", "--config", config, "--shape",
                                     f"rect:{n},{k}", "--dump"]),
                      no_claim_or(fp_cli), dump_reference))

        csv_path = os.path.join(tmp, f"{name}-table.csv")
        tn, tk = TABLE_MAX

        def table_reference(ref=ref, exact=exact, csv_path=csv_path):
            counts = {(n, k): ref.count(oracle.rect(n, k))
                      for n in range(1, tn + 1) for k in range(1, tk + 1)}
            return {"exit": 0, "stderr": "", "csv": csv_text(counts, exact),
                    "stdout": {"schema": 1, "rows": tn * tk, "path": csv_path}}

        ops.append(Op(f"cli table {kind} {name} {tn}x{tk}",
                      cli_call(lib, ["--json", "table", "--config", config, "--max", f"{tn},{tk}",
                                     "--csv", csv_path], csv_path),
                      no_claim_or(fp_cli), table_reference))

        n, k = NIVAT_SHAPE
        argv = ["--json", "nivat", "--config", config, "--shape", f"rect:{n},{k}"]
        if not exact:
            argv += ["--period-bound", str(WINDOW_PERIOD_BOUND)]

        def nivat_reference(ref=ref, exact=exact, m=m, n=n, k=k):
            pts = oracle.rect(n, k)
            periods = [] if exact else ref.periods(WINDOW_PERIOD_BOUND)
            return {"exit": 0, "stderr": "", "csv": None, "stdout": oracle.nivat_payload(
                pts, ref.count(pts), exact, m, periods, certified=exact, aperiodic=exact)}

        ops.append(Op(f"cli nivat {kind} {name} rect({n},{k})", cli_call(lib, argv),
                      no_claim_or(fp_cli), nivat_reference))

        ops.append(Op(f"cli periods {kind} {name} bound {PERIODS_BOUND}",
                      cli_call(lib, ["--json", "periods", "--config", config, "--bound", str(PERIODS_BOUND)]),
                      no_claim_or(fp_cli),
                      lambda ref=ref, exact=exact: {"exit": 0, "stderr": "", "csv": None, "stdout": {
                          "schema": 1, "periods": [] if exact else ref.periods(PERIODS_BOUND),
                          "certified": exact, "bound": PERIODS_BOUND}}))

        n, k = EXTENSION_SHAPE
        shape = geo.block(n, k)

        def extension_reference(ref=ref, exact=exact, n=n, k=k):
            pts = sorted(oracle.rect(n, k))
            base = [i for i, g in enumerate(pts) if g[1] > 0]  # off the bottom supporting row
            groups = {}
            for t in ref.patterns(pts):
                groups.setdefault(tuple(t[i] for i in base), set()).add(t)
            return {"exact": exact, "groups": sorted(len(g) for g in groups.values())}

        ops.append(Op(f"extension_counts {kind} {name} block({n},{k}) line(1,0)",
                      lambda body=body, shape=shape: nl.extension_counts(body, shape, h),
                      no_claim_or(fp_extensions), extension_reference))

        n, k = DIRECTIONAL_SHAPE
        shape = geo.block(n, k)
        base = (rng.randint(0, 10), rng.randint(0, 10))

        def directional_reference(ref=ref, exact=exact, n=n, k=k, base=base):
            pts = sorted(oracle.rect(n, k))
            seen = set()
            for t in range(-300, 301):
                cells = [(x + base[0] + t, y + base[1] + t) for x, y in pts]
                if exact or all(ref.inside(*g) for g in cells):
                    seen.add(tuple(ref.letter(*g) for g in cells))
            return {"count": len(seen), "exact": exact}

        ops.append(Op(f"directional_language {kind} {name} block({n},{k}) line(1,1)",
                      lambda body=body, shape=shape, base=base: nl.directional_language(
                          body, shape, diagonal, base=base),
                      no_claim_or(fp_directional), directional_reference))

    name, body, ref, spec, _ = bodies[0]
    config = os.path.join(tmp, name + ".json")
    square = oracle.rect(2, 2)
    ops.append(Op(f"cli generating defect {name} rect(2,2)",
                  cli_call(lib, ["--json", "generating", "--config", config, "--shape", "rect:2,2"]),
                  no_claim_or(fp_cli),
                  lambda: {"exit": 0, "stderr": "", "csv": None, "stdout": {
                      "schema": 1, "status": "no_claim",
                      "reason": f"P = {ref.count(square)} exceeds |U|+|A|-2 = {len(square) + len(ref.letters) - 2}"}}))
    return ops


WORKLOADS = {
    "diag-sweep": diag_sweep,
    "periodic-tables": periodic_tables,
    "structure-search": structure_search,
    "aperiodic-cli": aperiodic_cli,
}
