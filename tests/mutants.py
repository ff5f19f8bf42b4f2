"""Mutation check of the counting kernel's and the geometry's fast paths, and the verifier.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant is one exact text replacement in one library file.  It is applied
to a fresh copy of `src/` and `tests/` in a temporary directory, and
`pytest -x` runs there on the test modules the mutant names; criterion 3,
red on purpose, is deselected.  Hypothesis runs under the `mutants` profile
of `tests/conftest.py`, which does not shrink: the first failing example
already kills the mutant.  A failing run kills the mutant.  Before any
mutant, the same modules run once on the unchanged copy, which must pass;
a mutant's run that takes three times that baseline's seconds is stopped,
reported as `timed out`, and counts as killed.

Every mutant must be killed, except those in EQUIVALENT, which change no
result the tests can reach and must survive; the reason is given for each.
The exit code is 0 when every mutant ends as expected.  Stdlib only; the
tier-1 suite does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_high_range_closed_form"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]
    why: str  # what goes wrong, so some test must fail


MUTANTS = [
    Mutant("grown-column-early-stop", "src/nivatlab/complexity.py",
           "distinct = count == size", "distinct = count >= size - 1",
           ("tests/test_complexity.py",),
           "a column stops growing with one repeated key left, so taller blocks count every translate"),
    Mutant("band-step-ignored", "src/nivatlab/complexity.py",
           "range(shifts.start + o, shifts.stop + o, shifts.step)", "range(shifts.start + o, shifts.stop + o)",
           ("tests/test_complexity.py::TestPeriodQuotient::test_stepped_band_reads_match_brute",),
           "a diagonal directional language reads every shift instead of every (vx - vy)-th"),
    Mutant("counter-slice-short", "src/nivatlab/complexity.py",
           "itemgetter(slice(first, last + 1))", "itemgetter(slice(first, last))",
           ("tests/test_structure.py",),
           "a subset whose positions form one run is counted without its last cell"),
    Mutant("defect-far-translate-dropped", "src/nivatlab/complexity.py",
           '    keys.add("".join(blank))\n', "",
           ("tests/test_complexity.py",),
           "a defect count misses the all-background pattern of the translates that meet no defect"),
    Mutant("factor-sweep-one-short", "src/nivatlab/complexity.py",
           "for i in range(len(sweep))}", "for i in range(len(sweep) - 1)}",
           ("tests/test_complexity.py", "tests/test_acceptance.py"),
           "a diagonal table reads one length-L factor fewer of its sweep"),
    Mutant("lattice-survivor-dropped", "src/nivatlab/configurations.py",
           "lattice = _hnf(*basis, *survivors)", "lattice = _hnf(*basis, *survivors[1:])",
           ("tests/test_configurations.py", "tests/test_complexity.py"),
           "the first period found outside the basis lattice is left out of the period lattice"),
    Mutant("torus-rows-not-cut", "src/nivatlab/configurations.py",
           "tuple(row[:a] for row", "tuple(row for row",
           ("tests/test_configurations.py",),
           "the body keeps the torus rows of its basis lattice, a / a' times longer than it counts over"),
    Mutant("one-cell-run-read-late", "src/nivatlab/complexity.py",
           "tuple(word[offset:offset + count])", "tuple(word[offset + 1:offset + 1 + count])",
           ("tests/test_exhaustive.py",),
           "a one-cell run reads each translate's letter one character late, its right neighbour's"),
    Mutant("run-read-at-offset-0", "src/nivatlab/complexity.py",
           "itemgetter(slice(o, o + len(uxs)))", "itemgetter(slice(0, len(uxs)))",
           ("tests/test_exhaustive.py",),
           "a run reads its length's cut from offset 0, not from its own offset, so it reads the pieces "
           "of the run of that length furthest left"),
    Mutant("table-translates-from-basis", "src/nivatlab/complexity.py",
           "yield count, size",
           "yield count, abs(config.basis[0][0] * config.basis[1][1] - config.basis[0][1] * config.basis[1][0]) "
           "if isinstance(config, DoublyPeriodic) else size",
           ("tests/test_complexity.py",),
           "a torus table reports |det| of the given basis as translates instead of the a' * d' it reads"),
    Mutant("per-block-prefix-short", "src/nivatlab/complexity.py",
           "heights[k][:n * k]) for k in heights)", "heights[k][:n * k - 1]) for k in heights)",
           ("tests/test_complexity.py",),
           "a table counted block by block, as a defect table is, counts each block without its last cell"),
    Mutant("domain-over-basis-torus", "src/nivatlab/configurations.py",
           "TranslateBox(range(a), range(d))", "TranslateBox(*map(range, _hnf(b1, b2)[::2]))",
           ("tests/test_configurations.py",),
           "the enumeration domain is the torus [0, a) x [0, d) of the given basis, where some points differ "
           "by a period, and counts report its size"),
    Mutant("box-y-major", "src/nivatlab/configurations.py",
           "return product(self.xs, self.ys)", "return product(self.ys, self.xs)",
           ("tests/test_configurations.py",),
           "a translate box iterates y-major, so its order disagrees with its indexing and m_classes meets "
           "the translates in another order"),
    Mutant("box-index-wrong-axis", "src/nivatlab/configurations.py",
           "divmod(range(len(self))[i], len(self.ys))", "divmod(range(len(self))[i], len(self.xs))",
           ("tests/test_configurations.py",),
           "a translate box splits an index by the length of the wrong range, so a box that is not square "
           "gives the wrong translate or raises IndexError"),
    Mutant("coverage-one-slot-short", "src/nivatlab/configurations.py",
           'else a * d - torus.count("")', 'else a * d - torus[:-1].count("")',
           ("tests/test_configurations.py",),
           "a table that leaves the last torus slot empty passes the coverage check and draws the wrong "
           "diagnostic"),
    Mutant("torus-guard-strict", "src/nivatlab/configurations.py",
           "if a * d <= len(table) else", "if a * d < len(table) else",
           ("tests/test_configurations.py",),
           "a table that lists each coset once goes to the dict kept for tables too small to cover, and is "
           "refused"),
    Mutant("letter-rotation-flipped", "src/nivatlab/configurations.py",
           "return self._rows[r][(g[0] - q * b) % a]", "return self._rows[r][(g[0] + q * b) % a]",
           ("tests/test_configurations.py",),
           "a sheared body reads row y off torus row y mod d' rotated the wrong way"),
    Mutant("coset-collision-unchecked", "src/nivatlab/configurations.py",
           "                if torus[i]:\n                    raise", "                if False:\n                    raise",
           ("tests/test_configurations.py",),
           "a table that gives one coset two letters loads, with the later letter"),
    Mutant("orbit-basis-from-given-basis", "src/nivatlab/configurations.py",
           "_hnf((a, 0), (b, d), v)", "_hnf(*self.basis, v)",
           ("tests/test_structure.py::TestOrbitSharing::test_periodic_labels_are_exactly_the_orbits",),
           "orbit labels split P + Zv into the finer classes of L + Zv on a body whose basis is coarser "
           "than its period lattice"),
    Mutant("translate-keeps-vertices", "src/nivatlab/geometry.py",
           "[padd(v, u) for v in self.vertices]", "self.vertices",
           ("tests/test_geometry.py",),
           "a translated set keeps the vertices, and so the edges, of the set it was moved from"),
    Mutant("column-fill-one-short", "src/nivatlab/geometry.py",
           "range(lo, hi + 1)", "range(lo, hi)",
           ("tests/test_geometry.py",),
           "a hull column is filled without its highest point"),
    Mutant("convexity-pick-loose", "src/nivatlab/geometry.py",
           "return _hull_lattice_count(_hull_vertices(pts)) == len(pts)",
           "return _hull_lattice_count(_hull_vertices(pts)) <= len(pts) + 1",
           ("tests/test_geometry.py",),
           "a set whose hull holds one lattice point more than the set passes as convex, so is_vertex "
           "takes some non-vertices for vertices"),
    Mutant("verifier-bound-plus-one", "src/nivatlab/verifier.py",
           "bound = Fraction(len(shape), 2) + len(config.alphabet) - 1",
           "bound = Fraction(len(shape), 2) + len(config.alphabet)",
           ("tests/test_exhaustive.py",),
           "the verifier's bound |S|/2 + |A| drops its - 1, so counts one above the paper's bound meet "
           "the hypothesis"),
    Mutant("verifier-hypothesis-strict", "src/nivatlab/verifier.py",
           "quasi and rep.count <= bound", "quasi and rep.count < bound",
           ("tests/test_exhaustive.py",),
           "a count equal to the bound fails the hypothesis, so its verdict is VACUOUS, not CONSISTENT"),
    Mutant("level-set-strict", "src/nivatlab/structure.py",
           "if line.value(g) >= c)", "if line.value(g) > c)",
           ("tests/test_structure.py::TestLevelSets",),
           "each peeling stage drops its own supporting section, so the trace starts one peel late"),
    Mutant("next-stage-skipped", "src/nivatlab/structure.py",
           "(stages[big_i + 1:] or", "(stages[big_i + 2:] or",
           ("tests/test_structure.py::TestLevelSets",),
           "the directional search minimizes between S_{I+2} and S_I instead of S_{I+1} and S_I"),
    Mutant("thickness-witness-from-support", "src/nivatlab/structure.py",
           "range(min(counts) + 1,", "range(min(counts),",
           ("tests/test_structure.py::TestLevelSets",),
           "the thickness witness lists the supporting line, which the condition leaves out"),
    Mutant("point-sets-keep-support", "src/nivatlab/structure.py",
           "sorted(groups)[1:]", "sorted(groups)",
           ("tests/test_structure.py::TestLevelSets",),
           "the directional point sets take the supporting section's first and last points too"),
    Mutant("half-count-strict", "src/nivatlab/structure.py",
           "if 2 * len(cut) < len(shape) + 2:", "if 2 * len(cut) <= len(shape) + 2:",
           ("tests/test_structure.py::TestBalancedSet",),
           "the balanced-set cut must keep more than |S|/2 + 1 points, so a cut of exactly |S|/2 + 1 "
           "is refused at the half-count step"),
    Mutant("box-level-pick-loose", "src/nivatlab/structure.py",
           "if gain == 2:", "if gain >= 2:",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "a box level keeps a set whose hull holds lattice points it leaves out, so nonconvex sets are examined"),
    Mutant("box-level-every-point", "src/nivatlab/structure.py",
           "for g in above[m]:", "for g in box:",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "a box level extends each set by points at or below its maximum too, so sets repeat or come out unsorted"),
    Mutant("box-level-hull-unsorted", "src/nivatlab/structure.py",
           "*upper[j - 1:0:-1])", "*upper[1:j])",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "a stored hull lists its upper chain clockwise, so the next level splits its chains at the wrong "
           "vertices"),
    Mutant("witness-precheck-skips-next-line", "src/nivatlab/structure.py",
           "if value[g] > low)", "if value[g] > low + 1)",
           ("tests/test_structure.py::TestWitnessEnumeration", "tests/test_structure.py::TestWitnessOracle"),
           "U(g0) leaves out the line just above g0, so a g0 that fails there skips sets that use that line"),
    Mutant("witness-miss-one-short", "src/nivatlab/structure.py",
           "examined += len(level)  #", "examined += len(level) - 1  #",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "a level that is added unscanned after every lone lowest point failed counts one set fewer"),
    Mutant("witness-precheck-on-windows", "src/nivatlab/structure.py",
           "exact = config.exactness is Exactness.EXACT", "exact = True",
           ("tests/test_structure.py::TestWitnessOracle",),
           "a window sample counts U(g0) first, which can fit nowhere where the first set fits, so the "
           "error changes"),
]

# Mutants that no test can kill, with the reason each changes no result.
EQUIVALENT = {
    "factor-sweep-one-short": "the sweep has slack: at L = 13 `_reach` gives m = 103 while m = 77 "
                              "already reads all 43 factors, and at L = 60 it is 1,936 against 1,816",
}


def _copy() -> Path:
    root = Path(tempfile.mkdtemp(prefix="nivatlab-mutant-"))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", root / "pyproject.toml")
    return root


def _pytest(root: Path, tests: tuple[str, ...], limit: float | None = None) -> tuple[str, float]:
    """How pytest -x ends on the tests in the copy, "passed", "failed" or
    "timed out" after `limit` seconds, and its seconds.

    pytest runs in its own session, so a run that times out is killed with
    every process it started.
    """
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = perf_counter()
    run = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                            "--hypothesis-profile=mutants", "--deselect", CRITERION_3, *tests],
                           cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           start_new_session=True)
    try:
        outcome = "passed" if run.wait(timeout=limit) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        outcome = "timed out"
    return outcome, perf_counter() - start


def run_mutant(mutant: Mutant, limit: float) -> tuple[str, float]:
    """How the tests end on one mutant, applied to a fresh copy, and their seconds."""
    root = _copy()
    try:
        path = root / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return _pytest(root, mutant.tests, limit)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    modules = tuple(sorted({t for m in chosen for t in m.tests}))
    root = _copy()
    try:
        outcome, seconds = _pytest(root, modules)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"baseline {outcome} in {seconds:.1f} s: {' '.join(modules)}")
    if outcome != "passed":
        return 2
    # Each mutant runs some of the baseline's modules, so a run three times
    # as long as the baseline is taken not to terminate, and counts as killed.
    limit = 3 * seconds
    unexpected = 0
    for mutant in chosen:
        outcome, seconds = run_mutant(mutant, limit)
        killed = outcome != "passed"
        expected = mutant.name not in EQUIVALENT
        verdict = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
        note = "" if killed == expected else "  UNEXPECTED"
        unexpected += killed != expected
        print(f"{mutant.name:32s} {verdict:9s} {seconds:6.1f} s{note}")
        if killed != expected:
            print(f"    {EQUIVALENT.get(mutant.name, mutant.why)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
