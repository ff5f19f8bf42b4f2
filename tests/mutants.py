"""Mutation check of the counting kernel's fast paths.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant is one exact text replacement in one library file.  It is applied
to a fresh copy of `src/` and `tests/` in a temporary directory, and
`pytest -x` runs there on the test modules the mutant names; criterion 3,
red on purpose, is deselected.  Hypothesis runs under the `mutants` profile
of `tests/conftest.py`, which does not shrink: the first failing example
already kills the mutant.  A failing run kills the mutant.  Before any
mutant, the same modules run once on the unchanged copy, which must pass.

Every mutant must be killed, except those in EQUIVALENT, which change no
result the tests can reach and must survive; the reason is given for each.
The exit code is 0 when every mutant ends as expected.  Stdlib only; the
tier-1 suite does not collect this file.
"""

from __future__ import annotations

import os
import shutil
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
           "for i in range(size)}", "for i in range(size - 1)}",
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
    Mutant("table-translates-from-basis", "src/nivatlab/complexity.py",
           "yield count, size",
           "yield count, abs(config.basis[0][0] * config.basis[1][1] - config.basis[0][1] * config.basis[1][0]) "
           "if isinstance(config, DoublyPeriodic) else size",
           ("tests/test_complexity.py",),
           "a torus table reports |det| of the given basis as translates instead of the a' * d' it reads"),
    Mutant("domain-over-basis-torus", "src/nivatlab/configurations.py",
           "tuple(product(range(a), range(d)))", "tuple(product(*map(range, _hnf(b1, b2)[::2])))",
           ("tests/test_configurations.py",),
           "the enumeration domain is the torus [0, a) x [0, d) of the given basis, where some points differ "
           "by a period, and counts report its size"),
    Mutant("coverage-one-slot-short", "src/nivatlab/configurations.py",
           'covered = a * d - torus.count("")', 'covered = a * d - torus[:-1].count("")',
           ("tests/test_configurations.py",),
           "a table that leaves the last torus slot empty passes the coverage check and draws the wrong "
           "diagnostic"),
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
    Mutant("box-level-pick-loose", "src/nivatlab/structure.py",
           "_hull_lattice_count(hull) == size", "_hull_lattice_count(hull) >= size",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "a box level keeps a set whose hull holds lattice points it leaves out, so nonconvex sets are examined"),
    Mutant("box-level-every-point", "src/nivatlab/structure.py",
           "for g in above[cells[-1]]:", "for g in box:",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "a box level extends each set by points at or below its maximum too, so sets repeat or come out unsorted"),
    Mutant("box-level-hull-unsorted", "src/nivatlab/structure.py",
           "hulls_out.append(tuple(sorted(hull)))", "hulls_out.append(tuple(hull))",
           ("tests/test_structure.py::TestWitnessEnumeration",),
           "the next level's hull test reads its vertices out of order, so the monotone chain misses points"),
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


def _pytest(root: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether pytest -x passes on the tests in the copy, and its seconds."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--hypothesis-profile=mutants", "--deselect", CRITERION_3, *tests],
                         cwd=root, env=env, capture_output=True, text=True)
    return run.returncode == 0, perf_counter() - start


def run_mutant(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) of one mutant, applied to a fresh copy."""
    root = _copy()
    try:
        path = root / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        passed, seconds = _pytest(root, mutant.tests)
        return not passed, seconds
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
        passed, seconds = _pytest(root, modules)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"baseline {'passed' if passed else 'FAILED'} in {seconds:.1f} s: {' '.join(modules)}")
    if not passed:
        return 2
    unexpected = 0
    for mutant in chosen:
        killed, seconds = run_mutant(mutant)
        expected = mutant.name not in EQUIVALENT
        verdict = "killed" if killed else "survived"
        note = "" if killed == expected else "  UNEXPECTED"
        unexpected += killed != expected
        print(f"{mutant.name:32s} {verdict:8s} {seconds:6.1f} s{note}")
        if killed != expected:
            print(f"    {EQUIVALENT.get(mutant.name, mutant.why)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
