"""The bounded-exhaustive sweep of `exhaustive.py` at scope 5: every binary
torus of index at most 5, with every canonical convex subset of block(3, 3)
and every entry of its 3 x 3 block table counted against the brute-force
oracle, and every quasi-regular subset of block(4, 4) and every other
positive-area subset of block(3, 3) checked by the verifier against a
recomputation.

These shapes hold one-cell runs and runs of one length at several offsets on
tori whose rows are at most 5 long, so the row-slice kernel's cuts are read
at every offset they hold.
"""

from __future__ import annotations

import pytest

from exhaustive import (
    count_mismatches,
    count_shapes,
    irregular_shapes,
    quasi_regular_mismatches,
    report_mismatches,
    table_blocks,
    table_mismatches,
    tori,
    verifier_shapes,
)
from nivatlab.configurations import _hnf

SCOPE = 5


@pytest.fixture(scope="module")
def bodies():
    return tori(SCOPE)


@pytest.fixture(scope="module")
def quasi_regular():
    return verifier_shapes()


def test_every_lattice_of_the_scope_is_swept(bodies):
    keys = [(body._hnf, body._rows) for body in bodies]
    assert len(set(keys)) == len(keys)
    assert all(set("".join(body._rows)) == {"a", "b"} for body in bodies)
    # Every lattice of index 2 to 5 is some body's period lattice; index 1
    # holds one letter only.
    lattices = {_hnf((a, 0), (b, d)) for a in range(1, SCOPE + 1) for d in range(1, SCOPE // a + 1)
                for b in range(a) if a * d > 1}
    assert {body._hnf for body in bodies} == lattices


def _row_runs(cells) -> list[tuple[int, int]]:
    """(offset, length) of each row of a convex set, offsets from its least x."""
    rows: dict[int, list[int]] = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
    x_lo = min(x for x, _ in cells)
    return [(min(xs) - x_lo, len(xs)) for xs in rows.values()]


def test_shapes_hold_the_row_cut_edge_cases(quasi_regular):
    def one_cell_run(runs):
        return any(n == 1 for _, n in runs)

    def one_length_at_two_offsets(runs):
        return any(len({o for o, m in runs if m == n}) > 1 for _, n in runs)

    for shapes in (count_shapes(), quasi_regular):
        runs = [_row_runs(s) for s in shapes]
        assert any(one_cell_run(r) and one_length_at_two_offsets(r) for r in runs)


def test_the_count_shapes_are_every_convex_subset_of_block_3_3():
    assert len(count_shapes()) == 130


def test_counts_match_the_oracle(bodies):
    shapes = count_shapes()
    assert [m for body in bodies for m in count_mismatches(body, shapes)] == []


def test_nivat_reports_match_a_recomputation(bodies, quasi_regular):
    assert [m for body in bodies for m in report_mismatches(body, quasi_regular)] == []


def test_quasi_regularity_matches_the_oracle(quasi_regular):
    assert quasi_regular_mismatches() == []
    assert len(quasi_regular) == 89


def test_tables_match_the_oracle(bodies):
    blocks = table_blocks()
    assert [m for body in bodies for m in table_mismatches(body, blocks)] == []


def test_shapes_that_are_not_quasi_regular_never_meet_the_hypothesis(bodies):
    shapes = irregular_shapes()
    assert len(shapes) == 104
    assert [m for body in bodies for m in report_mismatches(body, shapes, quasi=False)] == []
