"""Metamorphic relation: unimodular relabelling of a torus.

For M in GL2(Z), the torus whose table puts the letter of g at M*g, over the
basis M*B, is the same body seen through M.  So P(M*S) = P(S) for every
shape S, each 4 x 4 table entry equals the count of the mapped block, the
steps along M*v number as many as along v (the order of v modulo the period
lattice), and `m_classes` finds as many classes and the same increment along
the line of direction det(M)*M*v.  That direction keeps the supporting side:
the line functional gives M*g the value v x g times det(M)^2.

No oracle reaches these sizes (tori up to 60 x 60), so the relation checks
the sheared row reads, the period lattice and the orbit labels where brute
force cannot.  The second torus of each matrix repeats a small tile, so its
period lattice is finer than its basis.  Both bodies are built from one explicit table, never from
`from_rows`, whose first row is the top.
"""

from __future__ import annotations

import random

import pytest

from nivatlab.complexity import complexity, complexity_table
from nivatlab.configurations import Alphabet, DoublyPeriodic
from nivatlab.geometry import ConvexLatticeSet, Line, block, convex_hull
from nivatlab.structure import m_classes

# Three of determinant 1 and three of determinant -1.
MATRICES = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((2, 1), (1, 1)),
            ((0, 1), (1, 0)), ((1, 0), (-2, -1)), ((-1, 2), (1, -1))]
SHAPES = [block(3, 3), block(1, 5), convex_hull([(0, 0), (3, 1), (1, 3)]),
          convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])]
DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3)]
# (shape, direction, p) for m_classes.
CLASS_CASES = [(block(2, 2), (1, 0), 1), (convex_hull([(0, 0), (2, 0), (0, 2)]), (1, 1), 1),
               (block(3, 2), (0, 1), 2)]


def _apply(m, g):
    return (m[0][0] * g[0] + m[0][1] * g[1], m[1][0] * g[0] + m[1][1] * g[1])


def _det(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _mapped(m, shape: ConvexLatticeSet) -> ConvexLatticeSet:
    return ConvexLatticeSet([_apply(m, g) for g in shape.cells])


def _torus_pair(rng: random.Random, n: int, k: int, tile: tuple[int, int], m):
    """A random torus of basis (n, 0), (0, k) that repeats a random tile, and
    its image under m, both from one table."""
    letters = ("a", "b", "c")[:rng.randint(2, 3)]
    while True:
        cells = {(x, y): rng.choice(letters) for x in range(tile[0]) for y in range(tile[1])}
        table = {(x, y): cells[x % tile[0], y % tile[1]] for x in range(n) for y in range(k)}
        if set(table.values()) == set(letters):
            break
    alphabet = Alphabet(letters)
    body = DoublyPeriodic(alphabet, ((n, 0), (0, k)), table)
    image = DoublyPeriodic(alphabet, (_apply(m, (n, 0)), _apply(m, (0, k))),
                           {_apply(m, g): a for g, a in table.items()})
    return body, image


@pytest.mark.parametrize("m", MATRICES)
def test_unimodular_relabelling(m):
    assert abs(_det(m)) == 1
    rng = random.Random(str(m))
    found_classes = 0
    # A 60 x 60 torus, and one whose period lattice is finer than its basis.
    tile = (rng.randint(1, 5), rng.randint(3, 5))  # room for three letters
    for n, k, t in [(60, 60, (60, 60)), (tile[0] * rng.randint(1, 12), tile[1] * rng.randint(1, 12), tile)]:
        body, image = _torus_pair(rng, n, k, t, m)
        assert [complexity(image, _mapped(m, s)).count for s in SHAPES] == [
            complexity(body, s).count for s in SHAPES]
        table = complexity_table(body, 4, 4)
        assert {key: complexity(image, _mapped(m, block(*key))).count for key in table} == {
            key: entry.count for key, entry in table.items()}
        assert [len(image.directional_translates((), (0, 0), _apply(m, v))) for v in DIRECTIONS] == [
            len(body.directional_translates((), (0, 0), v)) for v in DIRECTIONS]
        for shape, v, p in CLASS_CASES:
            w = _apply(m, v)
            classes, diff = m_classes(body, shape, Line(*v, 0), p)
            mapped, mapped_diff = m_classes(image, _mapped(m, shape), Line(_det(m) * w[0], _det(m) * w[1], 0), p)
            assert (len(mapped), mapped_diff) == (len(classes), diff), (n, k, shape.cells, v)
            found_classes += len(classes)
    assert found_classes
