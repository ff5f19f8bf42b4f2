"""Randomized robustness sweeps: every structure operation on random inputs
must either succeed with self-consistent certificates or refuse cleanly.
A ConstructionError or crash here is a genuine bug."""

import random

import pytest

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
