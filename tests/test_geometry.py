from __future__ import annotations

import math
import operator
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import wmub.geometry
from wmub.geometry import (
    DetNotOne,
    ModulusMismatch,
    NotMaximal,
    catalog_layout,
    check_point_map,
    classify_line_pair,
    component_generators,
    factor_keys,
    line,
    line_key,
    maximal_line_catalog,
    pair_census,
    partition_lines,
    prime_sweep_labels,
    redundancy,
    split_entries,
    split_generator,
    sweep_entries,
    sweep_value,
)
from wmub.hilbert import MAX_DIM
from wmub.zring import crt_context, dedekind_psi, is_prime

from oracles import (
    LineRelation,
    SymplecticMatrix,
    act_line,
    canonical_prime_generator,
    catalog_entries,
    compose,
    factorize_line,
    intersection,
    inverse,
    jordan_j2,
    line_pairs,
    line_relation,
    lines_through_origin,
    matrix_factorize,
    point_set,
    points,
    product_points,
    scalar_catalog_rows,
    scalar_sweep_matrix,
    sweep_matrix,
)

SUPPORTED_DIMS = [
    (d1, d2)
    for d1 in range(3, MAX_DIM)
    for d2 in range(d1 + 2, MAX_DIM // d1 + 1)
    if is_prime(d1) and is_prime(d2)
]

# The d = 15 catalog, row by row: display generator, matrix entries,
# component generators.  Same data as tests/golden/lines_3_5.txt, kept here
# in structured form.
CATALOG_15 = [
    (1, (0, 8), (1, 0, 0, 1), (0, 1), (0, 1)),
    (2, (6, 5), (10, 12, 12, 10), (0, 1), (1, 0)),
    (3, (6, 2), (10, 12, 12, 4), (0, 1), (1, 4)),
    (4, (6, 14), (10, 12, 12, 13), (0, 1), (1, 3)),
    (5, (6, 11), (10, 12, 12, 7), (0, 1), (1, 2)),
    (6, (6, 8), (10, 12, 12, 1), (0, 1), (1, 1)),
    (7, (10, 3), (6, 5, 10, 6), (1, 0), (0, 1)),
    (8, (10, 13), (6, 5, 10, 11), (1, 2), (0, 1)),
    (9, (10, 8), (6, 5, 10, 1), (1, 1), (0, 1)),
    (10, (1, 0), (0, 2, 7, 0), (1, 0), (1, 0)),
    (11, (1, 12), (0, 2, 7, 9), (1, 0), (1, 4)),
    (12, (1, 9), (0, 2, 7, 3), (1, 0), (1, 3)),
    (13, (1, 6), (0, 2, 7, 12), (1, 0), (1, 2)),
    (14, (1, 3), (0, 2, 7, 6), (1, 0), (1, 1)),
    (15, (1, 10), (0, 2, 7, 5), (1, 2), (1, 0)),
    (16, (1, 7), (0, 2, 7, 14), (1, 2), (1, 4)),
    (17, (1, 4), (0, 2, 7, 8), (1, 2), (1, 3)),
    (18, (1, 1), (0, 2, 7, 2), (1, 2), (1, 2)),
    (19, (1, 13), (0, 2, 7, 11), (1, 2), (1, 1)),
    (20, (1, 5), (0, 2, 7, 10), (1, 1), (1, 0)),
    (21, (1, 2), (0, 2, 7, 4), (1, 1), (1, 4)),
    (22, (1, 14), (0, 2, 7, 13), (1, 1), (1, 3)),
    (23, (1, 11), (0, 2, 7, 7), (1, 1), (1, 2)),
    (24, (1, 8), (0, 2, 7, 1), (1, 1), (1, 1)),
]

PARTITION_15 = [
    [1, 10, 16, 22],
    [2, 11, 17, 23],
    [3, 12, 18, 24],
    [4, 9, 13, 19],
    [5, 8, 14, 20],
    [6, 7, 15, 21],
]


def brute_force_lines(d: int) -> dict[int, set[frozenset]]:
    """Independent enumeration of all origin lines as raw point sets."""
    by_size: dict[int, set[frozenset]] = {}
    for nu in range(d):
        for mu in range(d):
            pts = frozenset((a * nu % d, a * mu % d) for a in range(d))
            if len(pts) > 1:
                by_size.setdefault(len(pts), set()).add(pts)
    return by_size


def random_symplectic(d: int, rng: random.Random) -> SymplecticMatrix:
    while True:
        k, l, m, n = (rng.randrange(d) for _ in range(4))
        if (k * n - l * m) % d == 1:
            return SymplecticMatrix(d, k, l, m, n)


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------

def test_line_examples():
    maximal = line(15, 3, 7)
    assert maximal.size == 15 and maximal.is_maximal
    small = line(15, 5, 10)
    assert small.size == 3
    assert point_set(small) == {(0, 0), (5, 10), (10, 5)}
    assert points(line(15, 0, 0)) == ((0, 0),)
    assert line(15, -12, 22).generator == (3, 7)


def test_line_canonical_form_is_found_on_first_comparison():
    l = line(15, 6, 14)
    assert "canonical" not in vars(l)
    assert l == line(15, 3, 7)
    assert l.canonical == (3, 2)
    assert hash(l) == hash(line(15, 3, 2))


def test_line_cardinality_formula():
    # Line.size is the formula; the oracle counts the points.
    for d in (6, 9, 15, 21):
        for nu in range(d):
            for mu in range(d):
                l = line(d, nu, mu)
                assert l.size == len(points(l)) == d // math.gcd(nu, mu, d)


def test_line_relation_examples():
    assert line_relation(line(15, 12, 10), line(15, 6, 5)) is LineRelation.EQUAL
    assert line_relation(line(15, 5, 10), line(15, 1, 2)) is LineRelation.A_SUB_B
    assert line_relation(line(15, 1, 2), line(15, 5, 10)) is LineRelation.B_SUB_A
    assert line_relation(line(15, 0, 1), line(15, 0, 1)) is LineRelation.EQUAL
    assert line_relation(line(15, 0, 1), line(15, 1, 0)) is LineRelation.NEITHER
    with pytest.raises(ModulusMismatch):
        line_relation(line(15, 0, 1), line(21, 0, 1))


def test_unit_multiples_give_equal_lines():
    rng = random.Random(7)
    for d in (6, 15, 21, 35):
        units = [u for u in range(1, d) if math.gcd(u, d) == 1]
        for _ in range(50):
            nu, mu = rng.randrange(d), rng.randrange(d)
            u = rng.choice(units)
            assert line(d, nu, mu) == line(d, nu * u % d, mu * u % d)


def test_lines_through_origin_examples():
    counts15 = {size: len(group) for size, group in lines_through_origin(15).items()}
    assert counts15 == {3: 4, 5: 6, 15: 24}
    assert {s: len(g) for s, g in lines_through_origin(3).items()} == {3: 4}
    assert {s: len(g) for s, g in lines_through_origin(5).items()} == {5: 6}
    assert {s: len(g) for s, g in lines_through_origin(6).items()} == {2: 3, 3: 4, 6: 12}


def test_lines_through_origin_matches_brute_force_and_psi():
    for d in (6, 9, 10, 12, 15):
        found = lines_through_origin(d)
        brute = brute_force_lines(d)
        assert {s: len(g) for s, g in found.items()} == {s: len(g) for s, g in brute.items()}
        for size, group in found.items():
            assert len(group) == dedekind_psi(size)
            assert {point_set(l) for l in group} == brute[size]


def test_small_line_coordinates_live_in_subgroup():
    # A line with k points only touches multiples of d/k in both coordinates.
    for d in (12, 15, 18):
        for size, group in lines_through_origin(d).items():
            step = d // size
            for l in group:
                assert all(x % step == 0 and y % step == 0 for x, y in points(l))


def test_prime_dimension_geometry_is_near_linear():
    for p in (3, 5, 7, 11, 13):
        groups = lines_through_origin(p)
        assert set(groups) == {p} and len(groups[p]) == p + 1
        all_lines = groups[p]
        for i, a in enumerate(all_lines):
            for b in all_lines[i + 1:]:
                assert len(point_set(a) & point_set(b)) == 1
        # sweeping the vertical line through the standard matrices finds all
        swept = {line(p, 0, 1)}
        for lam in range(p):
            swept.add(act_line(SymplecticMatrix(p, 0, 1, -1, -lam), line(p, 0, 1)))
        assert swept == set(all_lines)


# ---------------------------------------------------------------------------
# symplectic matrices
# ---------------------------------------------------------------------------

def test_symplectic_constructor_checks_det():
    with pytest.raises(DetNotOne):
        SymplecticMatrix(15, 10, 12, 13, 13)
    assert SymplecticMatrix(15, 10, 12, 12, 13).entries == (10, 12, 12, 13)


def test_symplectic_inverse_and_compose():
    g = SymplecticMatrix(15, 10, 12, 12, 13)
    assert inverse(g).entries == (13, 3, 3, 10)
    assert compose(g, inverse(g)) == SymplecticMatrix.identity(15)
    assert compose(inverse(g), g) == SymplecticMatrix.identity(15)
    rng = random.Random(11)
    for _ in range(25):
        a = random_symplectic(15, rng)
        b = random_symplectic(15, rng)
        assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


def test_symplectic_group_order_d3():
    found = [
        SymplecticMatrix(3, k, l, m, n)
        for k in range(3) for l in range(3) for m in range(3) for n in range(3)
        if (k * n - l * m) % 3 == 1
    ]
    assert len(found) == 3 * jordan_j2(3) == 24
    group = set(found)
    for a in found:
        for b in found:
            assert compose(a, b) in group


def test_act_on_line_examples():
    assert act_line(SymplecticMatrix(15, 10, 12, 12, 10), line(15, 0, 1)) == line(15, 6, 5)
    ident = SymplecticMatrix.identity(15)
    for gen in [(0, 1), (3, 7), (1, 8)]:
        assert act_line(ident, line(15, *gen)) == line(15, *gen)
    assert act_line(SymplecticMatrix(5, 0, 1, -1, -2), line(5, 0, 1)) == line(5, 1, 3)
    with pytest.raises(ModulusMismatch):
        act_line(SymplecticMatrix.identity(15), line(21, 0, 1))


def test_action_preserves_cardinality_and_permutes_maximal_lines():
    rng = random.Random(23)
    for d in range(2, 31):
        generators = [(rng.randrange(d), rng.randrange(d)) for _ in range(8)]
        for _ in range(200):
            g = random_symplectic(d, rng)
            nu, mu = generators[rng.randrange(len(generators))]
            l = line(d, nu, mu)
            assert act_line(g, l).size == l.size
        maximal = set(lines_through_origin(d).get(d, []))
        for _ in range(20):
            g = random_symplectic(d, rng)
            assert {act_line(g, l) for l in maximal} == maximal


def test_intersection_examples():
    got = intersection(line(15, 0, 1), line(15, 6, 5))
    assert set(got) == {(0, 0), (0, 5), (0, 10)}
    full = line(15, 1, 8)
    assert set(intersection(full, full)) == point_set(full)
    assert intersection(line(15, 0, 1), line(15, 1, 0)) == ((0, 0),)
    with pytest.raises(ModulusMismatch):
        intersection(line(15, 0, 1), line(21, 0, 1))


def test_intersection_size_divides_modulus():
    rng = random.Random(5)
    for d in (12, 15, 21):
        for _ in range(100):
            a = line(d, rng.randrange(d), rng.randrange(d))
            b = line(d, rng.randrange(d), rng.randrange(d))
            common = intersection(a, b)
            assert (0, 0) in common
            assert d % len(common) == 0


# ---------------------------------------------------------------------------
# factorization into components
# ---------------------------------------------------------------------------

def test_factorize_line_examples(ctx15):
    l4 = line(15, 3, 7)
    assert split_generator(l4.generator, ctx15) == ((0, 2), (3, 4))
    assert factorize_line(l4, ctx15) == ((0, 1), (1, 3))
    assert factorize_line(line(15, 0, 1), ctx15) == ((0, 1), (0, 1))
    assert factorize_line(line(15, 1, 0), ctx15) == ((1, 0), (1, 0))
    with pytest.raises(NotMaximal):
        factorize_line(line(15, 5, 10), ctx15)


def test_factorize_line_ignores_generator_choice(ctx15):
    rng = random.Random(3)
    units15 = [u for u in range(1, 15) if math.gcd(u, 15) == 1]
    for _ in range(100):
        nu, mu = rng.randrange(15), rng.randrange(15)
        if math.gcd(math.gcd(nu, mu), 15) != 1:
            continue
        u = rng.choice(units15)
        assert factorize_line(line(15, nu, mu), ctx15) == factorize_line(
            line(15, nu * u % 15, mu * u % 15), ctx15
        )


def test_line_equals_product_of_its_components(ctx15):
    for nu in range(15):
        for mu in range(15):
            l = line(15, nu, mu)
            if not l.is_maximal:
                continue
            c1, c2 = factorize_line(l, ctx15)
            prod = product_points(line(3, *c1), line(5, *c2), ctx15)
            assert prod == point_set(l)


@pytest.mark.parametrize("d1,d2", [(3, 5), (3, 7), (3, 11), (5, 7)])
def test_catalog_entries_equal_the_product_of_their_components(d1, d2):
    # The point-set oracle for the catalog's product route, on every entry.
    ctx = crt_context(d1, d2)
    for e in catalog_entries(maximal_line_catalog(ctx)):
        assert len(points(e.line)) == ctx.d
        prod = product_points(line(d1, *e.comp1), line(d2, *e.comp2), ctx)
        assert prod == point_set(e.line)


@pytest.mark.parametrize("d1,d2", [(3, 5), (3, 7), (5, 7)])
def test_point_map_check_rejects_a_wrong_idempotent(d1, d2):
    ctx = crt_context(d1, d2)
    check_point_map(ctx)
    for s1 in range(ctx.d):
        if s1 != ctx.s1:
            with pytest.raises(RuntimeError, match="^CRT point map: map1_join does not invert map1_split$"):
                check_point_map(replace(ctx, s1=s1))
    with pytest.raises(RuntimeError, match="^CRT point map: map2_join does not invert map2_split$"):
        check_point_map(replace(ctx, r1=ctx.r1 + 1))
    with pytest.raises(RuntimeError, match="^CRT point map: map1_join"):
        maximal_line_catalog(replace(ctx, s1=ctx.s1 + 1))


@pytest.mark.parametrize("p", [p for p in range(3, 32) if is_prime(p)])
def test_line_key_matches_the_canonical_generator_on_every_line(p):
    a, b = (column.ravel() for column in np.mgrid[0:p, 0:p])
    a, b = a[1:], b[1:]  # every nonzero (a, b), (0, 0) first
    keys = line_key(a, b, p).tolist()
    for x, y, key in zip(a.tolist(), b.tolist(), keys):
        assert ((0, 1) if key == p else (1, key)) == canonical_prime_generator((x, y), p)
    assert line_key(a[-1].item(), b[-1].item(), p) == keys[-1]


def test_line_key_matches_the_canonical_generator_above_1e5():
    p = 100003
    assert is_prime(p)
    rng = np.random.default_rng(10)
    a, b = rng.integers(0, p, size=(2, 2000))
    a[:100] = 0
    b[:100] = rng.integers(1, p, size=100)
    for x, y, key in zip(a.tolist(), b.tolist(), line_key(a, b, p).tolist()):
        assert ((0, 1) if key == p else (1, key)) == canonical_prime_generator((x, y), p)


def test_factor_keys_ignore_the_unit_multiple(ctx15):
    generators = np.array([(nu, mu) for nu in range(15) for mu in range(15)
                           if math.gcd(nu, mu, 15) == 1])
    keys = factor_keys(generators, ctx15)
    for u in (2, 4, 7, 8, 11, 13, 14):
        assert (factor_keys(generators * u % 15, ctx15) == keys).all()


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def test_catalog_matches_reference_table(catalog15):
    assert len(catalog15) == 24
    entries = catalog_entries(catalog15)
    for index, generator, matrix, comp1, comp2 in CATALOG_15:
        e = entries[index - 1]
        assert e.index == index
        assert e.generator == generator
        assert e.matrix.entries == matrix
        assert (e.comp1, e.comp2) == (comp1, comp2)
        assert e.line.is_maximal
        assert e.line == line(15, *generator)


@pytest.mark.parametrize(
    "name",
    [
        "components", "generators", "matrices", "pair_classes",
    ],
)
def test_catalog_arrays_are_read_only(catalog15, name):
    # The catalog is shared (a session fixture here, the basis set's slots
    # and labels in the library), so an in-place write must raise.
    array = operator.attrgetter(name)(catalog15)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 5


def test_catalog_lines_are_distinct_and_complete(catalog15):
    entries = catalog_entries(catalog15)
    assert len({e.line for e in entries}) == 24
    assert {e.line for e in entries} == set(lines_through_origin(15)[15])
    # entry 4 is the line generated by (3, 7); its display generator (6, 14)
    # is the unit multiple whose components are the canonical pair
    assert entries[4 - 1].line == line(15, 3, 7)


def test_catalog_matrices_reproduce_lines_from_the_vertical_line(catalog15):
    base = line(15, 0, 1)
    for e in catalog_entries(catalog15):
        assert act_line(e.matrix, base) == e.line


@pytest.mark.parametrize("dims", SUPPORTED_DIMS + [(31, 97)], ids=lambda dims: f"d={dims[0] * dims[1]}")
def test_sweep_entries_match_the_scalar_oracle(dims):
    ctx = crt_context(*dims)
    components = catalog_layout(ctx)
    table = sweep_entries(ctx, components).tolist()
    assert len(table) == dedekind_psi(ctx.d)
    for (i1, i2), row in zip(components.tolist(), table):
        lam1, lam2 = sweep_value(i1), sweep_value(i2)
        assert tuple(row) == scalar_sweep_matrix(ctx, lam1, lam2).entries
    assert sweep_matrix(ctx, lam1, lam2).entries == tuple(row)


@pytest.mark.parametrize("d1,d2", [(3, 5), (5, 7)])
@pytest.mark.parametrize("field", ["s1", "t2"])
def test_sweep_entries_name_the_first_row_without_unit_determinant(d1, d2, field):
    ctx = crt_context(d1, d2)
    wrong = replace(ctx, **{field: getattr(ctx, field) + 1})
    components = catalog_layout(ctx)
    first = None
    for index, (i1, i2) in enumerate(components.tolist(), start=1):
        try:
            scalar_sweep_matrix(wrong, sweep_value(i1), sweep_value(i2))
        except DetNotOne:
            first = index
            break
    assert first is not None
    with pytest.raises(DetNotOne, match=rf"^sweep entry {first}: det g\(\d+,\d+\|\d+,\d+\) = \d+ != 1 \(mod {ctx.d}\)$"):
        sweep_entries(wrong, components)
    with pytest.raises(DetNotOne, match=r"^sweep entry 1: "):
        sweep_entries(wrong, components[first - 1:first])


@pytest.mark.parametrize(
    "dims", SUPPORTED_DIMS + [(3, 10007), (31, 97)], ids=lambda dims: f"d={dims[0] * dims[1]}"
)
def test_sweep_entries_split_into_the_labels_of_their_factor_slots(dims):
    # `conjugation_bound` reads each basis's factor residuals by slot, so it
    # needs every catalog label to split exactly into the labels of its
    # slots; the Z(d) formula and the Z(p) formula are written apart.
    ctx = crt_context(*dims)
    components = catalog_layout(ctx)
    factors = zip((ctx.d1, ctx.d2), components.T, split_entries(sweep_entries(ctx, components).T, ctx))
    for p, slots, comp in factors:
        assert np.array_equal(np.stack(comp, axis=1), prime_sweep_labels(p)[slots]), (ctx.d, p)


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=lambda dims: f"d={dims[0] * dims[1]}")
def test_catalog_arrays_match_the_scalar_route(dims):
    ctx = crt_context(*dims)
    catalog = maximal_line_catalog(ctx)
    rows = scalar_catalog_rows(ctx)
    assert catalog.generators.tolist() == [list(generator) for generator, *_ in rows]
    assert catalog.matrices.tolist() == [list(matrix) for _, matrix, *_ in rows]
    comps = [np.stack(component_generators(p, catalog.components[:, f]), axis=-1)
             for f, p in enumerate((ctx.d1, ctx.d2))]
    assert np.stack(comps, axis=1).tolist() == [[list(comp1), list(comp2)] for *_, comp1, comp2 in rows]
    assert catalog.components.tolist() == catalog_layout(ctx).tolist()
    assert len(catalog) == len(rows)
    for e, (generator, matrix, comp1, comp2) in zip(catalog_entries(catalog), rows):
        assert (e.generator, e.matrix.entries, e.comp1, e.comp2) == (generator, matrix, comp1, comp2)
        assert e.line == line(ctx.d, *generator) and e.line.is_maximal
        assert sweep_matrix(ctx, e.lambda1, e.lambda2) == e.matrix


def test_catalog_layout_reference(ctx15, catalog15):
    components = catalog_layout(ctx15)
    expected = (
        [(0, 0)]
        + [(0, k) for k in range(1, 6)]
        + [(k, 0) for k in range(1, 4)]
        + [(k1, k2) for k1 in range(1, 4) for k2 in range(1, 6)]
    )
    assert [tuple(c) for c in components.tolist()] == expected
    assert partition_lines(ctx15).tolist() == PARTITION_15
    # component index 0 is the vertical line, k >= 1 the sweep value k - 1
    to_index = lambda lam: 0 if lam is None else lam + 1
    assert [(to_index(e.lambda1), to_index(e.lambda2)) for e in catalog_entries(catalog15)] == expected


def test_catalog_layout_covers_the_component_grid(contexts):
    for d, ctx in contexts.items():
        comps = [tuple(c) for c in catalog_layout(ctx).tolist()]
        sets = partition_lines(ctx)
        assert sorted(comps) == [
            (i1, i2) for i1 in range(ctx.d1 + 1) for i2 in range(ctx.d2 + 1)
        ]
        assert len(sets) == ctx.d2 + 1
        for n, group in enumerate(sets):
            assert list(group) == sorted(group)
            assert sorted(comps[k - 1] for k in group) == [
                (i, (i + n) % (ctx.d2 + 1)) for i in range(ctx.d1 + 1)
            ]


def test_catalog_layout_builds_only_the_component_array():
    # The partition grid is built by `partition_lines` alone, and the layout
    # is filled in place, so it peaks near the (psi, 2) array it returns;
    # an index grid concatenated into it peaked at 2.75 times its size.
    ctx = crt_context(3, 10007)
    tracemalloc.start()
    try:
        components = catalog_layout(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert components.shape == (dedekind_psi(ctx.d), 2)
    assert peak < 1.5 * components.nbytes


def test_partition_grid_is_built_as_one_array():
    # The grid is one (d2+1, d1+1) integer array, gathered from the layout
    # and sorted in place; a tuple per set peaked at 13 times its size.
    ctx = crt_context(3, 10007)
    tracemalloc.start()
    try:
        grid = partition_lines(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (ctx.d2 + 1, ctx.d1 + 1) and grid.dtype == np.int64
    assert peak < 8 * grid.nbytes


def test_catalog_keeps_no_point_sets():
    # Building the d points of every entry and of its component product as
    # tuples peaks at 173 MB here; generators alone need a few MB.
    ctx = crt_context(11, 97)
    tracemalloc.start()
    try:
        catalog = maximal_line_catalog(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(catalog) == dedekind_psi(ctx.d)
    assert peak < 20 * 2**20


@pytest.mark.parametrize("d1,d2", [(3, 7), (3, 11), (5, 7)])
def test_catalog_other_dimensions(d1, d2):
    ctx = crt_context(d1, d2)
    catalog = maximal_line_catalog(ctx)
    assert len(catalog) == dedekind_psi(ctx.d)
    assert len({e.line for e in catalog_entries(catalog)}) == len(catalog)


# ---------------------------------------------------------------------------
# matrix factorization
# ---------------------------------------------------------------------------

def test_matrix_factorize_identity(ctx15):
    g1, g2 = matrix_factorize(SymplecticMatrix.identity(15), ctx15)
    assert g1 == SymplecticMatrix.identity(3)
    assert g2 == SymplecticMatrix.identity(5)


def test_matrix_factorize_component_action_example(ctx15):
    g1, g2 = matrix_factorize(SymplecticMatrix(15, 10, 12, 12, 10), ctx15)
    assert act_line(g1, line(3, 0, 1)) == line(3, 0, 1)
    assert act_line(g2, line(5, 0, 1)) == line(5, 1, 0)


def test_matrix_factorize_commutes_with_line_factorization(ctx15, catalog15):
    rng = random.Random(41)
    sample = [e.matrix for e in catalog_entries(catalog15)] + [random_symplectic(15, rng) for _ in range(500)]
    maximal_generators = [(0, 1), (1, 0), (3, 7), (1, 8), (2, 1), (4, 7)]
    for g in sample:
        g1, g2 = matrix_factorize(g, ctx15)
        for gen in maximal_generators:
            l = line(15, *gen)
            c1, c2 = factorize_line(l, ctx15)
            image1, image2 = factorize_line(act_line(g, l), ctx15)
            assert line(3, *image1) == act_line(g1, line(3, *c1))
            assert line(5, *image2) == act_line(g2, line(5, *c2))


# ---------------------------------------------------------------------------
# pair classification
# ---------------------------------------------------------------------------

def test_classify_pair_examples(catalog15, ctx15):
    entries = catalog_entries(catalog15)
    pick = lambda k: entries[k - 1].line
    # Lines 1 and 7 share the second component line, 1 and 2 the first,
    # and 1 and 10 neither.
    assert classify_line_pair(pick(1), pick(7), ctx15) == 5
    assert classify_line_pair(pick(1), pick(2), ctx15) == 3
    assert classify_line_pair(pick(1), pick(10), ctx15) == 1
    with pytest.raises(ValueError):
        classify_line_pair(pick(1), pick(1), ctx15)
    with pytest.raises(NotMaximal):
        classify_line_pair(pick(1), line(15, 5, 10), ctx15)


def test_classify_line_pair_matches_point_set_intersection(catalogs):
    # Brute-force oracle for the determinant route: count common points.
    for d, catalog in catalogs.items():
        entries = catalog_entries(catalog)
        for i, j, size in zip(*(side.tolist() for side in line_pairs(catalog))):
            a, b = entries[i - 1].line, entries[j - 1].line
            assert size == len(point_set(a) & point_set(b))


def test_pair_classes_cover_every_pair_in_row_major_order(catalogs):
    for d, catalog in catalogs.items():
        n = len(catalog)
        i, j, _ = line_pairs(catalog)
        expected = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        assert list(zip(i.tolist(), j.tolist())) == expected
        assert catalog.pair_classes.dtype == np.int8 and len(catalog.pair_classes) == len(expected)


def test_pair_pass_raises_at_the_first_disagreeing_pair(ctx15, monkeypatch):
    # Line 24 claims the components of line 1, and line 3 those of line 2.
    # Pair (1, 24) comes first in row-major order (predicted 5, actual 1);
    # pair (2, 3) would come first by column (predicted 5, actual 3).
    catalog = maximal_line_catalog(ctx15)
    real = wmub.geometry.factor_keys

    def claimed(generators, ctx):
        keys = real(generators, ctx).copy()
        keys[24 - 1], keys[3 - 1] = keys[1 - 1], keys[2 - 1]
        return keys

    monkeypatch.setattr(wmub.geometry, "factor_keys", claimed)
    with pytest.raises(
        RuntimeError, match=r"^component rule predicts 5 common points, determinant gives 1$"
    ):
        catalog.pair_classes


def test_pair_census(contexts, catalogs):
    expected = {
        15: {5: 36, 3: 60, 1: 180},
        21: {7: 48, 3: 112, 1: 336},
        33: {11: 72, 3: 264, 1: 792},
    }
    for d, ctx in contexts.items():
        counts = pair_census(catalogs[d])
        assert counts == expected[d]
        psi = dedekind_psi(d)
        assert sum(counts.values()) == psi * (psi - 1) // 2


def test_pair_census_counts_the_stored_classes_in_blocks():
    # At d = 3007 the 4.9M classes are int8; a `bincount` of them casts to
    # intp, 39 MB.  Counted a block at a time, the census's own peak is
    # one block's comparison, 128 KB, and it reads the stored classes: a
    # copy whose classes differ counts what it stores.
    ctx = crt_context(31, 97)
    catalog = maximal_line_catalog(ctx)
    classes = catalog.pair_classes
    tracemalloc.start()
    try:
        census = pair_census(catalog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    psi = dedekind_psi(ctx.d)
    assert census == {97: 31 * psi // 2, 31: 97 * psi // 2, 1: ctx.d * psi // 2}
    assert peak < 2**18
    changed, flat = replace(catalog), np.flatnonzero(classes == 2)[-1]
    changed.__dict__["pair_classes"] = np.where(np.arange(len(classes)) == flat, 0, classes)
    assert pair_census(changed) == {97: 31 * psi // 2 + 1, 31: 97 * psi // 2, 1: ctx.d * psi // 2 - 1}


@pytest.mark.parametrize("block", [1, 2, 3, 7, 2**17])
def test_pair_blocks_tile_the_upper_triangle_in_row_major_order(block, monkeypatch):
    # The pair passes check no index they generate, so the blocks alone must
    # give every pair i < j in range once, in row-major order, with slices
    # that tile 0..n(n-1)/2 in order.
    monkeypatch.setattr(wmub.geometry, "_PAIR_BLOCK", block)
    for n in range(41):
        slices, i, j = [], [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for at, block_i, block_j in wmub.geometry._pair_blocks(n):
            slices.append(at)
            i.append(block_i)
            j.append(block_j)
        want_i, want_j = np.triu_indices(n, 1)
        assert np.array_equal(np.concatenate(i), want_i) and np.array_equal(np.concatenate(j), want_j), n
        stops = [0, *(at.stop for at in slices)]
        assert slices == [slice(lo, hi) for lo, hi in zip(stops, stops[1:])], n
        assert stops[-1] == n * (n - 1) // 2 and all(hi > lo for lo, hi in zip(stops, stops[1:])), n


# ---------------------------------------------------------------------------
# redundancy and partition
# ---------------------------------------------------------------------------

def test_redundancy_values():
    assert redundancy(15) == Fraction(1, 2)
    assert redundancy(21) == Fraction(5, 11)
    for p in (2, 3, 5, 7, 11, 13):
        assert redundancy(p) == 0


def test_redundancy_identity_exact():
    for d in range(2, 201):
        r = redundancy(d)
        assert r * (d * d - 1) + (d * d - 1) == dedekind_psi(d) * (d - 1)


def test_partition_reference_grid(ctx15):
    assert partition_lines(ctx15).tolist() == PARTITION_15


def test_partition_sets_intersect_only_at_origin(contexts, catalogs):
    for d, ctx in contexts.items():
        catalog = catalogs[d]
        sets = partition_lines(ctx)
        assert len(sets) == ctx.d2 + 1
        assert sorted(i for group in sets for i in group) == list(range(1, len(catalog) + 1))
        entries = catalog_entries(catalog)
        for group in sets:
            assert len(group) == ctx.d1 + 1
            members = [entries[i - 1].line for i in group]
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert len(point_set(a) & point_set(b)) == 1
