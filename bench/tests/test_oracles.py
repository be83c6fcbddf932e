"""The benchmark's oracles on algebras whose properties are known."""

import itertools

import oracles
import pytest
from skewlat import constructions, search, ybe
from skewlat.core import CayleyPair


def tabs(S):
    return S.pair.meet, S.pair.join


def lattice_from_order(n, leq):
    """Meet and join tables of the lattice on 0..n-1 ordered by leq."""

    def bound(x, y, below):
        cands = [z for z in range(n) if (leq(z, x) and leq(z, y) if below else leq(x, z) and leq(y, z))]
        best = [z for z in cands if all((leq(w, z) if below else leq(z, w)) for w in cands)]
        (z,) = best
        return z

    meet = tuple(tuple(bound(x, y, True) for y in range(n)) for x in range(n))
    join = tuple(tuple(bound(x, y, False) for y in range(n)) for x in range(n))
    return meet, join


M3 = lattice_from_order(5, lambda x, y: x == y or x == 0 or y == 4)
N5 = lattice_from_order(5, lambda x, y: x == y or x == 0 or y == 4 or (x, y) == (2, 3))
FIXED = {name: tabs(constructions.fixed(name)) for name in ("3R0", "3R1", "NC5R", "NC5L")}
CHAINS = [(1, 2), (2, 1), (2, 2, 2), (1, 3, 2), (3, 1, 2, 1)]
RECTS = [(1, 2), (2, 1), (2, 3), (3, 3)]


def known_algebras():
    yield from FIXED.values()
    for sizes in CHAINS:
        yield tabs(constructions.chain(sizes))
    for sizes in RECTS:
        yield tabs(constructions.rectangular(*sizes))
    yield M3
    yield N5


@pytest.mark.parametrize("algebra", list(known_algebras()))
def test_axioms_hold_on_known_skew_lattices(algebra):
    assert oracles.is_skew_lattice(*algebra)


def test_axioms_fail_on_broken_tables():
    meet, join = FIXED["3R0"]
    broken = [list(row) for row in meet]
    broken[1][2] = 0  # now (1 v 2) ^ 2 = 1 ^ 2 = 0, not 2
    assert not oracles.is_skew_lattice(tuple(map(tuple, broken)), join)
    not_associative = ((0, 2, 1), (2, 1, 0), (1, 0, 2))  # x ^ y = -x - y mod 3 is not associative
    assert not oracles.is_skew_lattice(not_associative, not_associative)
    not_idempotent = ((1, 1), (1, 1))
    assert not oracles.is_skew_lattice(not_idempotent, not_idempotent)


def test_relabeling_preserves_the_class_and_finds_the_least_labeling():
    for meet, join in (a for a in known_algebras() if len(a[0]) <= 6):  # n! relabelings each
        least = oracles.canonical_flat(meet, join)
        n = len(meet)
        for perm in itertools.islice(itertools.permutations(range(n)), 30):
            other = oracles.relabel(meet, join, perm)
            assert oracles.isomorphic((meet, join), other)
            assert oracles.canonical_flat(*other) == least
        assert least <= oracles.flat(meet, join)


def test_isomorphism_separates_known_different_algebras():
    assert not oracles.isomorphic(FIXED["3R0"], FIXED["3R1"])  # classes of sizes 1<2 against 2<1
    assert not oracles.isomorphic(FIXED["NC5R"], FIXED["NC5L"])
    assert not oracles.isomorphic(M3, N5)
    assert oracles.isomorphic(FIXED["3R0"], tabs(constructions.chain((1, 2))))
    assert oracles.isomorphic(FIXED["3R1"], tabs(constructions.chain((2, 1))))


def test_lex_least_agrees_with_the_program_on_every_labeling():
    meet, join = FIXED["NC5R"]
    for perm in itertools.permutations(range(5)):
        m, j = oracles.relabel(meet, join, perm)
        pair = CayleyPair.from_tables(m, j)
        assert oracles.is_lex_least(m, j) == search.is_canonical(pair)


def test_handedness():
    for name, left, right in (("3R0", False, True), ("3R1", False, True), ("NC5R", False, True), ("NC5L", True, False)):
        assert oracles.left_handed(*FIXED[name]) is left, name
        assert oracles.right_handed(*FIXED[name]) is right, name
    for l, r in RECTS:
        S = tabs(constructions.rectangular(l, r))
        assert oracles.left_handed(*S) is (r == 1)
        assert oracles.right_handed(*S) is (l == 1)


def test_distributivity_and_cancellation():
    # skew chains (the paper's construction) and rectangular algebras are
    # distributive and cancellative
    for sizes in CHAINS:
        S = tabs(constructions.chain(sizes))
        assert oracles.d1(*S) and oracles.d2(*S) and oracles.c1(*S) and oracles.c2(*S)
    for sizes in RECTS:
        S = tabs(constructions.rectangular(*sizes))
        assert oracles.distributive(*S) and oracles.cancellative(*S)
    # M3 and N5 are the non-distributive lattices; NC5R and NC5L are not
    # simply cancellative, so not cancellative
    for lat in (M3, N5):
        assert oracles.lattice(*lat)
        assert not oracles.distributive(*lat)
        assert not oracles.cancellative(*lat)
    for name in ("NC5R", "NC5L"):
        assert not oracles.cancellative(*FIXED[name])
    assert not oracles.lattice(*FIXED["3R0"])


def test_d_classes():
    assert oracles.d_class_count(*tabs(constructions.chain((2, 3, 1)))) == 3
    assert oracles.d_class_count(*tabs(constructions.rectangular(2, 3))) == 1
    assert oracles.d_class_count(*FIXED["3R0"]) == 2
    assert oracles.d_class_count(*M3) == 5


def test_braid_relation_on_known_maps():
    n = 3
    identity = tuple(tuple((x, y) for y in range(n)) for x in range(n))
    twist = tuple(tuple((y, x) for y in range(n)) for x in range(n))
    flip_first = tuple(tuple((1 - x, y) for y in range(2)) for x in range(2))
    assert oracles.braid_holds(identity)
    assert oracles.braid_holds(twist)
    assert not oracles.braid_holds(flip_first)
    # the four update maps are solutions on every skew lattice
    for algebra in known_algebras():
        maps = oracles.solution_maps(*algebra)
        for kind in ("update", "lower_update", "co_update", "upper_update"):
            assert oracles.braid_holds(maps[kind]), kind


def test_maps_and_braid_verdicts_agree_with_the_program_up_to_order_4():
    for n in range(1, 5):
        for S in search.census(n):
            maps = oracles.solution_maps(*tabs(S))
            for kind in ybe.MAP_KINDS:
                built = ybe.build_map(S, kind)
                assert maps[kind] == built.table
                assert oracles.braid_holds(maps[kind]) == (ybe.braid_check(built) is None)
