import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import cli, constructions, core, green, search, varieties
from skewlat.core import CayleyPair, validate
from skewlat.green import (
    NotACongruenceError,
    Partition,
    class_order,
    coset_bijection,
    cosets,
    factors,
    green_relations,
    is_congruence,
    maximal_lattice_image,
    quotient,
)


class TestGreenRelations:
    def test_three_r0_d_classes(self, threes):
        S, _ = threes
        _, _, D = green_relations(S)
        assert sorted(sorted(c) for c in D.classes) == [[0], [1, 2]]

    def test_trivial_algebra(self):
        S = validate(CayleyPair.from_tables([[0]], [[0]]))
        L, R, D = green_relations(S)
        assert L.size == R.size == D.size == 1

    def test_chain_classes_are_blocks(self):
        S = constructions.chain((2, 3))
        _, _, D = green_relations(S)
        assert sorted(len(c) for c in D.classes) == [2, 3]

    def test_d_contains_l_and_r(self, census5):
        for S in census5[4]:
            L, R, D = green_relations(S)
            for x in S.elements():
                for y in S.elements():
                    if L.class_of[x] == L.class_of[y] or R.class_of[x] == R.class_of[y]:
                        assert D.class_of[x] == D.class_of[y]

    def test_handedness_against_identities(self, census5):
        for S in census5[4]:
            m = S.pair.meet
            lh = all(m[m[x][y]][x] == m[x][y] for x in S.elements() for y in S.elements())
            rh = all(m[m[x][y]][x] == m[y][x] for x in S.elements() for y in S.elements())
            assert (varieties.check(S, "left_handed") is True) == lh
            assert (varieties.check(S, "right_handed") is True) == rh


def _relabeled(S, perm):
    """S with element x renamed perm[x]."""
    inv = {v: k for k, v in enumerate(perm)}
    rng = range(S.n)
    tables = ([[perm[t[inv[a]][inv[b]]] for b in rng] for a in rng] for t in (S.pair.meet, S.pair.join))
    return validate(CayleyPair.from_tables(*tables))


def partition_by_definition(n, related):
    """The partition of range(n) by `related`, read over all n**2 pairs
    after checking that it is an equivalence: the class of each x is every
    y with related(x, y), and classes are listed by least member."""
    rel = [[related(x, y) for y in range(n)] for x in range(n)]
    for x, y, z in itertools.product(range(n), repeat=3):
        assert rel[x][x] and rel[x][y] == rel[y][x], (x, y)
        assert not (rel[x][y] and rel[y][z]) or rel[x][z], (x, y, z)
    classes = list(dict.fromkeys(frozenset(y for y in range(n) if rel[x][y]) for x in range(n)))
    return Partition(tuple(next(k for k, c in enumerate(classes) if x in c) for x in range(n)), tuple(classes))


def green_by_definition(S):
    """(L, R, D) over all pairs, from their definitions on the meet band:
    x L y iff x^y = x and y^x = y; x R y iff x^y = y and y^x = x; x D y iff
    x^y^x = x and y^x^y = y."""
    meet = S.meet
    return (
        partition_by_definition(S.n, lambda x, y: meet(x, y) == x and meet(y, x) == y),
        partition_by_definition(S.n, lambda x, y: meet(x, y) == y and meet(y, x) == x),
        partition_by_definition(S.n, lambda x, y: meet(meet(x, y), x) == x and meet(meet(y, x), y) == y),
    )


def test_green_relations_match_their_definitions(constructed):
    for S in [S for n in range(1, 7) for S in search.census(n)] + constructed:
        assert green_relations(S) == green_by_definition(S), S.pair


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_green_relations_match_their_definitions_when_relabeled(data):
    S = data.draw(st.sampled_from(_algebras()))
    S = _relabeled(S, data.draw(st.permutations(range(S.n))))
    assert green_relations(S) == green_by_definition(S), S.pair


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=9))
def test_from_pairs_builds_the_partition_of_a_labeling(labels):
    # each class is built from its least member, and related(x, y) is asked
    # only of that leader x and each later y that no earlier class took
    n, calls = len(labels), []

    def related(x, y):
        calls.append((x, y))
        return labels[x] == labels[y]

    P = Partition.from_pairs(n, related)
    order = list(dict.fromkeys(labels))  # labels by their least element
    assert P.class_of == tuple(order.index(v) for v in labels)
    assert P.classes == tuple(frozenset(x for x in range(n) if labels[x] == v) for v in order)
    assert P == partition_by_definition(n, lambda x, y: labels[x] == labels[y])
    leaders = [min(c) for c in P.classes]
    assert calls == [(x, y) for x in leaders for y in range(x + 1, n) if leaders[P.class_of[y]] >= x]


class TestQuotients:
    def test_d_quotient_is_lattice(self, census5):
        for n in (3, 4):
            for S in census5[n]:
                assert varieties.check(maximal_lattice_image(S), "lattice") is True

    def test_non_congruence_rejected(self, threes):
        S, _ = threes
        bad = Partition.from_pairs(3, lambda x, y: x == y or {x, y} == {0, 1})
        assert is_congruence(S, bad) is not None
        with pytest.raises(NotACongruenceError):
            quotient(S, bad)

    def test_identity_partition_quotient_is_isomorphic(self, threes):
        S, _ = threes
        assert quotient(S, Partition.from_pairs(3, int.__eq__)).pair == S.pair

    def test_identity_quotient_is_the_algebra_itself(self, monkeypatch, constructed):
        # the identity partition in element order gives S's own tables: no
        # congruence test and no validation
        def forbidden(*args):
            raise AssertionError("the identity quotient tested or validated its tables")

        monkeypatch.setattr(green, "is_congruence", forbidden)
        monkeypatch.setattr(green, "validate", forbidden)
        for S in [*search.census(4), *constructed]:
            assert quotient(S, Partition.from_pairs(S.n, int.__eq__)) is S

    def test_maximal_lattice_image_is_the_quotient_by_d(self):
        for S in [S for n in range(1, 7) for S in search.census(n)]:
            assert maximal_lattice_image(S) == quotient(S, green_relations(S)[2])

    def test_factors_fiber_product(self, census5):
        for S in census5[5][:20]:
            left, right = factors(S)
            assert varieties.check(left, "left_handed") is True
            assert varieties.check(right, "right_handed") is True
            # the pullback size equals n: per D-class, (R-classes) x (L-classes)
            L, R, D = green_relations(S)
            total = 0
            for cls in D.classes:
                r_parts = {R.class_of[x] for x in cls}
                l_parts = {L.class_of[x] for x in cls}
                total += len(r_parts) * len(l_parts)
            assert total == S.n

    def test_proper_factors_are_the_factors_of_an_algebra_not_handed(self):
        # () when R or L is the identity (S is handed and is one of its own
        # factors), else the two factors
        census = [S for n in range(1, 7) for S in search.census(n)]
        routed = 0
        for S in census:
            L, R, _ = green_relations(S)
            handed = R.size == S.n or L.size == S.n
            assert handed == (varieties.check(S, "left_handed") is True or varieties.check(S, "right_handed") is True)
            assert green.proper_factors(S) == (() if handed else factors(S)), S.pair.flat()
            routed += not handed
        assert routed == 69


def literal_congruence_witness(S, P):
    """`is_congruence` written as the definition: the first (x, y, c), in
    lexicographic order, with x and y in one class and some product with c,
    meet or join, on either side, taking them to different classes."""
    cls, n = P.class_of, S.n
    for x, y, c in itertools.product(range(n), repeat=3):
        if cls[x] == cls[y]:
            for t in (S.pair.meet, S.pair.join):
                if cls[t[x][c]] != cls[t[y][c]] or cls[t[c][x]] != cls[t[c][y]]:
                    return (x, y, c)
    return None


@functools.cache
def _algebras():
    return [S for n in range(1, 6) for S in search.census(n)] + [
        constructions.rectangular(2, 3),
        constructions.rectangular(3, 3),
        constructions.chain((3, 3, 3)),
        constructions.chain((2, 1, 3)),
        constructions.direct_product(constructions.fixed("3R0"), constructions.fixed("3R1")),
    ]


@st.composite
def partitioned_algebras(draw):
    """A census member of order <= 5 or a construction, and a random
    partition of its elements into at most three classes."""
    S = draw(st.sampled_from(_algebras()))
    labels = draw(st.lists(st.integers(0, 2), min_size=S.n, max_size=S.n))
    return S, Partition.from_pairs(S.n, lambda x, y: labels[x] == labels[y])


@settings(max_examples=400, deadline=None)
@given(partitioned_algebras())
def test_congruence_witness_matches_the_definition(case):
    S, P = case
    assert is_congruence(S, P) == literal_congruence_witness(S, P)


def _permuted(P, order):
    """P with its classes listed in `order`, a permutation of its class ids,
    and each element's class id renamed to match."""
    new_id = {old: k for k, old in enumerate(order)}
    return Partition(tuple(new_id[c] for c in P.class_of), tuple(P.classes[old] for old in order))


def _near_congruences(S, rng):
    """Class labels for the elements of S: random ones, from one to n
    labels, and Green's relations and the identity partition with two
    classes merged or one element moved, so that some fail first past
    the first class."""
    n = S.n
    for k in range(1, n + 1):
        yield [rng.randrange(k) for _ in range(n)]
    for P in (*green_relations(S), Partition.from_pairs(n, int.__eq__)):
        if P.size > 1:
            a, b = rng.sample(range(P.size), 2)
            yield [a if c == b else c for c in P.class_of]
            labels = list(P.class_of)
            labels[rng.randrange(n)] = rng.randrange(P.size)
            yield labels


def test_congruence_witness_matches_the_definition_on_many_classes():
    # is_congruence compares each element with its class's least member,
    # the classes taken by least member; listing the classes in another
    # order, with the ids renamed, changes no witness
    rng = random.Random(43)
    seen = {"congruence": 0, "fails past the first class": 0, "permuted": 0}
    for S in _algebras():
        for labels in _near_congruences(S, rng):
            P = Partition.from_pairs(S.n, lambda x, y: labels[x] == labels[y])
            Q = _permuted(P, rng.sample(range(P.size), P.size))
            expected = literal_congruence_witness(S, P)
            assert is_congruence(S, P) == is_congruence(S, Q) == expected, (S.pair, P, Q)
            seen["congruence"] += expected is None
            seen["fails past the first class"] += expected is not None and P.class_of[expected[0]] > 0
            seen["permuted"] += Q.classes != P.classes
    assert min(seen.values()) > 100, seen


def test_quotient_reads_the_ids_of_the_partition():
    # the quotient by a partition whose classes are listed in another order
    # is the quotient by the ordered one, relabeled by the renamed ids
    rng = random.Random(47)
    for S in _algebras():
        for P in green_relations(S):
            order = rng.sample(range(P.size), P.size)
            new_id = {old: k for k, old in enumerate(order)}
            T = quotient(S, P).pair
            expected = [[[new_id[t[a][b]] for b in order] for a in order] for t in (T.meet, T.join)]
            assert quotient(S, _permuted(P, order)).pair == CayleyPair.from_tables(*expected)


def test_green_congruence_witnesses_match_the_definition():
    # Green's L, R and D are congruences of a skew lattice: no witness
    for S in _algebras():
        for P in green_relations(S):
            assert is_congruence(S, P) == literal_congruence_witness(S, P), (S.pair, P)


class TestCosets:
    def test_three_r0_cosets(self, threes):
        S, _ = threes
        _, _, D = green_relations(S)
        upper = D.class_of[1]
        lower = D.class_of[0]
        up, down = cosets(S, upper, lower, D)
        # B = {0} is a singleton, so 0 ^ a ^ 0 gives one coset {0} downward
        # and 0 v a v 0 splits the upper class into singleton cosets
        assert [sorted(c) for c in down] == [[0]]
        assert [sorted(c) for c in up] == [[1], [2]]

    def test_incomparable_classes_rejected(self):
        S = constructions.direct_product(
            constructions.chain((1, 1)), constructions.chain((1, 1))
        )
        _, _, D = green_relations(S)
        incomparable = [
            (a, b)
            for a in range(D.size)
            for b in range(D.size)
            if a != b and not class_order(S, D)[a][b] and not class_order(S, D)[b][a]
        ]
        assert incomparable
        with pytest.raises(ValueError):
            cosets(S, incomparable[0][0], incomparable[0][1], D)

    def test_coset_bijection_on_chain(self):
        S = constructions.chain((2, 2))
        _, _, D = green_relations(S)
        ord_ = class_order(S, D)
        hi = next(a for a in range(D.size) for b in range(D.size) if a != b and ord_[b][a])
        lo = 1 - hi
        ups, downs = cosets(S, hi, lo, D)
        bij = coset_bijection(S, ups[0], downs[0])
        assert sorted(bij) == sorted(ups[0])
        assert sorted(bij.values()) == sorted(downs[0])


def test_cosets_and_bijection_match_their_definitions(census5, constructed):
    # on every class pair: a strictly comparable one (A > B, by class_order)
    # has the cosets of the definition and the bijection x -> the one y <= x
    # (by core.orders); any other is refused
    for S in [S for n in census5 for S in census5[n]] + constructed:
        _, _, D = green_relations(S)
        ord_, leq = class_order(S, D), core.orders(S).leq
        m, j = S.pair.meet, S.pair.join
        for A, B in itertools.product(range(D.size), repeat=2):
            if A == B or not ord_[B][A]:
                with pytest.raises(ValueError, match="not strictly comparable"):
                    cosets(S, A, B, D)
                continue
            upper, lower = D.classes[A], D.classes[B]
            downs = sorted({frozenset(m[m[a][b]][a2] for a in upper for a2 in upper) for b in lower}, key=min)
            ups = sorted({frozenset(j[j[b][a]][b2] for b in lower for b2 in lower) for a in upper}, key=min)
            assert cosets(S, A, B, D) == (ups, downs)
            for X in ups:
                for Y in downs:
                    below = {x: [y for y in Y if leq[y][x]] for x in X}
                    assert all(len(ys) == 1 for ys in below.values())
                    assert coset_bijection(S, X, Y) == {x: ys[0] for x, ys in below.items()}


class TestReport:
    @pytest.fixture()
    def r0_file(self, tmp_path, threes):
        path = tmp_path / "3R0.skl"
        core.save(threes[0].pair, path)
        return str(path)

    def test_structure_report_mentions_classes(self, capsys, r0_file):
        assert cli.run(["structure", r0_file]) == 0
        text = capsys.readouterr().out
        assert "D-class 0: {0}" in text and "right-handed: True" in text and "S/D edge: 0 < 1" in text

    def test_report_is_deterministic(self, capsys, r0_file):
        outputs = []
        for _ in range(2):
            cli.run(["structure", r0_file])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
