import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import constructions, green, search
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
    is_lattice,
    is_left_handed,
    is_right_handed,
    maximal_lattice_image,
    quotient,
    structure_report,
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
            assert is_left_handed(S) == lh
            assert is_right_handed(S) == rh


class TestQuotients:
    def test_d_quotient_is_lattice(self, census5):
        for n in (3, 4):
            for S in census5[n]:
                assert is_lattice(maximal_lattice_image(S))

    def test_non_congruence_rejected(self, threes):
        S, _ = threes
        bad = Partition.from_pairs(3, lambda x, y: x == y or {x, y} == {0, 1})
        assert is_congruence(S, bad) is not None
        with pytest.raises(NotACongruenceError):
            quotient(S, bad)

    def test_identity_partition_quotient_is_isomorphic(self, threes):
        S, _ = threes
        assert quotient(S, Partition.identity(3)).pair == S.pair

    def test_factors_fiber_product(self, census5):
        for S in census5[5][:20]:
            left, right = factors(S)
            assert is_left_handed(left)
            assert is_right_handed(right)
            # the pullback size equals n: per D-class, (R-classes) x (L-classes)
            L, R, D = green_relations(S)
            total = 0
            for cls in D.classes:
                r_parts = {R.class_of[x] for x in cls}
                l_parts = {L.class_of[x] for x in cls}
                total += len(r_parts) * len(l_parts)
            assert total == S.n


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
        down = cosets(S, upper, lower, "of-upper-in-lower", D)
        up = cosets(S, upper, lower, "of-lower-in-upper", D)
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
            cosets(S, incomparable[0][0], incomparable[0][1], "of-upper-in-lower", D)

    def test_coset_bijection_on_chain(self):
        S = constructions.chain((2, 2))
        _, _, D = green_relations(S)
        ord_ = class_order(S, D)
        hi = next(a for a in range(D.size) for b in range(D.size) if a != b and ord_[b][a])
        lo = 1 - hi
        ups = cosets(S, hi, lo, "of-lower-in-upper", D)
        downs = cosets(S, hi, lo, "of-upper-in-lower", D)
        bij = coset_bijection(S, ups[0], downs[0])
        assert sorted(bij) == sorted(ups[0])
        assert sorted(bij.values()) == sorted(downs[0])


class TestReport:
    def test_structure_report_mentions_classes(self, threes):
        S, _ = threes
        text = structure_report(S)
        assert "D-class 0" in text and "right-handed: True" in text

    def test_report_is_deterministic(self, threes):
        S, _ = threes
        assert structure_report(S) == structure_report(S)
