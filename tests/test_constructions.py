import hashlib
import itertools
import random

import pytest

from skewlat import constructions, green, varieties, ybe
from skewlat.constructions import (
    RingSpec,
    chain,
    direct_product,
    fixed,
    rectangular,
    ring_band,
    subalgebras,
)
from skewlat.core import is_skew_lattice, to_text


class TestFixed:
    def test_named_tables(self):
        r0 = fixed("3R0")
        assert r0.pair.meet == ((0, 0, 0), (0, 1, 2), (0, 1, 2))
        assert r0.pair.join == ((0, 1, 2), (1, 1, 1), (2, 2, 2))
        r1 = fixed("3R1")
        assert r1.pair.meet == ((0, 0, 2), (0, 1, 2), (0, 2, 2))
        assert r1.pair.join == ((0, 1, 0), (1, 1, 1), (2, 1, 2))

    def test_nc5_shapes(self):
        r = fixed("NC5R")
        l = fixed("NC5L")
        assert r.n == l.n == 5
        assert green.is_right_handed(r) and not green.is_left_handed(r)
        assert green.is_left_handed(l) and not green.is_right_handed(l)
        # NC5L is the opposite algebra of NC5R
        transpose = lambda t: tuple(tuple(t[j][i] for j in range(5)) for i in range(5))
        assert l.pair.meet == transpose(r.pair.meet)
        assert l.pair.join == transpose(r.pair.join)

    def test_nc5_defining_products(self):
        r = fixed("NC5R")
        a1, a2 = 1, 2
        assert r.meet(a1, a2) == a2 and r.meet(a2, a1) == a1
        assert r.join(a1, a2) == a1 and r.join(a2, a1) == a2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixed("M4")


class TestChain:
    def test_d_classes_are_the_blocks(self):
        for sizes in ((1,), (3, 2, 1), (1, 1, 1, 1), (2, 3, 1, 2)):
            _, _, D = green.green_relations(chain(sizes))
            starts = list(itertools.accumulate((0,) + sizes))
            blocks = [frozenset(range(a, b)) for a, b in zip(starts, starts[1:])]
            assert sorted(D.classes, key=min) == blocks

    def test_totally_ordered_image(self):
        S = chain((2, 2))
        o = green.class_order(S, green.green_relations(S)[2])
        k = green.maximal_lattice_image(S).n
        assert all(o[a][b] or o[b][a] for a in range(k) for b in range(k))

    def test_distributive_and_cancellative(self):
        rng = random.Random(5)
        for _ in range(10):
            sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            r = varieties.classify(chain(sizes))
            assert r["distributive"] and r["cancellative"]

    def test_empty_or_zero_sizes_rejected(self):
        with pytest.raises(ValueError):
            chain(())
        with pytest.raises(ValueError):
            chain((2, 0))


class TestRectangularAndProduct:
    def test_rectangular_single_d_class(self):
        for shape in ((1, 1), (2, 3), (3, 1), (4, 4)):
            S = rectangular(*shape)
            _, _, D = green.green_relations(S)
            assert D.size == 1
            assert varieties.classify(S)["rectangular"]

    def test_rectangular_join_is_flipped_meet(self):
        S = rectangular(2, 2)
        for x in S.elements():
            for y in S.elements():
                assert S.join(x, y) == S.meet(y, x)

    def test_direct_product_validates_and_projects(self):
        A = fixed("3R0")
        B = chain((2,))
        P = direct_product(A, B)
        assert P.n == A.n * B.n
        assert is_skew_lattice(P.pair)

    def test_subalgebras_include_whole_and_singletons(self):
        S = fixed("NC5R")
        sets = [frozenset(subset) for subset, _ in subalgebras(S, 5)]
        assert frozenset(range(5)) in sets
        for x in range(5):
            assert frozenset({x}) in sets


class TestRingBand:
    def test_ut2_mod2_emits_valid_algebras(self):
        result = ring_band(RingSpec(kind="ut", dim=2, mod=2))
        assert result.emitted
        for S, kind, band in result.emitted:
            assert kind in ("quadratic", "cubic")
            assert is_skew_lattice(S.pair)
            assert len(band) == S.n

    def test_emitted_are_distributive_and_cancellative(self):
        for spec in (RingSpec("ut", 2, 2), RingSpec("full", 2, 2), RingSpec("ut", 3, 2), RingSpec("ut", 2, 5)):
            for S, _, _ in ring_band(spec).emitted:
                r = varieties.classify(S)
                assert r["distributive"] and r["cancellative"]

    # sha256 of each emitted algebra's to_text followed by its join kind, in
    # emission order, and the number of bands whose cubic join is not associative
    @pytest.mark.parametrize(
        "spec, emitted, digest, nonassociative",
        [
            (RingSpec("ut", 3, 2), 62, "fc8e1921af85f32d84ffac697c7e302d90b9cfbf59b53de7c1dd2f3c88afde82", 2),
            (RingSpec("full", 2, 3), 28, "38b0468393431693063bfeeb7bed774601fc20fedc707af45e076409ad1e4cce", 0),
            (RingSpec("ut", 2, 5), 14, "5fe7a89502de71a6cce84c71caecf4d8b191d90c72d84ec5d7ba377b5574704a", 0),
        ],
    )
    def test_emitted_tables_are_pinned(self, spec, emitted, digest, nonassociative):
        result = ring_band(spec)
        text = "".join(to_text(S.pair) + kind for S, kind, _ in result.emitted)
        assert len(result.emitted) == emitted
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert len(result.nonassociative) == nonassociative

    @pytest.mark.parametrize("spec", [RingSpec("ut", 2, 2), RingSpec("full", 2, 2), RingSpec("ut", 3, 2)])
    def test_idempotent_quadratic_join_is_the_cubic_join(self, spec):
        p = spec.mod
        idempotents = [a for a in constructions._all_matrices(spec) if constructions._mat_mul(a, a, p) == a]
        for a, b in itertools.product(idempotents, repeat=2):
            q = constructions._quadratic_join(a, b, p)
            if constructions._mat_mul(q, q, p) == q:
                assert constructions._cubic_join(a, b, p) == q

    def test_emitted_pass_solution_checks(self):
        for S, _, _ in ring_band(RingSpec("ut", 2, 2)).emitted:
            for family in ("left", "right", "weak"):
                assert ybe.braid_check(ybe.build_map(S, family)) is None

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(kind="ut", dim=2, mod=4)

    def test_budget_cap(self):
        # 5**9 full 3x3 matrices mod 5 exceed MAX_MATRICES; the spec is refused
        # before any matrix is built
        with pytest.raises(ValueError, match="exceed the budget of 65536"):
            RingSpec(kind="full", dim=3, mod=5)
