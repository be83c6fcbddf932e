import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import cli, constructions, core, green, search, terms, theorems, ybe
from skewlat.core import CayleyPair, validate
from skewlat.ybe import (
    MAP_KINDS,
    braid_check,
    build_map,
    degeneracy,
    power_class,
    solution_identity_check,
)


def oracle_braid_witness(m):
    """Oracle: the first triple where the two braid sides differ, composed
    literally from r12 = r x id and r23 = id x r."""

    def r12(x, y, z):
        return (*m.table[x][y], z)

    def r23(x, y, z):
        return (x, *m.table[y][z])

    for triple in itertools.product(range(m.n), repeat=3):
        lhs = r12(*r23(*r12(*triple)))
        rhs = r23(*r12(*r23(*triple)))
        if lhs != rhs:
            return ybe.BraidWitness(triple, lhs, rhs)
    return None


def oracle_map_table(S, kind):
    """Oracle: the map's pair table from its components written out by hand."""
    m, j = S.pair.meet, S.pair.join

    def lower(x, y):  # (y^x^y) v x v (y^x^y)
        t = m[m[y][x]][y]
        return j[j[t][x]][t]

    def upper(x, y):  # (yvxvy) ^ x ^ (yvxvy)
        t = j[j[y][x]][y]
        return m[m[t][x]][t]

    f = {
        "update": lambda x, y: (j[m[x][y]][x], y),
        "lower_update": lambda x, y: (lower(x, y), y),
        "co_update": lambda x, y: (x, m[j[y][x]][y]),
        "upper_update": lambda x, y: (x, upper(y, x)),
        "strong": lambda x, y: (m[x][y], j[x][y]),
        "left": lambda x, y: (m[x][y], j[y][x]),
        "right": lambda x, y: (m[y][x], j[x][y]),
        "weak": lambda x, y: (m[m[x][y]][x], j[j[x][y]][x]),
    }[kind]
    return tuple(tuple(f(x, y) for y in S.elements()) for x in S.elements())


class TestBuildMap:
    def test_map_kinds_are_the_term_table_in_order(self):
        assert MAP_KINDS == tuple(ybe.MAPS) == (
            "update", "lower_update", "co_update", "upper_update", "strong", "left", "right", "weak",
        )

    def test_every_kind_matches_the_oracle(self, census5):
        fixed = [constructions.fixed(name) for name in ("3R0", "3R1", "NC5R", "NC5L")]
        algebras = [S for n in census5 for S in census5[n]] + fixed
        for S in algebras:
            for kind in MAP_KINDS:
                got, want = build_map(S, kind).table, oracle_map_table(S, kind)
                for x in S.elements():
                    for y in S.elements():
                        assert got[x][y] == want[x][y], (kind, x, y, S.pair.flat())

    def test_every_kind_is_its_terms_evaluated_cell_by_cell(self, census5, constructed, oracle_evaluate):
        # the whole table from one compiled call against sigma and tau
        # evaluated one cell at a time by the recursive oracle
        parsed = {kind: tuple(map(terms.parse_term, pair)) for kind, pair in ybe.MAPS.items()}
        for S in [S for n in census5 for S in census5[n]] + constructed:
            r = S.elements()
            for kind, sides in parsed.items():
                want = tuple(
                    tuple(tuple(oracle_evaluate(S, t, {"x": x, "y": y}) for t in sides) for y in r) for x in r
                )
                assert build_map(S, kind) == ybe.PairMap(S.n, want), (kind, S.pair.flat())

    def test_unknown_kind_rejected(self, threes):
        with pytest.raises(ValueError):
            build_map(threes[0], "bogus")
        with pytest.raises(ValueError):
            ybe.decide(threes[0], ("bogus",))

    def test_strong_map_on_three_r0_fails_braid(self, threes):
        S, _ = threes
        w = braid_check(build_map(S, "strong"))
        assert w is not None
        assert w.triple == (0, 1, 2)

    def test_three_r1_strong_map_fails_braid_too(self, threes):
        _, S = threes
        assert braid_check(build_map(S, "strong")) is not None

    def test_braid_check_matches_oracle(self, census5, constructed):
        # the exact witness (the triple and both sides) on every solution map
        # of the census to order 5 and of the constructed algebras, the
        # update kinds through the check of a kept coordinate, and on random
        # pair maps of order <= 4 that come from no algebra
        rng = random.Random(31)
        algebras = [S for n in census5 for S in census5[n]] + constructed
        maps = [build_map(S, kind) for S in algebras for kind in MAP_KINDS]
        for _ in range(600):
            n = rng.randint(1, 4)
            table = tuple(tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n)) for _ in range(n))
            maps.append(ybe.PairMap(n, table))
        for m in maps:
            assert braid_check(m) == oracle_braid_witness(m), m

    def test_twist_map_is_involutive_solution(self):
        m = ybe.PairMap(4, tuple(tuple((y, x) for y in range(4)) for x in range(4)))  # r(x, y) = (y, x)
        assert braid_check(m) is None
        assert power_class(m).involutive


UPDATE_KINDS = ("update", "lower_update", "co_update", "upper_update")


def kept_pair_map(keeps, other):
    """The map keeping coordinate `keeps` (1: r(x, y) = (other[x][y], y),
    0: r(x, y) = (x, other[x][y])), with that coordinate as its hint."""
    n = len(other)
    if keeps == 1:
        table = tuple(tuple((other[x][y], y) for y in range(n)) for x in range(n))
    else:
        table = tuple(tuple((x, other[x][y]) for y in range(n)) for x in range(n))
    return ybe.PairMap(n, table, keeps)


def other_component(m):
    """The component of m that m.keeps does not name, as rows."""
    return [[cell[1 - m.keeps] for cell in row] for row in m.table]


def failing_case(m, w):
    """How the witness w of m, a map keeping m.keeps, fails: (kept
    coordinate, which of the two conditions fail, whether z = 0, whether
    r(x, y) = (x, y), where braid_check may skip the z loop)."""
    x, y, z = w.triple
    kept = m.keeps
    # r(x, y) = (x·y, y): sides ((x·y)·c, c, z) and (x·c, c·z, z), c = y·z;
    # r(x, y) = (x, x∘y): sides (x, x∘(x∘y), b∘z) and (x, b, b∘(y∘z)), b = x∘y
    first, second = (0, 1) if kept == 1 else (1, 2)
    conditions = tuple(i + 1 for i, side in enumerate((first, second)) if w.lhs[side] != w.rhs[side])
    return kept, conditions, z == 0, m.table[x][y] == (x, y)


def test_update_maps_keep_their_coordinate(threes):
    S, _ = threes
    assert {kind: build_map(S, kind).keeps for kind in MAP_KINDS} == {
        "update": 1, "lower_update": 1, "co_update": 0, "upper_update": 0,
        "strong": None, "left": None, "right": None, "weak": None,
    }
    # the hint takes no part in equality or hashing
    m = build_map(S, "update")
    plain = ybe.PairMap(m.n, m.table)
    assert plain == m and hash(plain) == hash(m) and plain.keeps is None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_kept_coordinate_maps_match_the_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    keeps = data.draw(st.sampled_from((0, 1)))
    row = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    m = kept_pair_map(keeps, data.draw(st.lists(row, min_size=n, max_size=n)))
    assert braid_check(m) == oracle_braid_witness(m)


def test_changed_update_maps_fail_each_condition(census5):
    # census update maps with one cell of the other component changed, and
    # random maps keeping one coordinate: every witness is the oracle's, and
    # the failures cover each condition, alone and together, at z = 0 and
    # past it, and where the kept-coordinate shortcut applies at (x, y)
    rng = random.Random(29)
    maps = []
    for n in range(2, 6):
        for S in census5[n]:
            for kind in UPDATE_KINDS:
                m = build_map(S, kind)
                for _ in range(6):
                    other = other_component(m)
                    x, y = rng.randrange(n), rng.randrange(n)
                    other[x][y] = rng.choice([v for v in range(n) if v != other[x][y]])
                    maps.append(kept_pair_map(m.keeps, other))
    for _ in range(1500):
        n = rng.randint(1, 4)
        maps.append(kept_pair_map(rng.randrange(2), [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    seen = set()
    for m in maps:
        w = braid_check(m)
        assert w == oracle_braid_witness(m), m
        if w is not None:
            seen.add(failing_case(m, w))
    for kept in (0, 1):
        for conditions in ((1,), (2,), (1, 2)):
            assert any(c[:2] == (kept, conditions) for c in seen), (kept, conditions)
        # the second condition alone, first failing past z = 0
        assert any(c[:3] == (kept, (2,), False) for c in seen), kept
        # the second condition alone where the shortcut applies at (x, y)
        assert any(c[:2] == (kept, (2,)) and c[3] for c in seen), kept
    # the first condition of r(x, y) = (x·y, y) first failing past z = 0;
    # that of r(x, y) = (x, x∘y) fails at every z, so first at z = 0
    assert any(c[:3] == (1, (1,), False) for c in seen)
    assert not any(c[:3] == (0, (1,), False) for c in seen)


def test_a_wrong_hint_gets_the_triple_loop_answer(census5):
    # the hint is confirmed on the table before the reduced check uses it:
    # wrong hints on update maps with one kept cell changed, on the other
    # kind of update map, on the other four kinds and on random maps
    rng = random.Random(7)
    maps = []
    for n in range(2, 6):
        for S in census5[n]:
            for kind in MAP_KINDS:
                m = build_map(S, kind)
                table = [list(row) for row in m.table]
                x, y = rng.randrange(n), rng.randrange(n)
                a, b = table[x][y]
                table[x][y] = (a, (b + 1) % n) if m.keeps == 1 else ((a + 1) % n, b)
                table = tuple(map(tuple, table))
                maps += [ybe.PairMap(n, table, keeps) for keeps in (0, 1)]
                maps += [ybe.PairMap(n, m.table, 1 - m.keeps)] if m.keeps is not None else []
    for _ in range(600):
        n = rng.randint(2, 4)
        table = tuple(tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n)) for _ in range(n))
        maps.append(ybe.PairMap(n, table, rng.randrange(2)))
    for m in maps:
        assert braid_check(m) == braid_check(ybe.PairMap(m.n, m.table)) == oracle_braid_witness(m), m


class TestUpdates:
    def test_lower_update_properties_asserted(self, census5):
        # the coset and meet properties of both updates and the lower update's
        # left-handed shortcut, checked by their battery entry up to n=4
        check = theorems.THEOREMS["lower-update-composition-law"]
        for n in (2, 3, 4):
            for S in census5[n]:
                assert check(S) is True

    def test_update_maps_are_idempotent_solutions(self, census5):
        for S in census5[4]:
            for kind in ("update", "lower_update", "co_update", "upper_update"):
                m = build_map(S, kind)
                assert braid_check(m) is None
                assert power_class(m).idempotent

    def test_lower_update_shortcut_on_handed_algebras(self, threes):
        S, _ = threes  # right handed
        for x in S.elements():
            for y in S.elements():
                assert build_map(S, "lower_update").table[x][y][0] == S.join(S.meet(x, y), x)


def random_pair_map(rng, n, shape):
    """A PairMap on n elements: arbitrary, an involution (pairs of a random
    image swapped), a retraction onto that image (idempotent), or the swap
    after the retraction (cubic)."""
    pairs = [(x, y) for x in range(n) for y in range(n)]
    image = rng.sample(pairs, rng.randint(1, len(pairs)))
    swap = dict(zip(image, image))
    shuffled = rng.sample(image, len(image))
    for a, b in zip(shuffled[::2], shuffled[1::2]):
        swap[a], swap[b] = b, a
    if shape == "arbitrary":
        r = {p: rng.choice(pairs) for p in pairs}
    elif shape == "involution":
        r = {p: swap.get(p, p) for p in pairs}
    else:
        retract = {p: p if p in swap else rng.choice(image) for p in pairs}
        r = retract if shape == "idempotent" else {p: swap[retract[p]] for p in pairs}
    return ybe.PairMap(n, tuple(tuple(r[(x, y)] for y in range(n)) for x in range(n)))


def test_power_class_matches_composition():
    # on random pair maps, solutions or not, against r^2 and r^3 composed
    # pair by pair
    rng = random.Random(31)
    seen = set()
    for n in range(1, 7):
        for shape in ("arbitrary", "involution", "idempotent", "cubic") * 15:
            m = random_pair_map(rng, n, shape)

            def r(p):
                return m.table[p[0]][p[1]]

            pairs = [(x, y) for x in range(n) for y in range(n)]
            expected = ybe.PowerClass(
                involutive=all(r(r(p)) == p for p in pairs),
                idempotent=all(r(r(p)) == r(p) for p in pairs),
                cubic=all(r(r(r(p))) == r(p) for p in pairs),
            )
            assert power_class(m) == expected, m
            seen.update((k, v) for k, v in expected._asdict().items())
    assert len(seen) == 6  # each flag read both true and false


class TestClassification:
    def test_power_class_name_priority(self, capsys, tmp_path):
        # on one element every map is the identity: involutive, idempotent and
        # cubic at once, and the report names the first
        path = tmp_path / "one.skl"
        core.save(CayleyPair.from_tables([[0]], [[0]]), path)
        assert cli.run(["ybe", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("power-")] == [
            "power-class: involutive",
            "power-flags: involutive=true idempotent=true cubic=true",
        ] * len(MAP_KINDS)

    def test_degeneracy_of_twist(self):
        left, right = degeneracy(ybe.PairMap(3, tuple(tuple((y, x) for y in range(3)) for x in range(3))))
        assert left and right

    def test_update_map_is_right_degenerate(self, threes):
        S, _ = threes
        left, right = degeneracy(build_map(S, "update"))
        assert not right  # the second component is constant in x

    def test_identity_check_agrees_with_braid(self, census5):
        for S in census5[4]:
            for family in ("strong", "left", "right", "weak"):
                res = solution_identity_check(S, family)
                braid_ok = braid_check(build_map(S, family)) is None
                assert (res is True) == braid_ok

    def test_solution_report_text(self, capsys, tmp_path, threes):
        path = tmp_path / "3R0.skl"
        core.save(threes[0].pair, path)
        assert cli.run(["ybe", str(path), "--map", "strong"]) == 1
        text = capsys.readouterr().out
        assert "braid: fail" in text and "power-class: cubic" in text


def direct_verdicts(S, kinds=MAP_KINDS):
    """Oracle: each kind's map on S with braid_check on that map."""
    return tuple((kind, m, braid_check(m)) for kind in kinds for m in [build_map(S, kind)])


def not_handed(S):
    """Whether Green's R and L both have fewer classes than S has elements."""
    L, R, _ = green.green_relations(S)
    return max(L.size, R.size) < S.n


def relabeled(S, perm):
    """S with each element x renamed perm[x]."""
    n, pinv = S.n, core.inverse(perm)
    tables = ([[perm[t[pinv[a]][pinv[b]]] for b in range(n)] for a in range(n)] for t in (S.pair.meet, S.pair.join))
    return core.validate(CayleyPair.from_tables(*tables))


@pytest.fixture(scope="module")
def verdict_algebras(constructed, built):
    """The census to order 6, the constructed algebras and the built ones."""
    return [S for n in range(1, 7) for S in search.census(n)] + constructed + built


class TestDecide:
    def test_census_to_order_six_has_non_handed_members(self):
        census = [S for n in range(1, 7) for S in search.census(n)]
        assert (len(census), sum(map(not_handed, census))) == (258, 69)

    def test_equals_the_direct_check(self, verdict_algebras):
        # the same maps and the same witnesses as braid_check on S, for
        # every kind and for each kind alone
        for S in verdict_algebras:
            assert ybe.decide(S) == direct_verdicts(S), S.pair.flat()
            for kind in MAP_KINDS:
                assert ybe.decide(S, (kind,)) == direct_verdicts(S, (kind,)), (kind, S.pair.flat())

    def test_the_factors_disagree_both_ways(self, verdict_algebras):
        # a kind that passes on one factor and fails on the other, either
        # way round, and fails on S while passing on S/D: deciding on one
        # factor, or on S/D in place of either, gives a wrong pass
        seen = set()
        for S in filter(not_handed, verdict_algebras):
            L, R, D = green.green_relations(S)
            factors = [green.quotient(S, P) for P in (R, L, D)]
            for kind in MAP_KINDS:
                right, left, lattice = (braid_check(build_map(F, kind)) is None for F in factors)
                assert (braid_check(build_map(S, kind)) is None) == (right and left)
                if lattice and right != left:
                    seen.add(right)
        assert seen == {False, True}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relabeled_algebras(self, verdict_algebras, data):
        S = data.draw(st.sampled_from(verdict_algebras))
        S = relabeled(S, data.draw(st.permutations(range(S.n))))
        kinds = data.draw(st.lists(st.sampled_from(MAP_KINDS), unique=True))
        assert ybe.decide(S, kinds) == direct_verdicts(S, kinds), S.pair.flat()

    def test_ybe_verb_skips_the_triples_of_a_non_handed_algebra(self, capsys, tmp_path, monkeypatch):
        # rect(4, 4) passes every kind on its two 4-element factors: the
        # report is the one the direct check gives, and no 16-element map
        # is braid-checked
        checked, real = [], ybe.braid_check
        monkeypatch.setattr(ybe, "braid_check", lambda m: checked.append(m.n) or real(m))
        path = tmp_path / "rect-4-4.skl"
        core.save(constructions.rectangular(4, 4).pair, path)
        digests = {
            "text": "8ebed91da53f47f86ed200b92c6ff22a8c97b3f36eed9bbe6cb839f08dfddc6d",
            "tsv": "d6a1bb5c023ce3386c5525501bcaac9f387df29c5c69b60dd1a0e6deace7bc06",
        }
        for fmt, digest in digests.items():
            assert cli.run(["ybe", str(path), "--format", fmt]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert checked and 16 not in checked

    def test_handed_algebras_build_no_quotient(self, capsys, tmp_path, monkeypatch):
        def forbidden(S, P):
            raise AssertionError("green.quotient was called")

        monkeypatch.setattr(green, "quotient", forbidden)
        path = tmp_path / "chain-2-2-2.skl"
        core.save(constructions.chain((2, 2, 2)).pair, path)
        assert cli.run(["ybe", str(path)]) == 1
        assert "braid: fail" in capsys.readouterr().out
