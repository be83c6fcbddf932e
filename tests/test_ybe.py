import itertools
import random

import pytest

from skewlat import cli, constructions, core, terms, theorems, ybe
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

    def test_strong_map_on_three_r0_fails_braid(self, threes):
        S, _ = threes
        w = braid_check(build_map(S, "strong"))
        assert w is not None
        assert w.triple == (0, 1, 2)

    def test_three_r1_strong_map_fails_braid_too(self, threes):
        _, S = threes
        assert braid_check(build_map(S, "strong")) is not None

    def test_braid_check_matches_oracle(self, census5):
        # the exact witness on every solution map of order 5, and on random
        # pair maps of order <= 4 that come from no algebra
        rng = random.Random(31)
        maps = [build_map(S, kind) for S in census5[5] for kind in MAP_KINDS]
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
            seen.update((k, v) for k, v in vars(expected).items())
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
