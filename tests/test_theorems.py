"""The theorem battery is the one owner of the library's theorem checks: it
passes on the census, and each owner entry catches a library function that
gives a wrong answer."""

import pytest

from skewlat import cli, constructions, core, green, terms, theorems, varieties, ybe
from skewlat.core import CayleyPair, ElementPairOrder, SkewLattice
from skewlat.green import Partition


def test_battery_passes_up_to_order_five():
    result = theorems.run_battery(5)
    assert result.ok
    assert result.algebra_count == 85
    assert list(result.passes) == list(theorems.THEOREMS) and len(result.passes) == 13
    assert all(count == 85 for count in result.passes.values())


def _merge_two_d_classes(real):
    def fake(S):
        L, R, D = real(S)
        return L, R, Partition.from_pairs(S.n, lambda x, y: max(D.class_of[x], 1) == max(D.class_of[y], 1))

    return fake


def _flip_one_leq_cell(real):
    def fake(S):
        o = real(S)
        leq = [list(row) for row in o.leq]
        leq[0][S.n - 1] = not leq[0][S.n - 1]
        return ElementPairOrder(o.preceq, tuple(tuple(row) for row in leq))

    return fake


def _flip_binormal(real):
    def fake(S):
        rep = real(S)
        flags = dict(rep.flags, binormal=not rep.flags["binormal"])
        return varieties.VarietyReport(flags, rep.witnesses)

    return fake


def _flip_check(flag):
    """A varieties.check fault: `flag` reads the opposite verdict."""

    def fault(real):
        def fake(S, f):
            found = real(S, f)
            if f != flag:
                return found
            return {"x": 0} if found is True else True

        return fake

    fault.kind = flag
    return fault


def _drop_an_upper_coset(real):
    """A green.cosets fault: B's cosets in A miss their last one."""

    def fake(*args):
        ups, downs = real(*args)
        return ups[:-1], downs

    return fake


def _identity_map_for(kind):
    """A build_map fault: the map (x, y) -> (x, y) in place of `kind`."""

    def fault(real):
        def fake(S, k):
            if k != kind:
                return real(S, k)
            return ybe.PairMap(S.n, tuple(tuple((x, y) for y in S.elements()) for x in S.elements()))

        return fake

    fault.kind = kind
    return fault


# (owner entry, module, function, fault, algebra it shows on, battery max_n)
FAULTS = [
    ("orders-cohere-with-green", core, "orders", _flip_one_leq_cell, "3R0", 2),
    ("decomposition-invariants", green, "green_relations", _merge_two_d_classes, "3R0", 2),
    ("decomposition-invariants", varieties, "check", _flip_check("left_handed"), "3R0", 1),
    ("decomposition-invariants", green, "maximal_lattice_image",
     lambda real: lambda S: green.quotient(S, Partition.from_pairs(S.n, int.__eq__)), "3R0", 3),
    ("decomposition-invariants", green, "factors", lambda real: lambda S: real(S)[::-1], "3R0", 3),
    ("coset-membership-criterion", green, "cosets", _drop_an_upper_coset, "3R0", 2),
    ("coset-membership-criterion", green, "coset_bijection",
     lambda real: lambda S, X, Y: {x: x for x in X}, "3R0", 2),
    ("lower-update-composition-law", ybe, "build_map", _identity_map_for("lower_update"), "3R0", 3),
    ("lower-update-composition-law", ybe, "build_map", _identity_map_for("upper_update"), "3R0", 3),
    ("handed-update-coincidences", ybe, "build_map", _identity_map_for("lower_update"), "3R0", 3),
    ("update-maps-are-idempotent-solutions", ybe, "power_class",
     lambda real: lambda m: ybe.PowerClass(involutive=False, idempotent=True, cubic=False), "3R0", 1),
    ("family-identity-iff-braid", ybe, "solution_identity_check", lambda real: lambda S, family: True, "3R0", 3),
    ("handed-cancellativity-iff-solution", varieties, "classify", _flip_binormal, "3R0", 1),
    ("nc5-characterizes-simple-cancellativity", varieties, "nc5_free", lambda real: lambda S: True, "NC5R", 5),
]


@pytest.mark.parametrize(
    "entry, module, name, fault, algebra, max_n",
    FAULTS,
    # a build_map or check fault is named by the map kind or flag it replaces
    ids=[f"{entry}:{getattr(fault, 'kind', name)}" for entry, _, name, fault, *_ in FAULTS],
)
def test_owner_entry_catches_a_wrong_answer(monkeypatch, capsys, entry, module, name, fault, algebra, max_n):
    S = constructions.fixed(algebra)
    check = theorems.THEOREMS[entry]
    assert check(S) is True
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    witness = check(S)
    assert isinstance(witness, str) and witness
    result = theorems.run_battery(max_n, names=[entry])
    assert not result.ok and result.failures[entry]
    assert cli.run(["theorems", "--max-n", str(max_n), "--only", entry]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_coset_membership_criterion_builds_each_order_once(monkeypatch, census5, constructed):
    # the class order and the element order, once per algebra: cosets and
    # coset_bijection read only the cells they need
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(core, "orders")
    count(green, "class_order")
    if hasattr(green, "orders"):
        count(green, "orders")
    for S in [*census5[5], *constructed]:
        calls.clear()
        assert theorems.THEOREMS["coset-membership-criterion"](S) is True
        assert sorted(calls) == ["class_order", "orders"]


def test_dualities_are_checked_on_the_tables():
    # both tables take the minimum, so x^y = x does not give xvy = y
    meet = [[0, 0], [0, 1]]
    not_a_skew_lattice = SkewLattice(CayleyPair.from_tables(meet, meet))
    witness = theorems.THEOREMS["orders-cohere-with-green"](not_a_skew_lattice)
    assert witness == "duality x^y=x iff xvy=y fails at (0,1)"


def test_decomposition_invariants_checks_the_identities_once_per_distinct_table(compiled_passes, census5):
    # one pass over all 22 bundled identities on each distinct table among S,
    # S/R and S/L (a factor is S itself when R or L is trivial); the other
    # compiled passes are its five one-flag varieties.check calls, and
    # terms.holds is never called
    lib = terms.library()
    identities = tuple(name for name, f in sorted(lib.items()) if f.is_identity)
    assert len(identities) == 22
    left_handed = next(
        S for S in census5[4] if varieties.check(S, "left_handed") is True and varieties.check(S, "lattice") is not True
    )
    rectangle = constructions.rectangular(2, 2)
    passes_on = {}
    for S in [*census5[4], constructions.fixed("NC5L"), rectangle]:
        _, _, D = green.green_relations(S)
        left, right = green.factors(S)
        compiled_passes.clear()
        assert theorems.THEOREMS["decomposition-invariants"](S) is True
        tables = list(dict.fromkeys(T.pair for T in (S, left, right)))
        passes_on[S] = [p for p in compiled_passes if p[1] == identities]
        assert passes_on[S] == [(pair.n, identities) for pair in tables]
        assert [p for p in compiled_passes if p[1] != identities] == [
            (S.n, ("left-handed",)),
            (S.n, ("right-handed",)),
            (D.size, ("commute-meet", "commute-join")),
            (left.n, ("left-handed",)),
            (right.n, ("right-handed",)),
        ]
    # S and S/L for a left-handed S that is not a lattice (S/R is S, and
    # S/L its lattice image S/D); S, S/R and S/L when R and L are both
    # nontrivial
    lattice_size = green.green_relations(left_handed)[2].size
    assert passes_on[left_handed] == [(4, identities), (lattice_size, identities)]
    assert passes_on[rectangle] == [(4, identities), (2, identities), (2, identities)]
