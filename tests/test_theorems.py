"""The theorem battery is the one owner of the library's theorem checks: it
passes on the census, and each owner entry catches a library function that
gives a wrong answer."""

import pytest

from skewlat import cli, constructions, core, green, theorems, varieties, ybe
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
    ("decomposition-invariants", green, "is_left_handed", lambda real: lambda S: not real(S), "3R0", 1),
    ("decomposition-invariants", green, "maximal_lattice_image",
     lambda real: lambda S: green.quotient(S, Partition.identity(S.n)), "3R0", 3),
    ("decomposition-invariants", green, "factors", lambda real: lambda S: real(S)[::-1], "3R0", 3),
    ("coset-membership-criterion", green, "cosets", lambda real: lambda *a: real(*a)[:-1], "3R0", 2),
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
    # a build_map fault is named by the kind it replaces
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
    assert "FAIL" in result.to_text()
    assert cli.run(["theorems", "--max-n", str(max_n), "--only", entry]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_dualities_are_checked_on_the_tables():
    # both tables take the minimum, so x^y = x does not give xvy = y
    meet = [[0, 0], [0, 1]]
    not_a_skew_lattice = SkewLattice(CayleyPair.from_tables(meet, meet))
    witness = theorems.THEOREMS["orders-cohere-with-green"](not_a_skew_lattice)
    assert witness == "duality x^y=x iff xvy=y fails at (0,1)"
