"""The theorem battery is the one owner of the library's theorem checks: it
passes on the census, and each owner entry catches a library function that
gives a wrong answer."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

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


def test_first_battery_run_calls_library_as_often_as_the_next():
    # in a fresh process, so no cache is warm: a cache that reaches the
    # bundled library through terms.library on first use makes the first
    # run count one call more
    code = """
from skewlat import terms, theorems

calls, real = [], terms.library
terms.library = lambda: calls.append(1) or real()
counts = []
for _ in range(2):
    calls.clear()
    assert theorems.run_battery(3).ok
    counts.append(len(calls))
print(*counts)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    first, second = map(int, proc.stdout.split())
    assert first == second > 0


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
    ("handed-update-coincidences", ybe, "build_map", _identity_map_for("upper_update"), "NC5L", 3),
    ("handed-weak-map-collapse", ybe, "build_map", _identity_map_for("weak"), "3R0", 3),
    ("handed-weak-map-collapse", ybe, "build_map", _identity_map_for("left"), "NC5L", 3),
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


# the witness each FAULTS case gives, by its test id
FAULT_WITNESSES = {
    "orders-cohere-with-green:orders": "x<=y differs from its join form xvy=y=yvx at (0,2)",
    "decomposition-invariants:green_relations": "D of meet and D of join differ at (0,1)",
    "decomposition-invariants:left_handed": "left-handed identity disagrees with L = D",
    "decomposition-invariants:maximal_lattice_image": "S/D is not a lattice",
    "decomposition-invariants:factors": "S/R is not left-handed",
    "coset-membership-criterion:cosets": "cosets do not partition class 1 (1 > 0)",
    "coset-membership-criterion:coset_bijection": "coset_bijection is not <= from coset [1] onto [0]",
    "lower-update-composition-law:lower_update": "lower update 1 of 1 by 2 is not the only element of its coset above 2",
    "lower-update-composition-law:upper_update": "upper update 1 of 1 by 2 is not the only element of its coset below 2",
    "handed-update-coincidences:lower_update": "(x^y)vx differs from the lower update on a right-handed algebra",
    "handed-update-coincidences:upper_update": "(yvx)^y differs from the upper update on a left-handed algebra",
    "handed-weak-map-collapse:weak": "right-handed algebra where the weak map differs from the right map",
    "handed-weak-map-collapse:left": "left-handed algebra where the weak map differs from the left map",
    "update-maps-are-idempotent-solutions:power_class": "update map is idempotent but not cubic",
    "family-identity-iff-braid:solution_identity_check": "strong identities hold: True, braid holds: False",
    "handed-cancellativity-iff-solution:classify": "variety implication fails: binormal iff normal and conormal",
    "nc5-characterizes-simple-cancellativity:nc5_free": "nc5_free says True but simple cancellativity holds: False",
}


@pytest.mark.parametrize("case", FAULTS, ids=[f"{entry}:{getattr(fault, 'kind', name)}" for entry, _, name, fault, *_ in FAULTS])
def test_owner_entry_names_the_pinned_witness(monkeypatch, case):
    entry, module, name, fault, algebra, _ = case
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert theorems.THEOREMS[entry](constructions.fixed(algebra)) == FAULT_WITNESSES[f"{entry}:{getattr(fault, 'kind', name)}"]


def _literal_membership_witness(S, ups_of):
    """The coset-membership-criterion witness as the definition reads, for
    the upper cosets ups_of[A, B]: the first a, a2 of an upper class A,
    over the comparable pairs (B, A) in order, where "every b in B
    conjugates a and a2 alike" disagrees with "one coset holds both"."""
    _, _, D = green.green_relations(S)
    ord_, j = green.class_order(S, D), S.pair.join
    for B in range(D.size):
        for A in range(D.size):
            if A == B or not ord_[B][A]:
                continue
            coset_of = {a: c for c in ups_of[A, B] for a in c}
            for a in sorted(D.classes[A]):
                for a2 in sorted(D.classes[A]):
                    same = all(j[j[b][a]][b] == j[j[b][a2]][b] for b in D.classes[B])
                    if same != (coset_of[a] is coset_of[a2]):
                        return f"coset membership criterion fails for {a},{a2} in class {A} over {B}"
    return True


def test_coset_membership_criterion_names_the_first_disagreeing_pair(monkeypatch, census5, constructed):
    # B's cosets in A replaced by a random partition of A: the first pair
    # that the conjugation vectors place otherwise is the witness
    rng = random.Random(59)
    real, failed = green.cosets, 0
    for S in [*census5[4], *census5[5], *constructed]:
        _, _, D = green.green_relations(S)
        ord_ = green.class_order(S, D)
        for _ in range(3):
            ups_of = {}
            for A, B in itertools.product(range(D.size), repeat=2):
                if A != B and ord_[B][A]:
                    labels = {a: rng.randrange(3) for a in D.classes[A]}
                    ups_of[A, B] = sorted({frozenset(a for a in labels if labels[a] == k) for k in labels.values()}, key=min)
            monkeypatch.setattr(green, "cosets", lambda S, A, B, D: (ups_of[A, B], real(S, A, B, D)[1]))
            expected = _literal_membership_witness(S, ups_of)
            if expected is not True:
                assert theorems.THEOREMS["coset-membership-criterion"](S) == expected, S.pair
                failed += 1
            monkeypatch.setattr(green, "cosets", real)
    assert failed > 50, failed
    # on 3R0, merging its two upper cosets
    ups_of = {(1, 0): [frozenset({1, 2})]}
    monkeypatch.setattr(green, "cosets", lambda S, A, B, D: (ups_of[A, B], real(S, A, B, D)[1]))
    witness = "coset membership criterion fails for 1,2 in class 1 over 0"
    assert _literal_membership_witness(constructions.fixed("3R0"), ups_of) == witness
    assert theorems.THEOREMS["coset-membership-criterion"](constructions.fixed("3R0")) == witness


def test_lower_update_composition_names_the_first_failing_triple(monkeypatch, census5, constructed):
    # the lower update with one cell changed, and the per-pair update checks
    # let through: the first (x, y, z), lexicographically, where
    # lu(lu(x, y), lu(y, z)) != lu(x, lu(y, z)) is the witness (on a
    # left-handed algebra the pair loop may catch the cell first)
    rng = random.Random(61)
    real, failed = ybe.build_map, 0
    monkeypatch.setattr(theorems, "_update_failure", lambda *args: None)
    for S in [*census5[3], *census5[4], *census5[5], *constructed]:
        n, (m, j) = S.n, (S.pair.meet, S.pair.join)
        left_handed = varieties.check(S, "left_handed") is True
        for _ in range(3):
            lu = [[u for u, _ in row] for row in real(S, "lower_update").table]
            x0, y0 = rng.randrange(n), rng.randrange(n)
            lu[x0][y0] = rng.randrange(n)
            table = tuple(tuple((u, y) for y, u in enumerate(row)) for row in lu)
            monkeypatch.setattr(ybe, "build_map", lambda S, k: ybe.PairMap(S.n, table) if k == "lower_update" else real(S, k))
            pairs = itertools.product(range(n), repeat=2)
            expected = next(
                (f"lower update of {x} by {y} is not xv(y^x) on a left-handed algebra"
                 for x, y in pairs if left_handed and lu[x][y] != j[x][m[y][x]]),
                None,
            ) or next(
                (f"coset law fails at ({x},{y},{z})"
                 for x, y, z in itertools.product(range(n), repeat=3) if lu[lu[x][y]][lu[y][z]] != lu[x][lu[y][z]]),
                True,
            )
            assert theorems.THEOREMS["lower-update-composition-law"](S) == expected, (S.pair, lu)
            failed += expected is not True
    assert failed > 50, failed


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
