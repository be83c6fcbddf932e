"""Green's relations, quotients, factor decompositions, cosets and diamonds.

All functions are pure over immutable SkewLattice values. Class ids are
assigned by smallest contained element so reports and tests are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import terms
from .core import CayleyPair, SkewLattice, validate


class NotACongruenceError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"partition is not a congruence, witness {witness}")


@dataclass(frozen=True)
class Partition:
    """Equivalence classes over 0..n-1, ids ordered by smallest member."""

    class_of: tuple
    classes: tuple  # tuple of frozensets

    @classmethod
    def from_pairs(cls, n: int, related) -> "Partition":
        """Build from a predicate related(x, y) assumed to be an equivalence."""
        classes = []
        class_of = [-1] * n
        for x in range(n):
            if class_of[x] >= 0:
                continue
            members = frozenset(y for y in range(n) if related(x, y))
            cid = len(classes)
            classes.append(members)
            for y in members:
                class_of[y] = cid
        return cls(tuple(class_of), tuple(classes))

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(tuple(range(n)), tuple(frozenset({x}) for x in range(n)))

    @property
    def size(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class QuotientAlgebra:
    base: SkewLattice
    partition: Partition
    algebra: SkewLattice  # operation tables on class ids


@dataclass(frozen=True)
class Coset:
    upper_class: int
    lower_class: int
    direction: str  # "of-upper-in-lower" | "of-lower-in-upper"
    elements: frozenset


@dataclass(frozen=True)
class SkewDiamond:
    J: int
    A: int
    B: int
    M: int


def green_relations(S: SkewLattice):
    """Return (L, R, D) partitions computed from the meet band.

    The theorem battery checks them against the join band (D_meet = D_join,
    R_meet = L_join, L_meet = R_join).
    """
    m, n = S.pair.meet, S.n
    L = Partition.from_pairs(n, lambda x, y: m[x][y] == x and m[y][x] == y)
    R = Partition.from_pairs(n, lambda x, y: m[x][y] == y and m[y][x] == x)
    D = Partition.from_pairs(n, lambda x, y: m[m[x][y]][x] == x and m[m[y][x]][y] == y)
    return L, R, D


def is_left_handed(S: SkewLattice) -> bool:
    """x^y^x = x^y everywhere (equivalently L = D)."""
    return terms.holds_all(S, ("left-handed",)) is True


def is_right_handed(S: SkewLattice) -> bool:
    """x^y^x = y^x everywhere (equivalently R = D)."""
    return terms.holds_all(S, ("right-handed",)) is True


def is_congruence(S: SkewLattice, P: Partition):
    """Return None if P is a congruence for both operations, else a witness."""
    cls = P.class_of
    for x in range(S.n):
        for y in range(S.n):
            if cls[x] != cls[y]:
                continue
            for c in range(S.n):
                for t in (S.pair.meet, S.pair.join):
                    if cls[t[x][c]] != cls[t[y][c]] or cls[t[c][x]] != cls[t[c][y]]:
                        return (x, y, c)
    return None


def quotient(S: SkewLattice, P: Partition) -> QuotientAlgebra:
    witness = is_congruence(S, P)
    if witness is not None:
        raise NotACongruenceError(witness)
    reps = [min(c) for c in P.classes]
    k = len(reps)
    meet = [[P.class_of[S.meet(reps[a], reps[b])] for b in range(k)] for a in range(k)]
    join = [[P.class_of[S.join(reps[a], reps[b])] for b in range(k)] for a in range(k)]
    q = validate(CayleyPair.from_tables(meet, join))
    return QuotientAlgebra(S, P, q)


def is_lattice(S: SkewLattice) -> bool:
    return terms.holds_all(S, ("commute-meet", "commute-join")) is True


def maximal_lattice_image(S: SkewLattice) -> QuotientAlgebra:
    """S/D, the maximal lattice image (the theorem battery checks that it
    is a lattice)."""
    _, _, D = green_relations(S)
    return quotient(S, D)


def factors(S: SkewLattice):
    """Left and right factors (S/R, S/L).

    S is their fiber product over S/D: x -> ([x]_R, [x]_L) is a bijection
    onto the pairs over a common D-class (checked by the theorem battery).
    """
    L, R, _ = green_relations(S)
    return quotient(S, R), quotient(S, L)


def class_order(S: SkewLattice, D: Partition):
    """Return leq matrix on D-class ids, per the order of S/D."""
    k = D.size
    reps = [min(c) for c in D.classes]
    m = S.pair.meet
    leq = [[False] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            x, y = reps[a], reps[b]
            leq[a][b] = m[m[x][y]][x] == x  # x preceq y lifts to class order
    return [tuple(row) for row in leq]


def cosets(S: SkewLattice, A: int, B: int, direction: str, D: Partition) -> list:
    """Cosets between comparable D-classes A > B.

    direction "of-upper-in-lower": subsets a ^ b ^ a' of B for b in B;
    direction "of-lower-in-upper": subsets b v a v b' of A for a in A.
    The returned cosets partition the target class (checked by the theorem
    battery).
    """
    ord_ = class_order(S, D)
    if not (ord_[B][A] and A != B):
        raise ValueError(f"classes {A} > {B} are not strictly comparable")
    upper = sorted(D.classes[A])
    lower = sorted(D.classes[B])
    # each x of the target class gives the coset {(s x) s' : s, s' in the
    # source class}, multiplied by the direction's operation t
    if direction == "of-upper-in-lower":
        t, source, target = S.pair.meet, upper, lower
    elif direction == "of-lower-in-upper":
        t, source, target = S.pair.join, lower, upper
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = {}
    for x in target:
        cs = frozenset(t[t[s][x]][s2] for s in source for s2 in source)
        out.setdefault(cs, Coset(A, B, direction, cs))
    return sorted(out.values(), key=lambda c: min(c.elements))


def coset_bijection(S: SkewLattice, coset_upper: Coset, coset_lower: Coset) -> dict:
    """The order bijection: x in the upper coset maps to the unique y <= x
    in the lower coset (the theorem battery checks that it is one)."""
    from .core import orders

    leq = orders(S).leq
    lower = sorted(coset_lower.elements)
    return {x: next(y for y in lower if leq[y][x]) for x in sorted(coset_upper.elements)}


def skew_diamonds(S: SkewLattice) -> list:
    """All class quadruples {J > A,B > M} with M = A^B and J = AvB."""
    _, _, D = green_relations(S)
    reps = [min(c) for c in D.classes]
    k = D.size
    m, j = S.pair.meet, S.pair.join
    ord_ = class_order(S, D)
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            M = D.class_of[m[reps[a]][reps[b]]]
            J = D.class_of[j[reps[a]][reps[b]]]
            if len({a, b, M, J}) != 4:
                continue
            if ord_[M][a] and ord_[M][b] and ord_[a][J] and ord_[b][J]:
                out.append(SkewDiamond(J=J, A=a, B=b, M=M))
    out.sort(key=lambda d: (d.J, d.A, d.B, d.M))
    return out


def structure_report(S: SkewLattice) -> str:
    """Plain-text structure report with stable ordering."""
    L, R, D = green_relations(S)
    ord_ = class_order(S, D)
    lines = [f"n: {S.n}"]
    lines.append(f"left-handed: {is_left_handed(S)}")
    lines.append(f"right-handed: {is_right_handed(S)}")
    for cid, cls in enumerate(D.classes):
        lines.append(f"D-class {cid}: {{{', '.join(str(x) for x in sorted(cls))}}}")
    edges = []
    k = D.size
    for a in range(k):
        for b in range(k):
            if a == b or not ord_[a][b]:
                continue
            # Hasse edge: no class strictly between
            if not any(c not in (a, b) and ord_[a][c] and ord_[c][b] for c in range(k)):
                edges.append((a, b))
    for a, b in sorted(edges):
        lines.append(f"S/D edge: {a} < {b}")
    return "\n".join(lines) + "\n"
