"""Green's relations, quotients, factor decompositions and cosets.

All functions are pure over immutable SkewLattice values. Class ids are
assigned by smallest contained element so reports and tests are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def size(self) -> int:
        return len(self.classes)


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


def is_congruence(S: SkewLattice, P: Partition):
    """Return None if P is a congruence for both operations, else a witness:
    the first (x, y, c), in lexicographic order, with x and y in one class
    and some product with c, meet or join, on either side, taking them to
    different classes.

    Each element is compared only with its class's least member, its
    leader, taken in increasing order whatever the order of P.classes. If
    every member agrees with the leader (each product with each c in the
    class of the leader's), any two members agree, since equal class ids
    are transitive; so the first failing x is the least leader of a failing
    class, and its y and c come first in the same order.
    """
    cls, m, j, rng = P.class_of, S.pair.meet, S.pair.join, range(S.n)
    members = {}  # class id -> its members in increasing order, by leader
    for x in rng:
        members.setdefault(cls[x], []).append(x)
    for x, *rest in members.values():
        mx, jx = m[x], j[x]
        for y in rest:
            my, jy = m[y], j[y]
            for c in rng:
                mc, jc = m[c], j[c]
                if (
                    cls[mx[c]] != cls[my[c]]
                    or cls[mc[x]] != cls[mc[y]]
                    or cls[jx[c]] != cls[jy[c]]
                    or cls[jc[x]] != cls[jc[y]]
                ):
                    return (x, y, c)
    return None


def quotient(S: SkewLattice, P: Partition) -> SkewLattice:
    """S/P, with operation tables on the class ids of P; raises
    NotACongruenceError when P is not a congruence."""
    witness = is_congruence(S, P)
    if witness is not None:
        raise NotACongruenceError(witness)
    cls, reps = P.class_of, [min(c) for c in P.classes]
    meet, join = ([[cls[t[a][b]] for b in reps] for a in reps] for t in (S.pair.meet, S.pair.join))
    return validate(CayleyPair.from_tables(meet, join))


def maximal_lattice_image(S: SkewLattice) -> SkewLattice:
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
    """The cosets between comparable D-classes A > B, as frozensets of elements
    sorted by their least member.

    direction "of-upper-in-lower": subsets a ^ b ^ a' of B for b in B;
    direction "of-lower-in-upper": subsets b v a v b' of A for a in A.
    The returned cosets partition the target class (checked by the theorem
    battery).
    """
    m = S.pair.meet
    upper = sorted(D.classes[A])
    lower = sorted(D.classes[B])
    b, a = lower[0], upper[0]  # B <= A, read as class_order reads it
    if not (A != B and m[m[b][a]][b] == b):
        raise ValueError(f"classes {A} > {B} are not strictly comparable")
    # each x of the target class gives the coset {(s x) s' : s, s' in the
    # source class}, multiplied by the direction's operation t
    if direction == "of-upper-in-lower":
        t, source, target = m, upper, lower
    elif direction == "of-lower-in-upper":
        t, source, target = S.pair.join, lower, upper
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = {frozenset(t[t[s][x]][s2] for s in source for s2 in source) for x in target}
    return sorted(out, key=min)


def coset_bijection(S: SkewLattice, coset_upper: frozenset, coset_lower: frozenset) -> dict:
    """The order bijection: x in the upper coset maps to the unique y <= x
    in the lower coset (the theorem battery checks that it is one)."""
    m = S.pair.meet
    lower = sorted(coset_lower)
    return {x: next(y for y in lower if m[y][x] == y == m[x][y]) for x in sorted(coset_upper)}

