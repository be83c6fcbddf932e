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
        """Build from a predicate related(x, y) assumed to be an equivalence.

        Each element not yet placed is compared only with the least member
        of the class being built, its leader, and only past it: every
        smaller element is placed by then, and by transitivity an element
        related to the leader is related to every member. So related(x, y)
        is called once per leader x and later unplaced y.
        """
        classes = []
        class_of = [-1] * n
        for x in range(n):
            if class_of[x] >= 0:
                continue
            cid = len(classes)
            class_of[x] = cid
            members = [x]
            for y in range(x + 1, n):
                if class_of[y] < 0 and related(x, y):
                    class_of[y] = cid
                    members.append(y)
            classes.append(frozenset(members))
        return cls(tuple(class_of), tuple(classes))

    @property
    def size(self) -> int:
        return len(self.classes)


def _d_relation(S: SkewLattice) -> Partition:
    """Green's D from the meet band: x D y iff x^y^x = x and y^x^y = y."""
    m = S.pair.meet
    return Partition.from_pairs(S.n, lambda x, y: m[m[x][y]][x] == x and m[m[y][x]][y] == y)


def green_relations(S: SkewLattice):
    """Return (L, R, D) partitions computed from the meet band.

    The theorem battery checks them against the join band (D_meet = D_join,
    R_meet = L_join, L_meet = R_join).
    """
    m, n = S.pair.meet, S.n
    L = Partition.from_pairs(n, lambda x, y: m[x][y] == x and m[y][x] == y)
    R = Partition.from_pairs(n, lambda x, y: m[x][y] == y and m[y][x] == x)
    return L, R, _d_relation(S)


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
    NotACongruenceError when P is not a congruence.

    The identity partition with its classes in element order gives S's own
    tables, so S itself is returned, with no congruence test and no
    validation. Any other P is tested by is_congruence, and its tables,
    built as tuples over the least member of each class, are validated.
    """
    cls, n = P.class_of, S.n
    if cls == tuple(range(n)):
        return S
    witness = is_congruence(S, P)
    if witness is not None:
        raise NotACongruenceError(witness)
    reps = [min(c) for c in P.classes]
    meet, join = (
        tuple(tuple([cls[row[b]] for b in reps]) for row in [t[a] for a in reps]) for t in (S.pair.meet, S.pair.join)
    )
    return validate(CayleyPair(P.size, meet, join))


def maximal_lattice_image(S: SkewLattice) -> SkewLattice:
    """S/D, the maximal lattice image (the theorem battery checks that it
    is a lattice). Only D is built, not L and R."""
    return quotient(S, _d_relation(S))


def factors(S: SkewLattice):
    """Left and right factors (S/R, S/L).

    S is their fiber product over S/D: x -> ([x]_R, [x]_L) is a bijection
    onto the pairs over a common D-class (checked by the theorem battery).
    """
    L, R, _ = green_relations(S)
    return quotient(S, R), quotient(S, L)


def proper_factors(S: SkewLattice) -> tuple:
    """(S/R, S/L) when Green's R and L both have fewer classes than S has
    elements, else () (S is then handed, and one factor is S itself).

    x -> ([x]_R, [x]_L) embeds S in S/R x S/L (Leech, "Skew lattices in
    rings", 1989; the theorem battery checks it), so an identity holds on
    S exactly when it holds on both factors, and a quasi-identity holds on
    S whenever it holds on both. That is why the reports' decisions
    (ybe.decide, varieties.decide) may route through these two factors.
    """
    L, R, _ = green_relations(S)
    return (quotient(S, R), quotient(S, L)) if max(L.size, R.size) < S.n else ()


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


def cosets(S: SkewLattice, A: int, B: int, D: Partition) -> tuple:
    """The cosets between comparable D-classes A > B: B's cosets in A (the
    subsets b v a v b' of A for a in A), then A's cosets in B (the subsets
    a ^ b ^ a' of B for b in B). Each is a list of frozensets of elements
    sorted by their least member, and partitions its class (checked by the
    theorem battery).
    """
    m, j = S.pair.meet, S.pair.join
    upper = sorted(D.classes[A])
    lower = sorted(D.classes[B])
    b, a = lower[0], upper[0]  # B <= A, read as class_order reads it
    if not (A != B and m[m[b][a]][b] == b):
        raise ValueError(f"classes {A} > {B} are not strictly comparable")
    # each x of the target class gives the coset {(s x) s' : s, s' in the
    # source class}, multiplied by join in A and by meet in B
    return tuple(
        sorted({frozenset(t[t[s][x]][s2] for s in source for s2 in source) for x in target}, key=min)
        for t, source, target in ((j, lower, upper), (m, upper, lower))
    )


def coset_bijection(S: SkewLattice, coset_upper: frozenset, coset_lower: frozenset) -> dict:
    """The order bijection: x in the upper coset maps to the unique y <= x
    in the lower coset (the theorem battery checks that it is one)."""
    m = S.pair.meet
    lower = sorted(coset_lower)
    return {x: next(y for y in lower if m[y][x] == y == m[x][y]) for x in sorted(coset_upper)}

