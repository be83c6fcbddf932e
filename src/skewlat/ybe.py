"""The solution maps, braid-relation checking and their classification.

`decide` gives the `ybe` report its verdicts. On an algebra whose Green's
R and L are both non-trivial it decides each braid relation on the two
smaller, handed factors S/R and S/L: the one factor route, which
`green.proper_factors` justifies and `varieties.decide` takes for the
`props` report too. `braid_check` itself, the search's `*-solution`
predicates and the theorem battery check S directly: on census-size
algebras the factors cost more than they save, and the battery's
cross-checks must not rest on the theorem the route assumes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import green, terms
from .core import SkewLattice

# Each solution map r(x, y) = (σ(x, y), τ(x, y)) as its two component terms,
# in report order. The lower update (y^x^y) v x v (y^x^y) of x by y stays in
# the D-class of x and is the unique element of the coset M v x v M (M the
# class of x^y) above y^x^y; the upper update (xvyvx) ^ y ^ (xvyvx) of y by x
# is its syntactic dual. The theorem battery checks these properties.
MAPS = {
    "update": ("(x ^ y) v x", "y"),
    "lower_update": ("y ^ x ^ y v x v y ^ x ^ y", "y"),
    "co_update": ("x", "(y v x) ^ y"),
    "upper_update": ("x", "(x v y v x) ^ y ^ (x v y v x)"),
    "strong": ("x ^ y", "x v y"),
    "left": ("x ^ y", "y v x"),
    "right": ("y ^ x", "x v y"),
    "weak": ("x ^ y ^ x", "x v y v x"),
}
MAP_KINDS = tuple(MAPS)

# Identities characterizing each family (library names).
FAMILY_IDENTITIES = {
    "strong": ("strong1", "strong2", "strong3"),
    "left": ("left-sol",),
    "right": ("right-sol",),
    "weak": ("weak-sol",),
}


class PairMap(NamedTuple):
    """A total map on pairs of {0..n-1}; table[x][y] = (x', y').

    `keeps` names a coordinate the map is said to keep: 1 when
    τ(x, y) = y, 0 when σ(x, y) = x, None when it names none. build_map
    sets it from the kind's terms, so 1 for update and lower_update and 0
    for co_update and upper_update. braid_check confirms it on the table
    before relying on it. It takes no part in equality or hashing.
    """

    n: int
    table: tuple
    keeps: int | None = None

    def __eq__(self, other):
        return self[:2] == other[:2] if isinstance(other, PairMap) else NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])


class BraidWitness(NamedTuple):
    triple: tuple
    lhs: tuple
    rhs: tuple

    def __str__(self):
        return f"braid fails at {self.triple}: {self.lhs} != {self.rhs}"


class PowerClass(NamedTuple):
    involutive: bool
    idempotent: bool
    cubic: bool


@functools.cache
def _compiled_maps() -> dict:
    """Each kind's component terms, parsed and compiled once, as one
    function of (meet, join, range(n)) returning the pair table, with the
    coordinate the kind keeps: 1 when τ is the bare variable y, 0 when σ
    is the bare variable x, else None."""
    compiled = {}
    for kind, pair in MAPS.items():
        sigma, tau = parsed = tuple(map(terms.parse_term, pair))
        keeps = 1 if tau == ("var", "y") else 0 if sigma == ("var", "x") else None
        compiled[kind] = terms.compile_table(parsed, ("x", "y")), keeps
    return compiled


def build_map(S: SkewLattice, kind: str) -> PairMap:
    """Construct one of the solution maps as a full pair table."""
    if kind not in MAPS:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    table, keeps = _compiled_maps()[kind]
    return PairMap(S.n, table(S.pair.meet, S.pair.join, range(S.n)), keeps)


def decide(S: SkewLattice, kinds=MAP_KINDS) -> tuple:
    """(kind, map on S, braid_check of that map) for each kind in order.

    On the factors of green.proper_factors, a kind whose map passes on S/R
    and on S/L passes on S with no loop over the triples of S: the braid
    relation of a map whose components are terms is three identities in
    x, y, z, and identities transfer from the factors as that function
    states. A kind that fails on a factor, and every kind on a handed S,
    gets braid_check on S's map, so its witness is the first failing
    triple of S.
    """
    factors = green.proper_factors(S)
    decided = []
    for kind in kinds:
        m = build_map(S, kind)
        passes = factors and all(braid_check(build_map(F, kind)) is None for F in factors)
        decided.append((kind, m, None if passes else braid_check(m)))
    return tuple(decided)


def braid_check(m: PairMap):
    """None if the braid relation holds, else the lexicographically first
    failing triple with both evaluated sides.

    With r12 = r x id and r23 = id x r, the sides on (x, y, z) are
    r12 r23 r12 = (e, f, d) and r23 r12 r23 = (i, p, q), where
    r(x, y) = (a, b), r(b, z) = (c, d), r(a, c) = (e, f) and
    r(y, z) = (g, h), r(x, g) = (i, k), r(k, h) = (p, q).

    A map that keeps a coordinate needs only two conditions. Writing
    x·y = σ(x, y), r(x, y) = (x·y, y) is a solution exactly when
    (x·y)·(y·z) = x·(y·z) and (y·z)·z = y·z; writing x∘y = τ(x, y),
    r(x, y) = (x, x∘y) is one exactly when x∘(x∘y) = x∘y and
    (x∘y)∘z = (x∘y)∘(y∘z). A triple fails exactly when one of its two
    conditions does, so these checks find the same first triple, and its
    sides come from the same six lookups. They run when m.keeps names the
    kept coordinate and the table confirms it; every other map takes the
    loop over all triples.
    """
    rows = _other_rows(m)
    if rows is not None:
        return (_braid_keeping_y if m.keeps == 1 else _braid_keeping_x)(m.table, rows)
    t = m.table
    r = range(m.n)
    for x in r:
        tx = t[x]
        for y in r:
            a, b = tx[y]
            ta, tb, ty = t[a], t[b], t[y]
            for z in r:
                c, d = tb[z]
                e, f = ta[c]
                g, h = ty[z]
                i, k = tx[g]
                p, q = t[k][h]
                if e != i or f != p or d != q:
                    return BraidWitness((x, y, z), (e, f, d), (i, p, q))
    return None


def _other_rows(m: PairMap):
    """The rows of the component m does not keep, once one pass over the
    table confirms m.keeps; None when m.keeps is None or wrong."""
    if m.keeps is None:
        return None
    ids = tuple(range(m.n))
    rows = []
    for x, row in enumerate(m.table):
        sigma, tau = zip(*row)
        if m.keeps == 1 and tau == ids:
            rows.append(sigma)
        elif m.keeps == 0 and sigma == (x,) * m.n:
            rows.append(tau)
        else:
            return None
    return rows


def _witness(t, x, y, z) -> BraidWitness:
    """The failing triple with its two sides, by the six lookups of the
    loop in braid_check."""
    a, b = t[x][y]
    c, d = t[b][z]
    e, f = t[a][c]
    g, h = t[y][z]
    i, k = t[x][g]
    p, q = t[k][h]
    return BraidWitness((x, y, z), (e, f, d), (i, p, q))


def _braid_keeping_y(t, s):
    """braid_check of r(x, y) = (x·y, y), where s[x][y] = x·y."""
    n = len(s)
    r = range(n)
    # the first z of each row y with (y·z)·z != y·z, n when there is none
    stops = []
    for y in r:
        sy = s[y]
        stop = n
        for z in r:
            c = sy[z]
            if s[c][z] != c:
                stop = z
                break
        stops.append(stop)
    for x in r:
        sx = s[x]
        for y in r:
            a = sx[y]
            stop = stops[y]
            # with x·y = x the first condition always holds
            if a != x:
                sa, sy = s[a], s[y]
                for z in range(stop):
                    c = sy[z]
                    if sa[c] != sx[c]:
                        return _witness(t, x, y, z)
            if stop < n:
                return _witness(t, x, y, stop)
    return None


def _braid_keeping_x(t, u):
    """braid_check of r(x, y) = (x, x∘y), where u[x][y] = x∘y."""
    r = range(len(u))
    # whether row y keeps the first condition: y∘(y∘z) = y∘z for every z
    kept = [all(uy[c] == c for c in uy) for uy in u]
    for x in r:
        ux = u[x]
        for y in r:
            b = ux[y]
            # the first condition fails at every z, so first at z = 0
            if ux[b] != b:
                return _witness(t, x, y, 0)
            # with x∘y = y the second condition is the first on row y
            if b != y or not kept[y]:
                ub, uy = u[b], u[y]
                for z in r:
                    if ub[z] != ub[uy[z]]:
                        return _witness(t, x, y, z)
    return None


def power_class(m: PairMap) -> PowerClass:
    """r^2 and r^3 against the identity and r, over the pair codes x*n + y."""
    n = m.n
    r = [a * n + b for row in m.table for a, b in row]
    r2 = [r[c] for c in r]
    r3 = [r[c] for c in r2]
    return PowerClass(involutive=r2 == list(range(n * n)), idempotent=r2 == r, cubic=r3 == r)


def degeneracy(m: PairMap):
    """(left nondegenerate, right nondegenerate): all component maps bijective."""
    n = m.n
    left = all(len({m.table[x][y][0] for y in range(n)}) == n for x in range(n))
    right = all(len({m.table[x][y][1] for x in range(n)}) == n for y in range(n))
    return left, right


def solution_identity_check(S: SkewLattice, family: str):
    """Evaluate the family's characterizing identities.

    Returns True or the first failing (identity name, assignment). By
    theorem the verdict equals the braid check of the family's map; the
    theorem battery checks that it does.
    """
    if family not in FAMILY_IDENTITIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILY_IDENTITIES)}")
    found = terms.holds_named(S, FAMILY_IDENTITIES[family])
    return next(((name, w) for name, w in found.items() if w is not True), True)

