"""The solution maps, braid-relation checking and their classification."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import terms
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


@dataclass(frozen=True)
class PairMap:
    """A total map on pairs of {0..n-1}; table[x][y] = (x', y')."""

    n: int
    table: tuple


@dataclass(frozen=True)
class BraidWitness:
    triple: tuple
    lhs: tuple
    rhs: tuple

    def __str__(self):
        return f"braid fails at {self.triple}: {self.lhs} != {self.rhs}"


@dataclass(frozen=True)
class PowerClass:
    involutive: bool
    idempotent: bool
    cubic: bool

    @property
    def name(self) -> str:
        for flag, label in ((self.involutive, "involutive"), (self.idempotent, "idempotent"), (self.cubic, "cubic")):
            if flag:
                return label
        return "none"


@dataclass(frozen=True)
class SolutionReport:
    map_name: str
    braid: object  # None = pass, else BraidWitness
    power: PowerClass
    left_nondegenerate: bool
    right_nondegenerate: bool

    def to_text(self) -> str:
        lines = [f"map: {self.map_name}"]
        lines.append("braid: pass" if self.braid is None else f"braid: fail ({self.braid})")
        lines.append(f"power-class: {self.power.name}")
        lines.append(
            "power-flags: involutive={} idempotent={} cubic={}".format(
                *(str(b).lower() for b in (self.power.involutive, self.power.idempotent, self.power.cubic))
            )
        )
        lines.append(f"left-nondegenerate: {str(self.left_nondegenerate).lower()}")
        lines.append(f"right-nondegenerate: {str(self.right_nondegenerate).lower()}")
        return "\n".join(lines) + "\n"


@functools.cache
def _compiled_maps() -> dict:
    """Each kind's component terms, parsed and compiled once, as one
    function of (meet, join, x, y) returning the pair."""
    return {
        kind: terms.compile_terms(tuple(map(terms.parse_term, pair)), ("x", "y"))
        for kind, pair in MAPS.items()
    }


def build_map(S: SkewLattice, kind: str) -> PairMap:
    """Construct one of the solution maps as a full pair table."""
    if kind not in MAPS:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    f = _compiled_maps()[kind]
    m, j, r = S.pair.meet, S.pair.join, range(S.n)
    return PairMap(S.n, tuple(tuple(f(m, j, x, y) for y in r) for x in r))


def twist_map(n: int) -> PairMap:
    return PairMap(n, tuple(tuple((y, x) for y in range(n)) for x in range(n)))


def braid_check(m: PairMap):
    """None if the braid relation holds, else the lexicographically first
    failing triple with both evaluated sides.

    With r12 = r x id and r23 = id x r, the sides on (x, y, z) are
    r12 r23 r12 = (e, f, d) and r23 r12 r23 = (i, p, q), where
    r(x, y) = (a, b), r(b, z) = (c, d), r(a, c) = (e, f) and
    r(y, z) = (g, h), r(x, g) = (i, k), r(k, h) = (p, q).
    """
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


def _compose(a: PairMap, b: PairMap) -> PairMap:
    table = tuple(tuple(b.table[x2][y2] for (x2, y2) in row) for row in a.table)
    return PairMap(a.n, table)


def power_class(m: PairMap) -> PowerClass:
    ident = tuple(tuple((x, y) for y in range(m.n)) for x in range(m.n))
    r2 = _compose(m, m)
    r3 = _compose(r2, m)
    return PowerClass(
        involutive=r2.table == ident,
        idempotent=r2.table == m.table,
        cubic=r3.table == m.table,
    )


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
    return terms.holds_all(S, FAMILY_IDENTITIES[family])


def solution_report(S: SkewLattice, kind: str) -> SolutionReport:
    m = build_map(S, kind)
    left, right = degeneracy(m)
    return SolutionReport(
        map_name=kind,
        braid=braid_check(m),
        power=power_class(m),
        left_nondegenerate=left,
        right_nondegenerate=right,
    )
