"""Generators for skew lattices: chains over disjoint classes, rectangular
algebras, the fixed small examples, products, subalgebras and bands of
idempotent matrices over Z_p."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import CayleyPair, SkewLattice, validate

# The two 3-element examples, exactly as printed.
_FIXED_TABLES = {
    "3R0": (
        ((0, 0, 0), (0, 1, 2), (0, 1, 2)),
        ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
    ),
    "3R1": (
        ((0, 0, 2), (0, 1, 2), (0, 2, 2)),
        ((0, 1, 0), (1, 1, 1), (2, 1, 2)),
    ),
    # The right-handed forbidden 5-element algebra: classes {0} < {1,2},{3} < {4},
    # with 1^2=2, 2^1=1, 1v2=1, 2v1=2. The remaining entries are forced by the
    # axioms (unique completion).
    "NC5R": (
        ((0, 0, 0, 0, 0), (0, 1, 2, 0, 1), (0, 1, 2, 0, 2), (0, 0, 0, 3, 3), (0, 1, 2, 3, 4)),
        ((0, 1, 2, 3, 4), (1, 1, 1, 4, 4), (2, 2, 2, 4, 4), (3, 4, 4, 3, 4), (4, 4, 4, 4, 4)),
    ),
}


def _opposite(tables):
    meet, join = tables
    n = len(meet)
    return (
        tuple(tuple(meet[y][x] for y in range(n)) for x in range(n)),
        tuple(tuple(join[y][x] for y in range(n)) for x in range(n)),
    )


_FIXED_TABLES["NC5L"] = _opposite(_FIXED_TABLES["NC5R"])

FIXED_NAMES = tuple(sorted(_FIXED_TABLES))


def fixed(name: str) -> SkewLattice:
    if name not in _FIXED_TABLES:
        raise ValueError(f"unknown fixed algebra {name!r}; known: {FIXED_NAMES}")
    meet, join = _FIXED_TABLES[name]
    return validate(CayleyPair.from_tables(meet, join))


def chain(sizes) -> SkewLattice:
    """Skew chain over disjoint classes A_1 < A_2 < ... of the given sizes.

    x in A_i, y in A_j: x^y = x if i<j else y; xvy = y if i<j else x.
    Elements are numbered by concatenating the classes in index order.
    The result is distributive and cancellative, and its D-classes are
    exactly the A_i.
    """
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be a nonempty list of positive integers")
    block = []
    for i, s in enumerate(sizes):
        block += [i] * s
    n = len(block)
    meet = [[x if block[x] < block[y] else y for y in range(n)] for x in range(n)]
    join = [[y if block[x] < block[y] else x for y in range(n)] for x in range(n)]
    return validate(CayleyPair.from_tables(meet, join))


def rectangular(left_size: int, right_size: int) -> SkewLattice:
    """L x R rectangular algebra: (a,b)^(c,d)=(a,d), (a,b)v(c,d)=(c,b).

    Element (a,b) is numbered a*right_size + b. Exactly one D-class.
    """
    if left_size < 1 or right_size < 1:
        raise ValueError("sizes must be >= 1")
    n = left_size * right_size

    def idx(a, b):
        return a * right_size + b

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(left_size), range(right_size)):
        for c, d in itertools.product(range(left_size), range(right_size)):
            meet[idx(a, b)][idx(c, d)] = idx(a, d)
            join[idx(a, b)][idx(c, d)] = idx(c, b)
    return validate(CayleyPair.from_tables(meet, join))


def direct_product(S1: SkewLattice, S2: SkewLattice) -> SkewLattice:
    """Componentwise product; element (a,b) is numbered a*S2.n + b."""
    n1, n2 = S1.n, S2.n
    n = n1 * n2

    def idx(a, b):
        return a * n2 + b

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a, b, c, d in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        meet[idx(a, b)][idx(c, d)] = idx(S1.meet(a, c), S2.meet(b, d))
        join[idx(a, b)][idx(c, d)] = idx(S1.join(a, c), S2.join(b, d))
    return validate(CayleyPair.from_tables(meet, join))


def subalgebras(S: SkewLattice, max_size: int) -> list:
    """All operation-closed subsets up to max_size, with induced tables.

    Returns (subset, algebra) pairs; induced elements are reindexed by the
    sorted subset."""
    m, j = S.pair.meet, S.pair.join
    out = []
    for size in range(1, min(max_size, S.n) + 1):
        for subset in itertools.combinations(range(S.n), size):
            ss = set(subset)
            if not all(m[x][y] in ss and j[x][y] in ss for x in subset for y in subset):
                continue
            pos = {x: i for i, x in enumerate(subset)}
            meet = [[pos[m[x][y]] for y in subset] for x in subset]
            join = [[pos[j[x][y]] for y in subset] for x in subset]
            out.append((subset, validate(CayleyPair.from_tables(meet, join))))
    return out


# --- bands of idempotent matrices over Z_p ----------------------------------


class BudgetExceededError(RuntimeError):
    pass


MAX_MATRICES = 65536  # the most matrices ring_band will enumerate


@dataclass(frozen=True)
class RingSpec:
    kind: str  # "full" | "ut" (upper triangular)
    dim: int
    mod: int

    def __post_init__(self):
        if self.kind not in ("full", "ut"):
            raise ValueError(f"ring kind must be 'full' or 'ut', not {self.kind!r}")
        if self.mod < 2 or any(self.mod % k == 0 for k in range(2, self.mod)):
            raise ValueError(f"modulus {self.mod} is not prime")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


@dataclass
class RingBandResult:
    emitted: list = field(default_factory=list)  # (SkewLattice, kind, band)
    nonassociative: list = field(default_factory=list)  # bands where the cubic join fails


def _mat_mul(a, b, p):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) % p for j in range(d)) for i in range(d)
    )


def _mat_add3(a, b, c, sign_c, p):
    d = len(a)
    return tuple(
        tuple((a[i][j] + b[i][j] + sign_c * c[i][j]) % p for j in range(d)) for i in range(d)
    )


def _quadratic_join(x, y, p):
    # x + y - xy
    return _mat_add3(x, y, _mat_mul(x, y, p), -1, p)


def _cubic_join(x, y, p):
    # (x o y)^2 == x + y + yx - xyx - yxy
    q = _quadratic_join(x, y, p)
    return _mat_mul(q, q, p)


def _all_matrices(spec: RingSpec):
    d, p = spec.dim, spec.mod
    if spec.kind == "full":
        cells = [(i, j) for i in range(d) for j in range(d)]
    else:
        cells = [(i, j) for i in range(d) for j in range(d) if i <= j]
    count = p ** len(cells)
    if count > MAX_MATRICES:
        raise BudgetExceededError(f"{count} matrices exceed the budget {MAX_MATRICES}")
    for values in itertools.product(range(p), repeat=len(cells)):
        m = [[0] * d for _ in range(d)]
        for (i, j), v in zip(cells, values):
            m[i][j] = v
        yield tuple(tuple(row) for row in m)


def _closure(seed, p):
    """Multiplicative closure of a set of matrices."""
    elems = set(seed)
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for prod in (_mat_mul(a, b, p), _mat_mul(b, a, p)):
                    if prod not in elems:
                        elems.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return frozenset(elems)


def _find_bands(idempotents, p):
    """Closure-maximal multiplicative bands, grown greedily from pair seeds."""
    eset = set(idempotents)
    bands = set()
    order = sorted(idempotents)
    for a, b in itertools.combinations_with_replacement(order, 2):
        cl = _closure({a, b}, p)
        if not cl <= eset:
            continue
        band = cl
        grown = True
        while grown:
            grown = False
            for e in order:
                if e in band:
                    continue
                cl = _closure(band | {e}, p)
                if cl <= eset:
                    band = cl
                    grown = True
        bands.add(band)
    return sorted(bands, key=lambda b: (len(b), sorted(b)))


def _band_to_algebra(band, join_of, p) -> SkewLattice:
    elems = sorted(band)
    pos = {m: i for i, m in enumerate(elems)}
    meet = [[pos[_mat_mul(a, b, p)] for b in elems] for a in elems]
    join = [[pos[join_of(a, b, p)] for b in elems] for a in elems]
    return validate(CayleyPair.from_tables(meet, join))


def ring_band(spec: RingSpec) -> RingBandResult:
    """Skew lattices carried by multiplicative bands of idempotents.

    For every closure-maximal band: if it is closed under the quadratic
    join, a quadratic skew lattice is emitted; if it is closed under the
    cubic join with the cubic join associative on it, a cubic one. Bands
    failing cubic-join associativity are reported, not emitted. Every
    emitted algebra is distributive and cancellative, and wherever the
    quadratic join is idempotent it agrees with the cubic one.
    """
    p = spec.mod
    idem = [m for m in _all_matrices(spec) if _mat_mul(m, m, p) == m]
    result = RingBandResult()
    for band in _find_bands(idem, p):
        if all(_quadratic_join(a, b, p) in band for a, b in itertools.product(band, repeat=2)):
            result.emitted.append((_band_to_algebra(band, _quadratic_join, p), "quadratic", band))
        if all(_cubic_join(a, b, p) in band for a, b in itertools.product(band, repeat=2)):
            assoc = all(
                _cubic_join(_cubic_join(a, b, p), c, p) == _cubic_join(a, _cubic_join(b, c, p), p)
                for a, b, c in itertools.product(band, repeat=3)
            )
            if assoc:
                result.emitted.append((_band_to_algebra(band, _cubic_join, p), "cubic", band))
            else:
                result.nonassociative.append(band)
    return result
