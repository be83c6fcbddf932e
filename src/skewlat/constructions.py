"""Generators for skew lattices: chains over disjoint classes, rectangular
algebras, the fixed small examples, products, subalgebras and bands of
idempotent matrices over Z_p."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import CayleyPair, SkewLattice, validate

# The fixed examples' (meet, join) tables by name; the two 3-element ones
# exactly as printed.
FIXED_TABLES = {
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


FIXED_TABLES["NC5L"] = _opposite(FIXED_TABLES["NC5R"])

FIXED_NAMES = tuple(sorted(FIXED_TABLES))


def fixed(name: str) -> SkewLattice:
    if name not in FIXED_TABLES:
        raise ValueError(f"unknown fixed algebra {name!r}; known: {FIXED_NAMES}")
    meet, join = FIXED_TABLES[name]
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
    _check_order(sum(sizes))
    block = []
    for i, s in enumerate(sizes):
        block += [i] * s
    n = len(block)
    meet = [[x if block[x] < block[y] else y for y in range(n)] for x in range(n)]
    join = [[y if block[x] < block[y] else x for y in range(n)] for x in range(n)]
    return validate(CayleyPair.from_tables(meet, join))


def rectangular(left_size: int, right_size: int) -> SkewLattice:
    """L x R rectangular algebra: (a,b)^(c,d)=(a,d), (a,b)v(c,d)=(c,b).

    Element (a,b) is numbered a*right_size + b. Exactly one D-class. It is
    the product of the left-zero algebra on L (x^y = x, the opposite of a
    one-class chain) and the right-zero one on R (x^y = y).
    """
    if left_size < 1 or right_size < 1:
        raise ValueError("sizes must be >= 1")
    _check_order(left_size * right_size)
    left = chain([left_size]).pair
    left_zero = validate(CayleyPair.from_tables(*_opposite((left.meet, left.join))))
    return direct_product(left_zero, chain([right_size]))


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


MAX_MATRICES = 65536  # the most matrices ring_band will enumerate
# the largest order chain and rectangular will build: validating the n^3
# axiom instances takes about 1.2 s at 256 (2 shared CPUs, Python 3.11),
# and the time grows eightfold with each doubling
MAX_ORDER = 256


def _check_order(n):
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the maximum {MAX_ORDER}")


@dataclass(frozen=True)
class RingSpec:
    kind: str  # "full" | "ut" (upper triangular)
    dim: int
    mod: int

    def __post_init__(self):
        if self.kind not in ("full", "ut"):
            raise ValueError(f"ring kind must be 'full' or 'ut', not {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.mod < 2:
            raise ValueError(f"modulus {self.mod} is not prime")
        # mod ** cells matrices, multiplied out only until past the budget:
        # at most 17 factors of mod >= 2, before the trial division below
        cells = self.dim * self.dim if self.kind == "full" else self.dim * (self.dim + 1) // 2
        count = 1
        for _ in range(cells):
            count *= self.mod
            if count > MAX_MATRICES:
                raise ValueError(
                    f"the {self.kind} matrices of this dimension and modulus exceed the budget of {MAX_MATRICES}"
                )
        if any(self.mod % k == 0 for k in range(2, self.mod)):
            raise ValueError(f"modulus {self.mod} is not prime")


@dataclass
class RingBandResult:
    emitted: list = field(default_factory=list)  # (SkewLattice, kind, band)
    nonassociative: list = field(default_factory=list)  # bands where the cubic join fails


def _mat_mul(a, b, p):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) % p for j in range(d)) for i in range(d)
    )


def _quadratic_join(x, y, p):
    # x + y - xy
    xy = _mat_mul(x, y, p)
    d = len(x)
    return tuple(tuple((x[i][j] + y[i][j] - xy[i][j]) % p for j in range(d)) for i in range(d))


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
    for values in itertools.product(range(p), repeat=len(cells)):
        m = [[0] * d for _ in range(d)]
        for (i, j), v in zip(cells, values):
            m[i][j] = v
        yield tuple(tuple(row) for row in m)


def _closure(band, new, mul):
    """Multiplicative closure of a closed band and new elements, as indices
    into the operation table `mul`; None once a product is not idempotent."""
    elems = set(band)
    frontier = [x for x in new if x not in elems]
    elems.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for prod in (mul[a][b], mul[b][a]):
                    if prod < 0:
                        return None
                    if prod not in elems:
                        elems.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return frozenset(elems)


def _find_bands(mul):
    """Closure-maximal multiplicative bands, grown greedily from pair seeds."""
    bands = set()
    for a, b in itertools.combinations_with_replacement(range(len(mul)), 2):
        band = _closure((), (a, b), mul)
        if band is None:
            continue
        # one pass is enough: once the closure of band and e holds a product
        # that is not idempotent, so does the closure of every larger band and e
        for e in range(len(mul)):
            band = _closure(band, (e,), mul) or band
        bands.add(band)
    return sorted(bands, key=lambda b: (len(b), sorted(b)))


def _band_to_algebra(band, mul, join) -> SkewLattice:
    elems = sorted(band)
    pos = {m: i for i, m in enumerate(elems)}
    tables = ([[pos[op[a][b]] for b in elems] for a in elems] for op in (mul, join))
    return validate(CayleyPair.from_tables(*tables))


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
    idem = sorted(m for m in _all_matrices(spec) if _mat_mul(m, m, p) == m)
    index = {m: i for i, m in enumerate(idem)}
    # each operation once, as indices into idem; -1 where the result is not idempotent
    mul, quadratic, cubic = (
        [[index.get(op(a, b, p), -1) for b in idem] for a in idem]
        for op in (_mat_mul, _quadratic_join, _cubic_join)
    )
    result = RingBandResult()
    for band in _find_bands(mul):
        matrices = frozenset(idem[i] for i in band)
        if all(quadratic[a][b] in band for a, b in itertools.product(band, repeat=2)):
            result.emitted.append((_band_to_algebra(band, mul, quadratic), "quadratic", matrices))
        if all(cubic[a][b] in band for a, b in itertools.product(band, repeat=2)):
            assoc = all(
                cubic[cubic[a][b]][c] == cubic[a][cubic[b][c]] for a, b, c in itertools.product(band, repeat=3)
            )
            if assoc:
                result.emitted.append((_band_to_algebra(band, mul, cubic), "cubic", matrices))
            else:
                result.nonassociative.append(matrices)
    return result
