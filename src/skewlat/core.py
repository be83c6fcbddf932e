"""Cayley-table representation and validation of skew lattices.

Elements are always the integers 0..n-1; any labeling lives outside this
module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence


class MalformedTableError(ValueError):
    """A table is not square or contains an out-of-range entry."""


class AxiomError(ValueError):
    """Raised by validate() when the skew lattice axioms fail."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} axiom violation(s): {lines}{more}")


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple

    def __str__(self):
        return f"{self.law} at {self.witness}"


def _freeze(table: Iterable[Iterable[int]]) -> tuple:
    return tuple(tuple(row) for row in table)


@dataclass(frozen=True)
class CayleyPair:
    """Two n x n operation tables over {0..n-1}; a raw candidate algebra."""

    n: int
    meet: tuple
    join: tuple

    @classmethod
    def from_tables(cls, meet: Sequence[Sequence[int]], join: Sequence[Sequence[int]]) -> "CayleyPair":
        meet = _freeze(meet)
        join = _freeze(join)
        n = len(meet)
        if n < 1:
            raise MalformedTableError("empty table")
        for name, t in (("meet", meet), ("join", join)):
            if len(t) != n:
                raise MalformedTableError(f"{name} table is not {n}x{n}")
            for i, row in enumerate(t):
                if len(row) != n:
                    raise MalformedTableError(f"{name} row {i} has length {len(row)}, expected {n}")
                for j, v in enumerate(row):
                    if not isinstance(v, int) or not 0 <= v < n:
                        raise MalformedTableError(f"{name}[{i}][{j}] = {v!r} out of range 0..{n - 1}")
        return cls(n, meet, join)

    def flat(self) -> tuple:
        return tuple(v for row in self.meet for v in row) + tuple(v for row in self.join for v in row)


def _compare(tables, n, perm, pinv, flat) -> int:
    """-1, 0 or 1 as the tables relabeled by perm (pinv its inverse) read
    smaller than, equal to or larger than flat; stops at the first position
    where they differ."""
    pos = 0
    for t in tables:
        for a in range(n):
            row = t[pinv[a]]
            for b in range(n):
                v, f = perm[row[pinv[b]]], flat[pos]
                if v != f:
                    return -1 if v < f else 1
                pos += 1
    return 0


def label_zero_class(row, x0):
    """The label-0 rule of the least table, when x ^ x = x for every x.

    If x0 gets label 0, meet row 0 of the relabeled table holds 0 exactly at
    the labels of the c elements y with x0 ^ y = x0 (x0 among them), and
    the least row 0 starts with c zeros. So the least table gives label 0 to
    an element x0 with the most such y, and labels 1..c-1 to those y other
    than x0, in some order; a relabeling that gives x0 label 0 but a label
    below c to another element reads larger in row 0. Returns x0, then those
    y in increasing order, from `row`, the meet row of x0; an entry that is
    not an element (a -1 for unknown) counts for no y."""
    return (x0, *(y for y, v in enumerate(row) if v == x0 != y))


def relabelings(n, head):
    """The inverses (label -> element) of the relabelings of range(n) that
    give head[0] label 0 and the elements of head[1:] the labels
    1..len(head)-1, in some order; in itertools.permutations order."""
    rest = [y for y in range(n) if y not in head]
    for mid in itertools.permutations(sorted(head[1:])):
        for tail in itertools.permutations(rest):
            yield (head[0], *mid, *tail)


def inverse(p):
    """The inverse of a permutation p of range(len(p)), as a list."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return inv


def _inverses(pair: CayleyPair):
    """The inverses (label -> element) of the relabelings that can give the
    least table: those `label_zero_class` allows, the rest in every order,
    when x ^ x = x for every x. Otherwise every permutation can."""
    n, m = pair.n, pair.meet
    if any(m[x][x] != x for x in range(n)):
        yield from itertools.permutations(range(n))
        return
    most = max(m[x].count(x) for x in range(n))
    for x0 in range(n):
        if m[x0].count(x0) == most:
            yield from relabelings(n, label_zero_class(m[x0], x0))


def canonical_form(pair: CayleyPair) -> CayleyPair:
    """The lex-least labeling of the pair's isomorphism class: the least flat
    table over every relabeling. A permutation p renames x as p[x], so the
    relabeled tables hold p[t[a][b]] at (p[a], p[b]). Isomorphic pairs get
    the same table. Only the relabelings `_inverses` yields are compared: no
    other can give the least table."""
    n, tables = pair.n, (pair.meet, pair.join)
    best = None
    for pinv in _inverses(pair):
        perm = inverse(pinv)
        if best is None or _compare(tables, n, perm, pinv, best) < 0:
            best = tuple(perm[t[pinv[a]][pinv[b]]] for t in tables for a in range(n) for b in range(n))
    rows = tuple(best[k : k + n] for k in range(0, 2 * n * n, n))
    return CayleyPair(n, rows[:n], rows[n:])


def is_canonical(pair: CayleyPair, meet_automorphisms=None) -> bool:
    """True iff the pair is the lex-least labeling of its isomorphism class.

    `meet_automorphisms`, when given, are permutations p (p[x] the new label
    of x) that fix the meet table, and the caller knows that every other
    relabeling makes the meet table larger, as at a leaf of the search.
    Only the join table can then undercut the pair, and only under them.
    Without it, every relabeling is compared (`canonical_form`)."""
    if meet_automorphisms is None:
        return canonical_form(pair).flat() == pair.flat()
    n = pair.n
    join = tuple(itertools.chain.from_iterable(pair.join))
    return all(
        _compare((pair.join,), n, p, inverse(p), join) >= 0 for p in meet_automorphisms
    )


@dataclass(frozen=True)
class SkewLattice:
    """A CayleyPair that passed validate(); immutable and safe to share."""

    pair: CayleyPair

    @property
    def n(self) -> int:
        return self.pair.n

    def meet(self, x: int, y: int) -> int:
        return self.pair.meet[x][y]

    def join(self, x: int, y: int) -> int:
        return self.pair.join[x][y]

    def elements(self) -> range:
        return range(self.pair.n)


@dataclass(frozen=True)
class ElementPairOrder:
    """Natural preorder (preceq) and natural partial order (leq) matrices."""

    preceq: tuple
    leq: tuple


def axiom_violations(pair: CayleyPair) -> list:
    """Return every skew-lattice axiom violation of the pair, with witnesses.

    Checks idempotency of both operations, associativity of both, and the
    four absorption laws. The list is empty iff the pair is a skew lattice.
    """
    m, j, n = pair.meet, pair.join, pair.n
    out = []
    rng = range(n)
    for x in rng:
        if m[x][x] != x:
            out.append(Violation("idempotency of meet", (x,)))
        if j[x][x] != x:
            out.append(Violation("idempotency of join", (x,)))
    # With n <= 256 each row is also bytes, and row y translated through row
    # x (padded to the 256 bytes translate takes) is the row z -> x(yz), made
    # in one C call: when it equals the row of xy for both tables, no z fails
    # at (x, y). Only the other pairs, and every pair above n = 256, scan z,
    # with rows hoisted out of the inner loop: mxy is the row of x ^ y, and
    # mxy[z] != mx[my[z]] reads (x ^ y) ^ z != x ^ (y ^ z)
    small = n <= 256
    if small:
        mb, jb = [bytes(row) for row in m], [bytes(row) for row in j]
    for x in rng:
        mx, jx = m[x], j[x]
        if small:
            mbx, jbx = mb[x].ljust(256, b"\0"), jb[x].ljust(256, b"\0")
        for y in rng:
            if small and mb[y].translate(mbx) == mb[mx[y]] and jb[y].translate(jbx) == jb[jx[y]]:
                continue
            my, jy, mxy, jxy = m[y], j[y], m[mx[y]], j[jx[y]]
            for z in rng:
                if mxy[z] != mx[my[z]]:
                    out.append(Violation("associativity of meet", (x, y, z)))
                if jxy[z] != jx[jy[z]]:
                    out.append(Violation("associativity of join", (x, y, z)))
    for x in rng:
        mx, jx = m[x], j[x]
        for y in rng:
            if mx[jx[y]] != x:
                out.append(Violation("absorption x^(xvy)=x", (x, y)))
            if jx[mx[y]] != x:
                out.append(Violation("absorption xv(x^y)=x", (x, y)))
            if j[mx[y]][y] != y:
                out.append(Violation("absorption (x^y)vy=y", (x, y)))
            if m[jx[y]][y] != y:
                out.append(Violation("absorption (xvy)^y=y", (x, y)))
    return out


def validate(pair: CayleyPair) -> SkewLattice:
    """Validated constructor: returns a SkewLattice or raises AxiomError.

    AxiomError carries *all* violations (search diagnostics want the full
    list, not just the first). The dualities and regularity that follow
    from the axioms are checked by the theorem battery, not here.
    """
    violations = axiom_violations(pair)
    if violations:
        raise AxiomError(violations)
    return SkewLattice(pair)


def orders(S: SkewLattice) -> ElementPairOrder:
    """Natural preorder (x^y^x=x) and partial order (x^y=x=y^x) matrices.

    The theorem battery checks them against their join forms
    (x preceq y iff yvxvy=y; x leq y iff xvy=y=yvx).
    """
    m, rng = S.pair.meet, range(S.n)
    preceq = tuple(tuple(m[m[x][y]][x] == x for y in rng) for x in rng)
    leq = tuple(tuple(m[x][y] == x == m[y][x] for y in rng) for x in rng)
    return ElementPairOrder(preceq, leq)


# --- skewlat v1 text format ------------------------------------------------
#
# Optional '#' comment lines; a line with n; n lines of n whitespace-separated
# 0-based meet entries; a blank line; n lines of join entries.


def to_text(pair: CayleyPair) -> str:
    lines = [str(pair.n)]
    lines += [" ".join(str(v) for v in row) for row in pair.meet]
    lines.append("")
    lines += [" ".join(str(v) for v in row) for row in pair.join]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CayleyPair:
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    # strip leading blank lines, keep interior blanks (they separate tables)
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise MalformedTableError("empty algebra file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise MalformedTableError(f"expected element count, got {lines[0]!r}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != 2 * n:
        raise MalformedTableError(f"expected {2 * n} table rows, got {len(rows)}")

    def parse_rows(chunk):
        table = []
        for ln in chunk:
            try:
                table.append([int(tok) for tok in ln.split()])
            except ValueError:
                raise MalformedTableError(f"bad table row {ln!r}")
        return table

    return CayleyPair.from_tables(parse_rows(rows[:n]), parse_rows(rows[n:]))


def load(path) -> CayleyPair:
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())


def save(pair: CayleyPair, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(pair))
