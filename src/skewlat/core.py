"""Cayley-table representation and validation of skew lattices.

Elements are always the integers 0..n-1; any labeling lives outside this
module.
"""

from __future__ import annotations

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
    for x in rng:
        for y in rng:
            for z in rng:
                if m[m[x][y]][z] != m[x][m[y][z]]:
                    out.append(Violation("associativity of meet", (x, y, z)))
                if j[j[x][y]][z] != j[x][j[y][z]]:
                    out.append(Violation("associativity of join", (x, y, z)))
    for x in rng:
        for y in rng:
            if m[x][j[x][y]] != x:
                out.append(Violation("absorption x^(xvy)=x", (x, y)))
            if j[x][m[x][y]] != x:
                out.append(Violation("absorption xv(x^y)=x", (x, y)))
            if j[m[x][y]][y] != y:
                out.append(Violation("absorption (x^y)vy=y", (x, y)))
            if m[j[x][y]][y] != y:
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


def is_skew_lattice(pair: CayleyPair) -> bool:
    return not axiom_violations(pair)


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
