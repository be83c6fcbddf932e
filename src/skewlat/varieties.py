"""Membership predicates for the named varieties and their cross-checks."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import green, terms
from .constructions import fixed
from .core import CayleyPair, SkewLattice, canonical_labeling, orders

# Each variety flag, in report order, with the bundled formulas whose
# conjunction defines it. quasi_distributive names none on S: it is decided
# on S/D (see check).
FLAGS = {
    "distributive": ("D1", "D2"),
    "quasi_distributive": (),
    "cancellative": ("C1", "C2"),
    "left_cancellative": ("C1",),
    "right_cancellative": ("C2",),
    "simply_cancellative": ("simple-canc",),
    "symmetric": ("upper-sym", "lower-sym"),
    "upper_symmetric": ("upper-sym",),
    "lower_symmetric": ("lower-sym",),
    "normal": ("normal",),
    "conormal": ("conormal",),
    "binormal": ("normal", "conormal"),
    "strongly_distributive": ("strong-dist1", "strong-dist2"),
    "co_strongly_distributive": ("co-strong-dist1", "co-strong-dist2"),
    "left_handed": ("left-handed",),
    "right_handed": ("right-handed",),
    "rectangular": ("rect1", "rect2"),
    "lattice": ("commute-meet", "commute-join"),
}
FLAG_NAMES = tuple(FLAGS)


@dataclass(frozen=True)
class VarietyReport:
    flags: dict
    witnesses: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> bool:
        return self.flags[name]

    def to_text(self) -> str:
        lines = []
        for name in FLAG_NAMES:
            lines.append(f"{name}: {str(self.flags[name]).lower()}")
            if name in self.witnesses:
                w = self.witnesses[name]
                assign = ", ".join(f"{k}={v}" for k, v in sorted(w.items()))
                lines.append(f"  counterexample: {assign}")
        return "\n".join(lines) + "\n"


def check(S: SkewLattice, flag: str):
    """True, or the first failing assignment of the flag's formulas.

    quasi_distributive means S/D is a distributive lattice, so it is decided
    by D1 and D2 on S/D and its witness is over class ids of S/D.
    """
    names = FLAGS[flag]
    if flag == "quasi_distributive":
        S, names = green.maximal_lattice_image(S).algebra, ("D1", "D2")
    found = terms.holds_all(S, names)
    return True if found is True else found[1]


def classify(S: SkewLattice) -> VarietyReport:
    """Decide every variety flag exhaustively, with counterexample witnesses.

    The known implications between the flags are checked by the theorem
    battery.
    """
    results = {flag: check(S, flag) for flag in FLAG_NAMES}
    return VarietyReport(
        {flag: found is True for flag, found in results.items()},
        {flag: found for flag, found in results.items() if found is not True},
    )


# The two non-distributive 5-element lattices complete the forbidden-
# subalgebra list for simple cancellativity: M3 (three incomparable atoms)
# and N5 (the pentagon). Both fail the simple-cancellation implication at
# the two incomparable elements sharing meet and join with the third.
_M3 = (
    ((0, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 2, 0, 2), (0, 0, 0, 3, 3), (0, 1, 2, 3, 4)),
    ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 4, 4), (3, 4, 4, 3, 4), (4, 4, 4, 4, 4)),
)
_N5 = (
    ((0, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 2, 2, 2), (0, 0, 2, 3, 3), (0, 1, 2, 3, 4)),
    ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 3, 4), (3, 4, 3, 3, 4), (4, 4, 4, 4, 4)),
)


@functools.cache
def _forbidden() -> dict:
    """Canonical flat table -> (name, inverse of its canonical permutation)
    for each of the four forbidden algebras."""
    pairs = (
        ("NC5R", fixed("NC5R").pair),
        ("NC5L", fixed("NC5L").pair),
        ("M3", CayleyPair.from_tables(*_M3)),
        ("N5", CayleyPair.from_tables(*_N5)),
    )
    out = {}
    for name, pair in pairs:
        flat, perm = canonical_labeling(pair)
        out[flat] = (name, tuple(perm.index(c) for c in range(5)))
    return out


def _fingerprint(meet, join) -> tuple:
    """A labeling-invariant summary of a pair: for each x, the number of y
    with x ^ y = x and the number with x v y = x, sorted."""
    return tuple(sorted((mr.count(x), jr.count(x)) for x, (mr, jr) in enumerate(zip(meet, join))))


@functools.cache
def _forbidden_fingerprints() -> frozenset:
    """The fingerprints of the four forbidden algebras."""
    out = set()
    for flat in _forbidden():
        rows = [flat[k : k + 5] for k in range(0, 50, 5)]
        out.add(_fingerprint(rows[:5], rows[5:]))
    return frozenset(out)


def nc5_free(S: SkewLattice):
    """True, or an embedded copy of one of the four forbidden 5-element
    algebras (as (name, subset, element map onto that algebra)).

    The forbidden list is NC5R, NC5L plus the non-distributive lattices M3
    and N5: a skew lattice is simply cancellative exactly when none of the
    four embeds; the theorem battery checks the verdict against the
    simple-cancellation quasi-identity. Each of the four has a zero and a
    one, and the natural order x <= y (x ^ y = x = y ^ x) reads the same in
    a subalgebra as in S, so every copy lies in an interval [b, t] of S
    with b its zero and t its one. Only these 5-subsets are candidates:
    b < t and three elements strictly between them; a subset has at most
    one least element, so each is generated once. Each closed candidate, in
    combinations order, whose `_fingerprint` is one of the forbidden
    algebras' is canonicalized once and looked up among their canonical
    tables; two labelings with the same canonical table differ by the
    composite of their canonical permutations.
    The copy reported is of the first algebra in that list that embeds, on
    the first subset holding one, so its name does not depend on the
    labeling.
    """
    m, j = S.pair.meet, S.pair.join
    leq, rng = orders(S).leq, range(S.n)
    candidates = sorted(
        tuple(sorted((b, t, *mid)))
        for b in rng
        for t in rng
        if b != t and leq[b][t]
        for mid in itertools.combinations([x for x in rng if leq[b][x] and leq[x][t] and x not in (b, t)], 3)
    )
    first = {}  # name -> its first copy
    for subset in candidates:
        index = {x: k for k, x in enumerate(subset)}
        try:
            sub = CayleyPair(
                5,
                tuple(tuple(index[m[x][y]] for y in subset) for x in subset),
                tuple(tuple(index[j[x][y]] for y in subset) for x in subset),
            )
        except KeyError:  # not closed
            continue
        if _fingerprint(sub.meet, sub.join) not in _forbidden_fingerprints():
            continue
        flat, perm = canonical_labeling(sub)
        hit = _forbidden().get(flat)
        if hit is not None and hit[0] not in first:
            name, pinv = hit
            first[name] = name, subset, {x: pinv[perm[k]] for k, x in enumerate(subset)}
            if name == "NC5R":  # first in the list: nothing can come before it
                break
    return next((first[name] for name, _ in _forbidden().values() if name in first), True)
