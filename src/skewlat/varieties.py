"""Membership predicates for the named varieties and their cross-checks.

`decide` gives the `props` report its flags and its NC5 verdict. On an
algebra whose Green's R and L are both non-trivial it runs classify's pass
on the two smaller factors S/R and S/L, the factor route that
`green.proper_factors` justifies and `ybe.decide` takes too, and it skips
the forbidden-subalgebra search on a simply cancellative algebra. `check`,
`classify` and `nc5_free` decide S directly, and the search's filters and
the theorem battery call only them: on census-size algebras the factors
cost more than they save, and the battery's cross-checks must not rest
on the theorems the route assumes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import green, terms
from .constructions import FIXED_TABLES
from .core import SkewLattice, orders

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
# the formulas decided on S/D for quasi_distributive, and every formula the
# other flags name, each once, for classify's pass over S
_ON_QUOTIENT = ("D1", "D2")
_ON_S = tuple(dict.fromkeys(name for names in FLAGS.values() for name in names))


@dataclass(frozen=True)
class VarietyReport:
    flags: dict
    witnesses: dict = field(default_factory=dict)


def _verdict(flag: str, found: dict):
    """True, or the first failing assignment of the flag's formulas, read
    from their verdicts in `found` (from S/D for quasi_distributive)."""
    names = _ON_QUOTIENT if flag == "quasi_distributive" else FLAGS[flag]
    return next((found[name] for name in names if found[name] is not True), True)


def check(S: SkewLattice, flag: str):
    """True, or the first failing assignment of the flag's formulas.

    quasi_distributive means S/D is a distributive lattice, so it is decided
    by D1 and D2 on S/D and its witness is over class ids of S/D.
    """
    names = FLAGS[flag]
    if flag == "quasi_distributive":
        S, names = green.maximal_lattice_image(S), _ON_QUOTIENT
    return _verdict(flag, terms.holds_named(S, names))


def classify(S: SkewLattice) -> VarietyReport:
    """Decide every variety flag exhaustively, with counterexample witnesses:
    one pass over S for every formula the flags name, one over S/D.

    The known implications between the flags are checked by the theorem
    battery.
    """
    return _report(S, terms.holds_named(S, _ON_S))


def _report(S: SkewLattice, on_s: dict) -> VarietyReport:
    """The report from the verdicts `on_s` of every formula of _ON_S on S,
    with quasi_distributive decided by one pass over S/D."""
    on_quotient = terms.holds_named(green.maximal_lattice_image(S), _ON_QUOTIENT)
    results = {
        flag: _verdict(flag, on_quotient if flag == "quasi_distributive" else on_s) for flag in FLAG_NAMES
    }
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
def _patterns() -> dict:
    """Middle-product pattern -> (name, order) for each forbidden algebra, in
    report order, and each order of its middle elements 1, 2, 3.

    Each algebra has its zero at 0 and its one at 4. With a candidate's least
    element labeled 0, its middles 1..3 and its greatest 4, its pattern is
    the labels of the meet and join of each ordered pair of distinct middles;
    order[k] is the algebra's element for the candidate's label k. Orders
    that differ by an automorphism give one pattern; the first is kept.
    """
    tables = (("NC5R", FIXED_TABLES["NC5R"]), ("NC5L", FIXED_TABLES["NC5L"]), ("M3", _M3), ("N5", _N5))
    out = {}
    for name, (meet, join) in tables:
        for middles in itertools.permutations((1, 2, 3)):
            order = (0, *middles, 4)
            label = {x: k for k, x in enumerate(order)}
            pattern = tuple(
                label[op[order[x]][order[y]]] for x, y in itertools.permutations((1, 2, 3), 2) for op in (meet, join)
            )
            out.setdefault(pattern, (name, order))
    return out


def nc5_free(S: SkewLattice):
    """True, or an embedded copy of one of the four forbidden 5-element
    algebras (as (name, subset, element map onto that algebra)).

    The forbidden list is NC5R, NC5L plus the non-distributive lattices M3
    and N5: a skew lattice is simply cancellative exactly when none of the
    four embeds; the theorem battery checks the verdict against the
    simple-cancellation quasi-identity. Each of the four has a zero and a
    one, and the natural order x <= y (x ^ y = x = y ^ x) reads the same in
    a subalgebra as in S, so every copy is some b < t of S with three
    "middle" elements strictly between them; in each of the four, some
    middle is incomparable to the other two. Only these 5-subsets are
    candidates, so a chain has none. A subset has at most one least and one
    greatest element, so each is generated once. Every product with b or t
    follows from the order and x ^ x = x = x v x, so a candidate is a copy
    exactly when the meets and joins of its distinct middles, read as labels
    (b 0, the middles 1..3, t 4, None outside the subset), form one of the
    algebras' patterns (`_patterns`), whose order gives the element map.
    The copy reported is of the first algebra in that list that embeds, on
    the first subset in combinations order holding one, so its name does
    not depend on the labeling.
    """
    m, j = S.pair.meet, S.pair.join
    leq, rng = orders(S).leq, range(S.n)
    below = [{y for y in rng if y != x and leq[y][x]} for x in rng]
    above = [{y for y in rng if y != x and leq[x][y]} for x in rng]
    middle = [x for x in rng if below[x] and above[x]]
    triples = {
        tuple(sorted((a, x, y)))
        for a in middle
        for x, y in itertools.combinations([z for z in middle if not (leq[a][z] or leq[z][a])], 2)
    }
    candidates = sorted(
        (tuple(sorted((b, *mid, t))), b, mid, t)
        for mid in triples
        for b in below[mid[0]] & below[mid[1]] & below[mid[2]]
        for t in above[mid[0]] & above[mid[1]] & above[mid[2]]
    )
    patterns, first = _patterns(), {}  # name -> its first copy
    for subset, b, mid, t in candidates:
        label = {b: 0, mid[0]: 1, mid[1]: 2, mid[2]: 3, t: 4}
        hit = patterns.get(tuple(label.get(op[x][y]) for x, y in itertools.permutations(mid, 2) for op in (m, j)))
        if hit is not None and hit[0] not in first:
            name, order = hit
            first[name] = name, subset, {x: order[label[x]] for x in subset}
            if name == "NC5R":  # first in the list: nothing can come before it
                break
    return next((first[name] for name, _ in patterns.values() if name in first), True)


def decide(S: SkewLattice) -> tuple:
    """(classify(S), nc5_free(S)) for the props report, with the same
    flags, witnesses and copy, taking the factor route of
    green.proper_factors when S is not handed.

    classify's pass over S runs on S/R and on S/L instead. A formula that
    holds on both holds on S (see green.proper_factors); each one that
    fails on a factor is checked on S by terms.holds, so its verdict and
    witness are S's own. That check is compiled once per formula, at most
    19 in all, where one pass over each set of failing formulas would
    compile anew for each set, and a one-shot report would pay for it.
    quasi_distributive is decided on S/D as classify decides it, and a
    handed S goes through classify. A simply cancellative S is NC5-free
    (the battery checks the equivalence), so nc5_free runs only on an S
    that is not, for its witness.
    """
    factors = green.proper_factors(S)
    if factors:
        on_factors = [terms.holds_named(F, _ON_S) for F in factors]
        lib = terms.library()
        report = _report(S, {
            name: True if all(found[name] is True for found in on_factors) else terms.holds(S, lib[name])
            for name in _ON_S
        })
    else:
        report = classify(S)
    return report, True if report.flags["simply_cancellative"] else nc5_free(S)
