"""Membership predicates for the named varieties and their cross-checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import green, terms
from .core import SkewLattice

# Stable flag order for reports.
FLAG_NAMES = (
    "distributive",
    "quasi_distributive",
    "cancellative",
    "left_cancellative",
    "right_cancellative",
    "simply_cancellative",
    "symmetric",
    "upper_symmetric",
    "lower_symmetric",
    "normal",
    "conormal",
    "binormal",
    "strongly_distributive",
    "co_strongly_distributive",
    "left_handed",
    "right_handed",
    "rectangular",
    "lattice",
)

# flag -> library formula names whose conjunction defines it
_FORMULA_FLAGS = {
    "distributive": ("D1", "D2"),
    "left_cancellative": ("C1",),
    "right_cancellative": ("C2",),
    "cancellative": ("C1", "C2"),
    "simply_cancellative": ("simple-canc",),
    "upper_symmetric": ("upper-sym",),
    "lower_symmetric": ("lower-sym",),
    "symmetric": ("upper-sym", "lower-sym"),
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


@dataclass(frozen=True)
class VarietyReport:
    flags: dict
    witnesses: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> bool:
        return self.flags[name]

    def to_text(self, with_witnesses: bool = True) -> str:
        lines = []
        for name in FLAG_NAMES:
            lines.append(f"{name}: {str(self.flags[name]).lower()}")
            if with_witnesses and name in self.witnesses:
                w = self.witnesses[name]
                assign = ", ".join(f"{k}={v}" for k, v in sorted(w.items()))
                lines.append(f"  counterexample: {assign}")
        return "\n".join(lines) + "\n"


def _eval_conjunction(S: SkewLattice, lib: dict, names: tuple):
    """(all hold?, first witness or None) for a conjunction of formulas."""
    for name in names:
        res = terms.holds(S, lib[name])
        if res is not True:
            return False, res
    return True, None


def is_quasi_distributive(S: SkewLattice):
    """S/D is a distributive lattice; witness is over class ids of S/D."""
    q = green.maximal_lattice_image(S).algebra
    lib = terms.library()
    return _eval_conjunction(q, lib, ("D1", "D2"))


def classify(S: SkewLattice) -> VarietyReport:
    """Decide every variety flag exhaustively, with counterexample witnesses.

    The known implications between the flags are checked by the theorem
    battery.
    """
    lib = terms.library()
    flags = {}
    witnesses = {}
    for flag, names in _FORMULA_FLAGS.items():
        ok, wit = _eval_conjunction(S, lib, names)
        flags[flag] = ok
        if wit is not None:
            witnesses[flag] = wit
    ok, wit = is_quasi_distributive(S)
    flags["quasi_distributive"] = ok
    if wit is not None:
        witnesses["quasi_distributive"] = wit
    return VarietyReport(flags, witnesses)


def _subalgebra_closed(S: SkewLattice, subset: frozenset) -> bool:
    m, j = S.pair.meet, S.pair.join
    return all(m[x][y] in subset and j[x][y] in subset for x in subset for y in subset)


def _isomorphism(S: SkewLattice, subset: tuple, T: SkewLattice):
    """A bijection subset -> T respecting both tables, or None."""
    m, j = S.pair.meet, S.pair.join
    tm, tj = T.pair.meet, T.pair.join
    for perm in itertools.permutations(range(T.n)):
        img = dict(zip(subset, perm))
        if all(
            img[m[x][y]] == tm[img[x]][img[y]] and img[j[x][y]] == tj[img[x]][img[y]]
            for x in subset
            for y in subset
        ):
            return img
    return None


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


def nc5_free(S: SkewLattice):
    """True, or the first embedded copy of one of the four forbidden
    5-element algebras (as (name, subset, element map)).

    The forbidden list is NC5R, NC5L plus the non-distributive lattices M3
    and N5: a skew lattice is simply cancellative exactly when none of the
    four embeds; the theorem battery checks the verdict against the
    simple-cancellation quasi-identity.
    """
    from .constructions import fixed
    from .core import CayleyPair, validate

    found = None
    if S.n >= 5:
        targets = [
            ("NC5R", fixed("NC5R")),
            ("NC5L", fixed("NC5L")),
            ("M3", validate(CayleyPair.from_tables(*_M3))),
            ("N5", validate(CayleyPair.from_tables(*_N5))),
        ]
        for subset in itertools.combinations(range(S.n), 5):
            fs = frozenset(subset)
            if not _subalgebra_closed(S, fs):
                continue
            for name, T in targets:
                img = _isomorphism(S, subset, T)
                if img is not None:
                    found = (name, subset, img)
                    break
            if found:
                break
    return True if found is None else found
