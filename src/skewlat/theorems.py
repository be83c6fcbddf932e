"""Per-algebra theorem battery: the one owner of the library's theorem
cross-checks.

Each named check takes a validated skew lattice and returns True or a short
witness string that names the failed invariant. The library functions
compute their results without re-checking them against the theory (Green's
relations against the join band, the natural orders against their join
forms, the factors against the fiber product, cosets, update maps, variety
flags, nc5_free); the checks here do, and so do the dualities and regularity
that follow from the axioms. ``run_battery`` applies every check to every
algebra enumerated up to a given size and tallies the results; since the
theorems are universally quantified, any failure is a library bug or a
genuinely surprising finite counterexample and is reported with the
offending tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core, green, search, terms, varieties, ybe
from .core import SkewLattice, to_text


def _update_maps_are_solutions(S: SkewLattice):
    for kind in ("update", "lower_update", "co_update", "upper_update"):
        m = ybe.build_map(S, kind)
        w = ybe.braid_check(m)
        if w is not None:
            return f"{kind} braid failure at {w.triple}"
        power = ybe.power_class(m)
        if not power.idempotent:
            return f"{kind} map is not idempotent"
        if not power.cubic:
            return f"{kind} map is idempotent but not cubic"
    return True


def _handed_maps_agree(S: SkewLattice, rows):
    """True, or the witness of the first row (flag, kind, other kind,
    witness) whose flag holds on S while its two maps differ."""
    for flag, kind, other, witness in rows:
        if varieties.check(S, flag) is True and ybe.build_map(S, kind).table != ybe.build_map(S, other).table:
            return witness
    return True


def _update_equals_lower_update(S: SkewLattice):
    # On right-handed algebras (x^y)vx is the lower update; dually, on
    # left-handed algebras (yvx)^y is the upper update.
    return _handed_maps_agree(S, (
        ("right_handed", "update", "lower_update", "(x^y)vx differs from the lower update on a right-handed algebra"),
        ("left_handed", "co_update", "upper_update", "(yvx)^y differs from the upper update on a left-handed algebra"),
    ))


def _family_identity_equivalences(S: SkewLattice):
    for family in ybe.FAMILY_IDENTITIES:
        identities = ybe.solution_identity_check(S, family) is True
        braid = ybe.braid_check(ybe.build_map(S, family)) is None
        if identities != braid:
            return f"{family} identities hold: {identities}, braid holds: {braid}"
    return True


def _strong_and_co_strong_implies_cubic(S: SkewLattice):
    if not all(varieties.check(S, f) is True for f in ("strongly_distributive", "co_strongly_distributive")):
        return True
    m = ybe.build_map(S, "strong")
    if ybe.braid_check(m) is not None:
        return "strongly+co-strongly distributive but strong map fails braid"
    if not ybe.power_class(m).cubic:
        return "strongly+co-strongly distributive but r^3 != r"
    return True


def _failed_flag_implication(flags: dict):
    """The first known implication between variety flags that fails, or None."""
    checks = (
        ("strongly distributive implies distributive", not flags["strongly_distributive"] or flags["distributive"]),
        ("co-strongly distributive implies distributive", not flags["co_strongly_distributive"] or flags["distributive"]),
        (
            "strongly distributive iff symmetric+quasi-distributive+normal",
            flags["strongly_distributive"]
            == (flags["symmetric"] and flags["quasi_distributive"] and flags["normal"]),
        ),
        (
            "co-strongly distributive iff symmetric+quasi-distributive+conormal",
            flags["co_strongly_distributive"]
            == (flags["symmetric"] and flags["quasi_distributive"] and flags["conormal"]),
        ),
        (
            "cancellative iff simply cancellative and symmetric",
            flags["cancellative"] == (flags["simply_cancellative"] and flags["symmetric"]),
        ),
        ("cancellative implies quasi-distributive", not flags["cancellative"] or flags["quasi_distributive"]),
        ("binormal iff normal and conormal", flags["binormal"] == (flags["normal"] and flags["conormal"])),
        ("symmetric iff upper and lower symmetric", flags["symmetric"] == (flags["upper_symmetric"] and flags["lower_symmetric"])),
        ("cancellative implies left and right cancellative", not flags["cancellative"] or (flags["left_cancellative"] and flags["right_cancellative"])),
        ("lattice implies symmetric", not flags["lattice"] or flags["symmetric"]),
    )
    return next((what for what, ok in checks if not ok), None)


def _handed_solution_equivalences(S: SkewLattice):
    flags = varieties.classify(S).flags
    failed = _failed_flag_implication(flags)
    if failed is not None:
        return f"variety implication fails: {failed}"
    cases = (
        ("left", flags["distributive"] and flags["left_cancellative"]),
        ("right", flags["distributive"] and flags["right_cancellative"]),
        ("weak", flags["distributive"] and flags["simply_cancellative"] and flags["lower_symmetric"]),
    )
    for family, expected in cases:
        actual = ybe.braid_check(ybe.build_map(S, family)) is None
        if actual != expected:
            return f"{family} solution verdict {actual} but variety test says {expected}"
    return True


def _symmetric_triple_equivalence(S: SkewLattice):
    if varieties.check(S, "symmetric") is not True:
        return True
    verdicts = [
        ybe.braid_check(ybe.build_map(S, f)) is None for f in ("left", "right", "weak")
    ]
    if len(set(verdicts)) != 1:
        return f"symmetric algebra with mixed left/right/weak verdicts {verdicts}"
    return True


def _nondegenerate_strong_form(S: SkewLattice):
    m = ybe.build_map(S, "strong")
    if ybe.braid_check(m) is not None:
        return True
    left, right = ybe.degeneracy(m)
    if not (left or right):
        return True
    mt, jt = S.pair.meet, S.pair.join
    for x in S.elements():
        for y in S.elements():
            if mt[x][y] != y or jt[x][y] != x:
                return f"nondegenerate strong solution with x^y!=y or xvy!=x at ({x},{y})"
    return True


def _update_failure(kind, side, inner, outer, D, cosets, x, y, u):
    """Why u is not the `kind` update of x by y, or None. The lower update
    (inner = meet, outer = join, side "above") stays in the D-class of x, is
    the only element of the coset M v x v M (M the class of x^y) above
    t = y^x^y, and meets y in t from both sides; the upper update is its
    dual. `cosets` keeps each coset built, by (class of M, x)."""
    t = inner[inner[y][x]][y]
    key = (D.class_of[inner[x][y]], x)
    coset = cosets.get(key)
    if coset is None:
        M = D.classes[key[0]]
        coset = cosets[key] = {outer[outer[a][x]][b] for a in M for b in M}
    if D.class_of[u] != D.class_of[x]:
        return f"{kind} update {u} of {x} by {y} leaves the D-class of {x}"
    if [c for c in coset if inner[t][c] == t == inner[c][t]] != [u]:
        return f"{kind} update {u} of {x} by {y} is not the only element of its coset {side} {t}"
    if not inner[u][y] == t == inner[y][u]:
        return f"{kind} update {u} of {x} by {y} does not give {t} with {y}"
    return None


def _lower_update_composition(S: SkewLattice):
    # lu[x][y] is the lower update of x by y, uu[x][y] the upper update of x by y
    lu = [[u for u, _ in row] for row in ybe.build_map(S, "lower_update").table]
    upper = ybe.build_map(S, "upper_update").table
    uu = [[upper[y][x][1] for y in S.elements()] for x in S.elements()]
    m, j = S.pair.meet, S.pair.join
    L, _, D = green.green_relations(S)
    left_handed = L.class_of == D.class_of  # checked by decomposition-invariants
    lower_cosets, upper_cosets = {}, {}
    for x in S.elements():
        for y in S.elements():
            u = lu[x][y]
            failed = _update_failure("lower", "above", m, j, D, lower_cosets, x, y, u) or _update_failure(
                "upper", "below", j, m, D, upper_cosets, x, y, uu[x][y]
            )
            if failed:
                return failed
            # that it is (x^y)vx on right-handed ones is handed-update-coincidences
            if left_handed and u != j[x][m[y][x]]:
                return f"lower update of {x} by {y} is not xv(y^x) on a left-handed algebra"
    for x in S.elements():
        lux = lu[x]
        for y in S.elements():
            left, luy = lu[lux[y]], lu[y]
            for z in S.elements():
                w = luy[z]
                if left[w] != lux[w]:
                    return f"coset law fails at ({x},{y},{z})"
    return True


def _coset_membership_criterion(S: SkewLattice):
    # Two elements of an upper class A lie in a common coset of B in A
    # exactly when conjugating by every b in B gives the same value. The
    # cosets in either direction partition their class, and x -> the unique
    # y <= x maps each coset of B in A onto each coset of A in B.
    _, _, D = green.green_relations(S)
    ord_ = green.class_order(S, D)
    leq = core.orders(S).leq
    j = S.pair.join
    for B in range(D.size):
        for A in range(D.size):
            if A == B or not ord_[B][A]:
                continue
            ups, downs = green.cosets(S, A, B, D)
            for cs, cls in ((ups, A), (downs, B)):
                if sorted(x for c in cs for x in c) != sorted(D.classes[cls]):
                    return f"cosets do not partition class {cls} ({A} > {B})"
            coset_of = {a: k for k, c in enumerate(ups) for a in c}
            # each a with its coset and its conjugation vector over B
            keyed = [(a, coset_of[a], [j[j[b][a]][b] for b in D.classes[B]]) for a in sorted(D.classes[A])]
            for a, coset, conj in keyed:
                for a2, coset2, conj2 in keyed:
                    if (conj == conj2) != (coset == coset2):
                        return f"coset membership criterion fails for {a},{a2} in class {A} over {B}"
            for X in ups:
                for Y in downs:
                    below = {x: [y for y in Y if leq[y][x]] for x in X}
                    bijection = {x: ys[0] for x, ys in below.items() if len(ys) == 1}
                    if len(bijection) != len(X) or sorted(bijection.values()) != sorted(Y):
                        return f"<= is no bijection from coset {sorted(X)} onto {sorted(Y)}"
                    if green.coset_bijection(S, X, Y) != bijection:
                        return f"coset_bijection is not <= from coset {sorted(X)} onto {sorted(Y)}"
    return True


def _handed_weak_collapse(S: SkewLattice):
    return _handed_maps_agree(S, (
        ("left_handed", "weak", "left", "left-handed algebra where the weak map differs from the left map"),
        ("right_handed", "weak", "right", "right-handed algebra where the weak map differs from the right map"),
    ))


def _decomposition_invariants(S: SkewLattice):
    L, R, D = green.green_relations(S)
    j = S.pair.join
    for x in S.elements():
        for y in S.elements():
            if (D.class_of[x] == D.class_of[y]) != (j[j[x][y]][x] == x and j[j[y][x]][y] == y):
                return f"D of meet and D of join differ at ({x},{y})"
            if (R.class_of[x] == R.class_of[y]) != (j[x][y] == x and j[y][x] == y):
                return f"R of meet and L of join differ at ({x},{y})"
            if (L.class_of[x] == L.class_of[y]) != (j[x][y] == y and j[y][x] == x):
                return f"L of meet and R of join differ at ({x},{y})"
    if (varieties.check(S, "left_handed") is True) != (L.class_of == D.class_of):
        return "left-handed identity disagrees with L = D"
    if (varieties.check(S, "right_handed") is True) != (R.class_of == D.class_of):
        return "right-handed identity disagrees with R = D"
    try:
        lattice_image = green.maximal_lattice_image(S)
    except green.NotACongruenceError as exc:
        return f"D is not a congruence: {exc.witness}"
    if varieties.check(lattice_image, "lattice") is not True:
        return "S/D is not a lattice"
    left, right = green.factors(S)
    if varieties.check(left, "left_handed") is not True:
        return "S/R is not left-handed"
    if varieties.check(right, "right_handed") is not True:
        return "S/L is not right-handed"
    # S is the fiber product S/R x_{S/D} S/L
    image = {(R.class_of[x], L.class_of[x]) for x in S.elements()}
    if len(image) != S.n:
        return "x -> ([x]_R, [x]_L) is not injective"
    d_of_r = {R.class_of[x]: D.class_of[x] for x in S.elements()}
    d_of_l = {L.class_of[x]: D.class_of[x] for x in S.elements()}
    pullback = {(a, b) for a in range(R.size) for b in range(L.size) if d_of_r[a] == d_of_l[b]}
    if image != pullback:
        return "x -> ([x]_R, [x]_L) does not reach the pullback over S/D"
    # every bundled identity holds in S exactly when it holds in both factors:
    # one pass over all of them on each of S, S/R and S/L, but a factor with
    # S's tables (R or L trivial) has S's verdicts
    names = terms.identity_names()
    on_s = terms.holds_named(S, names)
    on_left, on_right = (on_s if T.pair == S.pair else terms.holds_named(T, names) for T in (left, right))
    for name in names:
        in_s = on_s[name] is True
        if not in_s and name in ("reg1", "reg2"):
            return f"regularity identity {name} fails"
        in_factors = on_left[name] is True and on_right[name] is True
        if in_s != in_factors:
            return f"identity {name} transfer mismatch (S: {in_s}, factors: {in_factors})"
    return True


def _nc5_characterization(S: SkewLattice):
    free = varieties.nc5_free(S) is True
    simply = terms.holds(S, terms.library()["simple-canc"]) is True
    if free != simply:
        return f"nc5_free says {free} but simple cancellativity holds: {simply}"
    return True


def _order_coherence(S: SkewLattice):
    o = core.orders(S)
    _, _, D = green.green_relations(S)
    m, j = S.pair.meet, S.pair.join
    for x in S.elements():
        for y in S.elements():
            if (m[x][y] == x) != (j[x][y] == y):
                return f"duality x^y=x iff xvy=y fails at ({x},{y})"
            if (m[x][y] == y) != (j[x][y] == x):
                return f"duality x^y=y iff xvy=x fails at ({x},{y})"
            if o.preceq[x][y] != (j[j[y][x]][y] == y):
                return f"x=<y differs from its join form yvxvy=y at ({x},{y})"
            if o.leq[x][y] != (j[x][y] == y == j[y][x]):
                return f"x<=y differs from its join form xvy=y=yvx at ({x},{y})"
            if o.leq[x][y] and not o.preceq[x][y]:
                return f"x<=y without x=<y at ({x},{y})"
            mutual = o.preceq[x][y] and o.preceq[y][x]
            if mutual != (D.class_of[x] == D.class_of[y]):
                return f"mutual preorder vs D mismatch at ({x},{y})"
    return True


THEOREMS = {
    "update-maps-are-idempotent-solutions": _update_maps_are_solutions,
    "handed-update-coincidences": _update_equals_lower_update,
    "family-identity-iff-braid": _family_identity_equivalences,
    "strong-and-co-strong-implies-cubic-solution": _strong_and_co_strong_implies_cubic,
    "handed-cancellativity-iff-solution": _handed_solution_equivalences,
    "symmetric-triple-equivalence": _symmetric_triple_equivalence,
    "nondegenerate-strong-solutions-are-rectangular-flips": _nondegenerate_strong_form,
    "lower-update-composition-law": _lower_update_composition,
    "coset-membership-criterion": _coset_membership_criterion,
    "handed-weak-map-collapse": _handed_weak_collapse,
    "decomposition-invariants": _decomposition_invariants,
    "nc5-characterizes-simple-cancellativity": _nc5_characterization,
    "orders-cohere-with-green": _order_coherence,
}


@dataclass(frozen=True)
class BatteryResult:
    max_n: int
    algebra_count: int
    passes: dict  # theorem name -> pass count
    failures: dict  # theorem name -> list of (witness text, algebra text)

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())


# The largest order the battery runs to: it needs an unbudgeted census of
# every order up to it. To order 7 (789 algebras) it takes about 2.5 s, 1 s
# of them the census; the order-8 census (1,971) runs to the end in 21-52 s,
# and the battery over it in about 4 s, but prints nothing until then
# (2 shared CPUs, Python 3.11.7).
MAX_N = 7


def run_battery(max_n: int, names=None) -> BatteryResult:
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be in 1..{MAX_N}")
    names = list(THEOREMS) if names is None else list(dict.fromkeys(names))  # once each, first order kept
    unknown = [k for k in names if k not in THEOREMS]
    if unknown:
        raise ValueError(f"unknown theorem names: {unknown}")
    passes = {k: 0 for k in names}
    failures = {k: [] for k in names}
    count = 0
    for n in range(1, max_n + 1):
        for S in search.census(n):
            count += 1
            for name in names:
                res = THEOREMS[name](S)
                if res is True:
                    passes[name] += 1
                else:
                    failures[name].append((str(res), to_text(S.pair)))
    return BatteryResult(max_n=max_n, algebra_count=count, passes=passes, failures=failures)
