"""Bounded enumeration of skew lattices up to isomorphism, with filters,
counterexample search, node/time budgets and resumable checkpoints.

The meet table is filled first (depth-first, cell by cell, incremental
associativity checking); the dualities and absorption laws then pin or
narrow most join cells. Isomorphism rejection keeps exactly the lex-least
representative of each class. Since that representative's meet table is the
least of its relabelings, a node is cut as soon as some relabeling makes the
decided prefix of the meet table strictly smaller.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import green, terms, varieties, ybe
from .core import CayleyPair, SkewLattice, axiom_violations, validate


@dataclass(frozen=True)
class SearchSpec:
    n: int
    satisfy: tuple = ()
    falsify: tuple = ()
    limit: int = 0  # max witnesses kept; 0 = unlimited
    max_nodes: int = 0  # search-node budget; 0 = unbounded
    max_seconds: float = 0.0  # wall-clock cap; 0 = unbounded

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("limit", "max_nodes", "max_seconds"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0 (0 = unbounded)")


@dataclass
class EnumerationResult:
    count_up_to_iso: int = 0
    witnesses: list = field(default_factory=list)
    exhausted: bool = True
    nodes: int = 0
    checkpoint: tuple = None  # decision path to resume from, when not exhausted


@dataclass
class CounterexampleResult:
    witness: object  # SkewLattice or None
    found_n: int
    exhausted: bool
    nodes: int = 0


def spec_hash(spec: SearchSpec) -> str:
    text = f"{spec.n}|{list(spec.satisfy)}|{list(spec.falsify)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- canonical forms ---------------------------------------------------------


def _cmp_relabeled(meet, join, n, perm, pinv, flat):
    """Compare the relabeled flat table against flat: -1 smaller, 0, 1."""
    pos = 0
    for t in (meet, join):
        for a in range(n):
            row = t[pinv[a]]
            for b in range(n):
                v = perm[row[pinv[b]]]
                f = flat[pos]
                if v != f:
                    return -1 if v < f else 1
                pos += 1
    return 0


def is_canonical(pair: CayleyPair) -> bool:
    """True iff the pair is the lex-least labeling of its isomorphism class."""
    n = pair.n
    flat = pair.flat()
    for perm in itertools.permutations(range(n)):
        pinv = [0] * n
        for i, v in enumerate(perm):
            pinv[v] = i
        if _cmp_relabeled(pair.meet, pair.join, n, perm, pinv, flat) < 0:
            return False
    return True


def relabel(pair: CayleyPair, perm) -> CayleyPair:
    n = pair.n
    pinv = [0] * n
    for i, v in enumerate(perm):
        pinv[v] = i
    meet = [[perm[pair.meet[pinv[a]][pinv[b]]] for b in range(n)] for a in range(n)]
    join = [[perm[pair.join[pinv[a]][pinv[b]]] for b in range(n)] for a in range(n)]
    return CayleyPair.from_tables(meet, join)


def canonical_form(pair: CayleyPair) -> CayleyPair:
    best = pair
    best_flat = pair.flat()
    n = pair.n
    for perm in itertools.permutations(range(n)):
        cand = relabel(pair, perm)
        f = cand.flat()
        if f < best_flat:
            best, best_flat = cand, f
    return best


# --- named predicates --------------------------------------------------------

_SOLUTION_PREDICATES = {
    "strong-solution": "strong",
    "left-solution": "left",
    "right-solution": "right",
    "weak-solution": "weak",
    "update-solution": "update",
    "lower-update-solution": "lower_update",
    "co-update-solution": "co_update",
    "upper-update-solution": "upper_update",
}


def resolve_predicate(name: str):
    """Map a satisfy/falsify entry to a boolean predicate on SkewLattice.

    Accepts variety flag names, solution-family names, bundled formula
    names, or a raw formula in the term grammar.
    """
    if name in _SOLUTION_PREDICATES:
        kind = _SOLUTION_PREDICATES[name]
        return lambda S: ybe.braid_check(ybe.build_map(S, kind)) is None
    if name in varieties.FLAG_NAMES:
        if name == "quasi_distributive":
            return lambda S: varieties.is_quasi_distributive(S)[0]
        if name in ("left_handed", "right_handed"):
            fn = green.is_left_handed if name == "left_handed" else green.is_right_handed
            return fn
        names = varieties._FORMULA_FLAGS[name]
        lib = terms.library()
        formulas = [lib[k] for k in names]
        return lambda S: all(terms.holds(S, f) is True for f in formulas)
    lib = terms.library()
    if name in lib:
        f = lib[name]
        return lambda S: terms.holds(S, f) is True
    if "=" in name:
        f = terms.parse(name)
        return lambda S: terms.holds(S, f) is True
    raise ValueError(f"unknown predicate {name!r}")


# Constraints usable for pruning partial tables: single-operation, two
# variables. Keyed by predicate name; values are (which-table, formula text).
_PRUNE_HINTS = {
    "left_handed": (("meet", "x ^ y ^ x = x ^ y"), ("join", "x ^ y ^ x = y ^ x")),
    "right_handed": (("meet", "x ^ y ^ x = y ^ x"), ("join", "x ^ y ^ x = x ^ y")),
    "left-handed": (("meet", "x ^ y ^ x = x ^ y"), ("join", "x ^ y ^ x = y ^ x")),
    "right-handed": (("meet", "x ^ y ^ x = y ^ x"), ("join", "x ^ y ^ x = x ^ y")),
    "lattice": (("meet", "x ^ y = y ^ x"), ("join", "x ^ y = y ^ x")),
}
# note: the join-side prune formulas above are written with '^' but applied
# to the join table; only the term *shape* matters for partial evaluation.


def _compile_term(term):
    if term[0] == "var":
        which = term[1]
        if which == "x":
            return lambda t, x, y: x
        return lambda t, x, y: y
    fl = _compile_term(term[1])
    fr = _compile_term(term[2])

    def ev(t, x, y):
        a = fl(t, x, y)
        if a < 0:
            return -1
        b = fr(t, x, y)
        if b < 0:
            return -1
        return t[a][b]

    return ev


def _compile_prune(formula_text: str):
    f = terms.parse(formula_text)
    if set(f.variables) - {"x", "y"}:
        raise ValueError("prune constraints must use only variables x, y")
    evl = _compile_term(f.conclusion[0])
    evr = _compile_term(f.conclusion[1])

    def check(t, n, i, j) -> bool:
        # Soundness-only filter: examine pairs touching the row/column of the
        # freshly assigned cell. Missed violations are caught at emit time by
        # the full predicate check.
        for x in range(n):
            row = x == i or x == j
            for y in range(n):
                if not row and y != i and y != j:
                    continue
                a = evl(t, x, y)
                if a < 0:
                    continue
                b = evr(t, x, y)
                if b < 0:
                    continue
                if a != b:
                    return False
        return True

    return check


class _LimitReached(Exception):
    pass


class _BudgetExhausted(Exception):
    def __init__(self, path):
        self.path = path


def _triple_ok(t, x, y, z) -> bool:
    xy = t[x][y]
    if xy < 0:
        return True
    yz = t[y][z]
    if yz < 0:
        return True
    l = t[xy][z]
    if l < 0:
        return True
    r = t[x][yz]
    return r < 0 or l == r


def _relabelings(n, cells):
    """Every non-identity permutation of range(n), in two flat byte strings.

    For the q-th permutation p, values[q*n + v] is p[v], and
    sources[q*m + k] (m = len(cells)) is the position in `cells` of the cell
    that p carries onto cells[k]: the relabeled table reads p[t[c]] at
    cells[k], where c is that source cell."""
    index = {c: k for k, c in enumerate(cells)}
    values = bytearray()
    sources = bytearray()
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        pinv = [0] * n
        for i, v in enumerate(perm):
            pinv[v] = i
        values.extend(perm)
        sources.extend(index[(pinv[a], pinv[b])] for a, b in cells)
    return bytes(values), bytes(sources)


class _Enumerator:
    def __init__(self, spec: SearchSpec, resume=None, collect_all=False, first_values=None):
        self.spec = spec
        self.n = spec.n
        self.result = EnumerationResult()
        self.resume = list(resume) if resume else None
        self.collect_all = collect_all
        self.deadline = time.monotonic() + spec.max_seconds if spec.max_seconds else None
        self.satisfy = [(name, resolve_predicate(name)) for name in spec.satisfy]
        self.falsify = [(name, resolve_predicate(name)) for name in spec.falsify]
        self.meet_prunes = []
        self.join_prunes = []
        for name in spec.satisfy:
            for which, text in _PRUNE_HINTS.get(name, ()):
                (self.meet_prunes if which == "meet" else self.join_prunes).append(
                    _compile_prune(text)
                )
        n = self.n
        self.meet = [[-1] * n for _ in range(n)]
        self.join = [[-1] * n for _ in range(n)]
        self.mcells = [(i, j) for i in range(n) for j in range(n) if i != j]
        self.perm_values, self.perm_sources = _relabelings(n, self.mcells)
        self.path = []
        # restriction on the first decision cell; used to split the tree
        # into disjoint subtrees for parallel workers
        self.first_values = None if first_values is None else set(first_values)

    # -- bookkeeping

    def _tick(self, next_value):
        self.result.nodes += 1
        over_nodes = self.spec.max_nodes and self.result.nodes > self.spec.max_nodes
        over_time = self.deadline and time.monotonic() > self.deadline
        if over_nodes or over_time:
            raise _BudgetExhausted(tuple(self.path + [next_value]))

    @staticmethod
    def _consume_resume(resume, value):
        """(skip, remaining-suffix) for a candidate at the current level.

        `resume` is the still-unconsumed suffix of the checkpoint path; it
        only constrains the branch while we follow that path exactly."""
        if not resume:
            return False, None
        want = resume[0]
        if value < want:
            return True, None
        if value == want:
            return False, resume[1:] if len(resume) > 1 else None
        return False, None

    # -- meet stage

    def run(self):
        # every relabeling starts tied with the empty prefix, compared at 0
        chain = None
        for q in range(len(self.perm_values) // self.n):
            chain = (q, 0, chain)
        wake = [chain] + [None] * (len(self.mcells) - 1)
        try:
            self._meet_dfs(0, self.resume, wake)
        except _BudgetExhausted as stop:
            self.result.exhausted = False
            self.result.checkpoint = stop.path
        except _LimitReached:
            self.result.exhausted = False
        return self.result

    def _check_meet_assign(self, i, j):
        t = self.meet
        n = self.n
        for a in range(n):
            if not _triple_ok(t, i, j, a) or not _triple_ok(t, a, i, j):
                return False
        # new cell (i,j) as outer-left product: pairs with product i, z = j
        for x, y in self.occ[i]:
            if not _triple_ok(t, x, y, j):
                return False
        # new cell (i,j) as outer-right product: pairs with product j, x = i
        for x, y in self.occ[j]:
            if not _triple_ok(t, i, x, y):
                return False
        for p in self.meet_prunes:
            if not p(t, n, i, j):
                return False
        return True

    def _lex_leader(self, depth, wake):
        """Advance the relabelings waiting on position `depth` of the meet
        prefix, now that it is decided. Returns the wake lists for the
        children, or None when a relabeling reads strictly smaller, which
        cuts the node.

        During the meet stage the decision path is the meet prefix in
        `mcells` order. A relabeling tied with the prefix before position f
        is next compared at f, which needs both f and its source position
        decided, so it waits in wake[max(f, source)]: a chain of (q, f, rest)
        tuples that sibling nodes share. One that reads larger, or is tied on
        the whole table, can never give a smaller table and is dropped for
        the subtree."""
        vals = self.path
        values, sources = self.perm_values, self.perm_sources
        n, m = self.n, len(self.mcells)
        later = wake.copy()
        chain = wake[depth]
        while chain is not None:
            q, f, chain = chain
            base_v, base_s = q * n, q * m
            while f < m:
                s = sources[base_s + f]
                d = s if s > f else f
                if d > depth:
                    later[d] = (q, f, later[d])
                    break
                diff = values[base_v + vals[s]] - vals[f]
                if diff:
                    if diff < 0:
                        return None
                    break
                f += 1
        return later

    def _meet_dfs(self, depth, resume, wake):
        if depth == 0:
            n = self.n
            self.occ = [[] for _ in range(n)]
            for x in range(n):
                self.meet[x][x] = x
                self.occ[x].append((x, x))
        if depth == len(self.mcells):
            self._join_stage(resume)
            return
        i, j = self.mcells[depth]
        for v in range(self.n):
            if depth == 0 and self.first_values is not None and v not in self.first_values:
                continue
            skip, sub = self._consume_resume(resume, v)
            if skip:
                continue
            self._tick(v)
            self.meet[i][j] = v
            self.occ[v].append((i, j))
            self.path.append(v)
            try:
                if self._check_meet_assign(i, j):
                    later = self._lex_leader(depth, wake)
                    if later is not None:
                        self._meet_dfs(depth + 1, sub, later)
            finally:
                self.path.pop()
                self.occ[v].pop()
                self.meet[i][j] = -1

    # -- join stage

    def _join_candidates(self):
        n = self.n
        m = self.meet
        cand = {}
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                opts = []
                for v in range(n):
                    if m[x][v] != x or m[v][y] != y:
                        continue
                    if v == x and m[x][y] != y:
                        continue
                    if v == y and m[x][y] != x:
                        continue
                    opts.append(v)
                if m[x][y] == x:
                    opts = [y] if y in opts else []
                elif m[x][y] == y:
                    opts = [x] if x in opts else []
                cand[(x, y)] = opts
        # absorption on the join side forces join[x][x^y] = x, join[x^y][y] = y
        for x in range(n):
            for y in range(n):
                t = m[x][y]
                for cell, forced in (((x, t), x), ((t, y), y)):
                    a, b = cell
                    if a == b:
                        if forced != a:
                            return None
                        continue
                    if forced not in cand[cell]:
                        return None
                    cand[cell] = [forced]
        return cand

    def _check_join_assign(self, i, j):
        t = self.join
        n = self.n
        for a in range(n):
            if not _triple_ok(t, i, j, a) or not _triple_ok(t, a, i, j):
                return False
        for x, y in self.jocc[i]:
            if not _triple_ok(t, x, y, j):
                return False
        for x, y in self.jocc[j]:
            if not _triple_ok(t, i, x, y):
                return False
        for p in self.join_prunes:
            if not p(t, n, i, j):
                return False
        return True

    def _join_stage(self, resume):
        cand = self._join_candidates()
        if cand is None:
            return
        n = self.n
        self.jocc = [[] for _ in range(n)]
        self.join = [[-1] * n for _ in range(n)]
        for x in range(n):
            self.join[x][x] = x
            self.jocc[x].append((x, x))
        jcells = self.mcells

        def dfs(depth, resume):
            if depth == len(jcells):
                self._emit()
                return
            i, j = jcells[depth]
            for v in cand[(i, j)]:
                skip, sub = self._consume_resume(resume, v)
                if skip:
                    continue
                self._tick(v)
                self.join[i][j] = v
                self.jocc[v].append((i, j))
                self.path.append(v)
                try:
                    if self._check_join_assign(i, j):
                        dfs(depth + 1, sub)
                finally:
                    self.path.pop()
                    self.jocc[v].pop()
                    self.join[i][j] = -1

        dfs(0, resume)

    # -- leaf handling

    def _emit(self):
        pair = CayleyPair.from_tables(self.meet, self.join)
        if axiom_violations(pair):
            return  # partial constraints admit no false positives; belt & braces
        if not is_canonical(pair):
            return
        S = validate(pair)
        if not all(pred(S) for _, pred in self.satisfy):
            return
        if self.falsify and all(pred(S) for _, pred in self.falsify):
            return
        self.result.count_up_to_iso += 1
        if not self.spec.limit or len(self.result.witnesses) < self.spec.limit:
            self.result.witnesses.append(S)
        if self.spec.limit and self.result.count_up_to_iso >= self.spec.limit and not self.collect_all:
            raise _LimitReached


def _enumerate_subtree(args):
    spec, values = args
    return _Enumerator(spec, first_values=values).run()


def enumerate_skew_lattices(spec: SearchSpec, resume=None, jobs: int = 1) -> EnumerationResult:
    """Enumerate all skew lattices of order spec.n up to isomorphism that
    pass the satisfy filters (and, if falsify is nonempty, violate at least
    one falsify entry). Deterministic output order.

    With jobs > 1 the tree is split on the first decision cell and the
    disjoint subtrees run in worker processes; results merge in subtree
    order, so the output is identical to a sequential run. Budgeted,
    limited, or resumed runs are inherently sequential."""
    parallel_ok = jobs > 1 and spec.n >= 2 and not (
        spec.limit or spec.max_nodes or spec.max_seconds or resume
    )
    if not parallel_ok:
        return _Enumerator(spec, resume=resume).run()
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(spec, (v,)) for v in range(spec.n)]
    with ProcessPoolExecutor(max_workers=min(jobs, spec.n)) as ex:
        parts = list(ex.map(_enumerate_subtree, tasks))
    merged = EnumerationResult()
    for part in parts:
        merged.count_up_to_iso += part.count_up_to_iso
        merged.witnesses.extend(part.witnesses)
        merged.nodes += part.nodes
        merged.exhausted = merged.exhausted and part.exhausted
    return merged


def find_counterexample(spec: SearchSpec) -> CounterexampleResult:
    """First witness over sizes 1..spec.n, or certified absence when the
    search space was exhausted."""
    nodes = 0
    for n in range(1, spec.n + 1):
        sub = SearchSpec(
            n=n,
            satisfy=spec.satisfy,
            falsify=spec.falsify,
            limit=1,
            max_nodes=spec.max_nodes,
            max_seconds=spec.max_seconds,
        )
        res = enumerate_skew_lattices(sub)
        nodes += res.nodes
        if res.witnesses:
            return CounterexampleResult(res.witnesses[0], n, False, nodes)
        if not res.exhausted:
            return CounterexampleResult(None, n, False, nodes)
    return CounterexampleResult(None, spec.n, True, nodes)


@lru_cache(maxsize=None)
def census(n: int) -> tuple:
    """All skew lattices of order exactly n, up to isomorphism (cached)."""
    return tuple(enumerate_skew_lattices(SearchSpec(n=n)).witnesses)


def census_up_to(max_n: int):
    for n in range(1, max_n + 1):
        yield from census(n)


# --- checkpoint files --------------------------------------------------------
#
# Plain text: line 1 the spec hash, line 2 the decision path (space separated).


def save_checkpoint(spec: SearchSpec, path_vector, fh_or_path) -> None:
    text = spec_hash(spec) + "\n" + " ".join(str(v) for v in path_vector) + "\n"
    if hasattr(fh_or_path, "write"):
        fh_or_path.write(text)
    else:
        with open(fh_or_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_checkpoint(spec: SearchSpec, fh_or_path):
    if hasattr(fh_or_path, "read"):
        text = fh_or_path.read()
    else:
        with open(fh_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != spec_hash(spec):
        raise ValueError("checkpoint does not match the search spec")
    if len(lines) < 2 or not lines[1].strip():
        return tuple()
    return tuple(int(tok) for tok in lines[1].split())
