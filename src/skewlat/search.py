"""Bounded enumeration of skew lattices up to isomorphism, with filters,
counterexample search, node/time budgets and resumable checkpoints.

One depth-first search decides the 2·n·(n−1) off-diagonal cells, and its
decision path is the checkpoint. The meet table comes first, cell by cell;
each assignment is checked, in one inline loop, against the associativity
triples it completes. Once the meet table is complete, the dualities and
absorption laws pin or narrow the join cells, which follow in the same
order; their candidates come from two sets per element, built once.
Isomorphism rejection keeps exactly the lex-least representative of each
class (`core.canonical_labeling`). Since that representative's meet table
is the least of its relabelings, a node is cut as soon as some relabeling
makes the decided prefix of the meet table strictly smaller; each leaf is
then checked with `is_canonical`, which compares only the relabelings that
give label 0 to an element x0 with the most y such that x0 ^ y = x0.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import terms, varieties, ybe
from .core import CayleyPair, SkewLattice, canonical_labeling, validate
from .core import axiom_violations  # noqa: F401  bench/spans.py traces it through this module


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


def is_canonical(pair: CayleyPair) -> bool:
    """True iff the pair is the lex-least labeling of its isomorphism class."""
    return canonical_labeling(pair)[0] == pair.flat()


def canonical_form(pair: CayleyPair) -> CayleyPair:
    """The lex-least labeling of the pair's isomorphism class."""
    flat, n = canonical_labeling(pair)[0], pair.n
    rows = tuple(flat[k : k + n] for k in range(0, 2 * n * n, n))
    return CayleyPair(n, rows[:n], rows[n:])


# --- named predicates --------------------------------------------------------

def _formulas(name: str):
    """The formulas whose conjunction a predicate name means: a variety
    flag, a bundled formula name or a raw formula. None for other names."""
    lib = terms.library()
    if name in varieties.FLAGS:
        return tuple(lib[k] for k in varieties.FLAGS[name])
    if name in lib:
        return (lib[name],)
    if "=" in name:
        return (terms.parse(name),)
    return None


def resolve_predicate(name: str):
    """Map a satisfy/falsify entry to a boolean predicate on SkewLattice.

    Accepts variety flag names, `<map kind>-solution` names (the kind with
    hyphens, such as lower-update-solution), bundled formula names, or a raw
    formula in the term grammar.
    """
    for kind in ybe.MAP_KINDS:
        if name == kind.replace("_", "-") + "-solution":
            return lambda S: ybe.braid_check(ybe.build_map(S, kind)) is None
    if name in varieties.FLAGS:
        return lambda S: varieties.check(S, name) is True
    formulas = _formulas(name)
    if formulas is None:
        raise ValueError(f"unknown predicate {name!r}")
    return lambda S: all(terms.holds(S, f) is True for f in formulas)


def _reads_join(term) -> bool:
    return term[0] == "join" or (term[0] == "meet" and (_reads_join(term[1]) or _reads_join(term[2])))


def _prunes(names):
    """(meet-stage, join-stage) prunes: the compiled sides of every identity
    in two variables among the satisfy entries' formulas, by whether it reads
    join. (One in one variable holds in every idempotent algebra.)"""
    meet, join = [], []
    for name in names:
        for f in _formulas(name) or ():
            if f.is_identity and len(f.variables) == 2:
                stage = join if any(_reads_join(t) for t in f.conclusion) else meet
                stage.append(terms.compile_formula(f))
    return meet, join


class _LimitReached(Exception):
    pass


class _BudgetExhausted(Exception):
    def __init__(self, path):
        self.path = path


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
    def __init__(self, spec: SearchSpec, resume=None):
        self.spec = spec
        self.n = spec.n
        self.result = EnumerationResult()
        self.resume = list(resume) if resume else None
        self.deadline = time.monotonic() + spec.max_seconds if spec.max_seconds else None
        self.satisfy = [(name, resolve_predicate(name)) for name in spec.satisfy]
        self.falsify = [(name, resolve_predicate(name)) for name in spec.falsify]
        self.meet_prunes, self.join_prunes = _prunes(spec.satisfy)
        n = self.n
        # a last row and column of -1 pad each table, so index -1 reads
        # "unknown" (see terms); the prunes evaluate on these partial tables.
        # occ[v] and jocc[v] list the cells of meet and join that hold v.
        self.meet = [[-1] * (n + 1) for _ in range(n + 1)]
        self.join = [[-1] * (n + 1) for _ in range(n + 1)]
        self.occ = [[(x, x)] for x in range(n)]
        self.jocc = [[(x, x)] for x in range(n)]
        for x in range(n):
            self.meet[x][x] = self.join[x][x] = x
        self.mcells = [(i, j) for i in range(n) for j in range(n) if i != j]
        # the pairs a prune re-checks after cell (i, j) is assigned
        self.touching = {
            (i, j): [(x, y) for x in range(n) for y in range(n) if {x, y} & {i, j}]
            for i, j in self.mcells
        }
        self.perm_values, self.perm_sources = _relabelings(n, self.mcells)
        self.path = []
        self.cand = None  # the join cells' candidates, set when the meet table is complete

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

    # -- the search

    def run(self):
        # every relabeling starts tied with the empty prefix, compared at 0
        chain = None
        for q in range(len(self.perm_values) // self.n):
            chain = (q, 0, chain)
        wake = [chain] + [None] * (len(self.mcells) - 1)
        try:
            self._dfs(0, self.resume, wake)
        except _BudgetExhausted as stop:
            self.result.exhausted = False
            self.result.checkpoint = stop.path
        except _LimitReached:
            self.result.exhausted = False
        return self.result

    def _check_assign(self, t, occ, prunes, i, j):
        """Associativity and the current stage's satisfy prunes after
        t[i][j] is assigned; occ[v] lists the cells of t that hold v.

        The triples checked are (i, j, a) and (a, i, j) for every a, then
        (x, y, j) for each cell (x, y) holding i and (i, x, y) for each cell
        holding j, in one inline loop over hoisted rows. A triple is skipped
        while either side reads unknown: the -1 padding makes any product
        with an unknown factor read -1 too."""
        ti, tj = t[i], t[j]
        v = ti[j]
        tv = t[v]
        for a in range(self.n):
            ta = t[a]
            l, r = tv[a], ti[tj[a]]
            if l != r and l >= 0 and r >= 0:
                return False
            l, r = t[ta[i]][j], ta[v]
            if l != r and l >= 0 and r >= 0:
                return False
        # new cell (i,j) as outer-left product: pairs with product i, z = j
        for x, y in occ[i]:
            r = t[x][t[y][j]]
            if r != v and r >= 0:
                return False
        # new cell (i,j) as outer-right product: pairs with product j, x = i
        for x, y in occ[j]:
            l = t[ti[x]][y]
            if l != v and l >= 0:
                return False
        # a violation needs both sides known; missed ones fail at the leaf
        m, jt = self.meet, self.join
        for sides in prunes:
            for x, y in self.touching[i, j]:
                lhs, rhs = sides(m, jt, x, y)
                if lhs != rhs and lhs >= 0 and rhs >= 0:
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
        the subtree. Join cells are not compared: a relabeling tied on the
        whole meet table (an automorphism of the meet band) is dropped too,
        and `is_canonical` rejects at the leaf what it would undercut."""
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

    def _dfs(self, depth, resume, wake):
        """Decide cell `depth` of the 2·n·(n−1) decision cells: the meet
        cells in `mcells` order, then the join cells in the same order.
        `wake` is `_lex_leader`'s state, advanced on meet cells only."""
        m = len(self.mcells)
        if depth == m:
            self.cand = self._join_candidates()
            if self.cand is None:
                return
        if depth == 2 * m:
            self._emit()
            return
        if depth < m:
            i, j = self.mcells[depth]
            table, occ, prunes = self.meet, self.occ, self.meet_prunes
            values = range(self.n)
        else:
            i, j = self.mcells[depth - m]
            table, occ, prunes = self.join, self.jocc, self.join_prunes
            values = self.cand[i, j]
        for v in values:
            skip, sub = self._consume_resume(resume, v)
            if skip:
                continue
            self._tick(v)
            table[i][j] = v
            occ[v].append((i, j))
            self.path.append(v)
            try:
                if self._check_assign(table, occ, prunes, i, j):
                    later = self._lex_leader(depth, wake) if depth < m else wake
                    if later is not None:
                        self._dfs(depth + 1, sub, later)
            finally:
                self.path.pop()
                occ[v].pop()
                table[i][j] = -1

    def _join_candidates(self):
        """Each join cell's candidate values once the meet table is complete,
        or None when absorption leaves some cell none. Off the cells the
        dualities pin (x ^ y = x gives y, x ^ y = y gives x), x v y is some
        v other than x and y with x ^ v = x and v ^ y = y."""
        n = self.n
        m = self.meet
        # xv[x] holds the v with x ^ v = x, vy[y] the v with v ^ y = y
        xv = [{v for v in range(n) if m[x][v] == x} for x in range(n)]
        vy = [{v for v in range(n) if m[v][y] == y} for y in range(n)]
        cand = {}
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                if m[x][y] == x:
                    cand[x, y] = [y]
                elif m[x][y] == y:
                    cand[x, y] = [x]
                else:
                    cand[x, y] = sorted((xv[x] & vy[y]) - {x, y})
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

    # -- leaf handling

    def _emit(self):
        n = self.n
        pair = CayleyPair.from_tables([r[:n] for r in self.meet[:n]], [r[:n] for r in self.join[:n]])
        if not is_canonical(pair):
            return
        S = validate(pair)
        if not all(pred(S) for _, pred in self.satisfy):
            return
        if self.falsify and all(pred(S) for _, pred in self.falsify):
            return
        self.result.count_up_to_iso += 1
        self.result.witnesses.append(S)
        if self.spec.limit and self.result.count_up_to_iso >= self.spec.limit:
            raise _LimitReached


def enumerate_skew_lattices(spec: SearchSpec, resume=None) -> EnumerationResult:
    """Enumerate all skew lattices of order spec.n up to isomorphism that
    pass the satisfy filters (and, if falsify is nonempty, violate at least
    one falsify entry). Deterministic output order."""
    return _Enumerator(spec, resume=resume).run()


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


# --- checkpoint files --------------------------------------------------------
#
# Plain text: line 1 the format version, line 2 the spec hash, line 3 the
# decision path (space separated).

CHECKPOINT_HEADER = "skewlat checkpoint v1"


def save_checkpoint(spec: SearchSpec, path_vector, path) -> None:
    """Write a checkpoint file atomically: the text goes to a temporary file
    in the same directory, which then takes its name."""
    text = f"{CHECKPOINT_HEADER}\n{spec_hash(spec)}\n{' '.join(str(v) for v in path_vector)}\n"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(spec: SearchSpec, path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().splitlines()] + ["", ""]  # a missing line reads ""
    if lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"not a checkpoint file: the first line is not {CHECKPOINT_HEADER!r}")
    if lines[1] != spec_hash(spec):
        raise ValueError("checkpoint does not match the search spec")
    path = tuple(int(tok) for tok in lines[2].split())
    # one value in 0..n-1 per decision cell: the meet cells, then the join cells
    n, cells = spec.n, 2 * spec.n * (spec.n - 1)
    if len(path) > cells or any(not 0 <= v < n for v in path):
        raise ValueError(f"checkpoint path is not at most {cells} values in 0..{n - 1}")
    return path
