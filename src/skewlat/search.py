"""Bounded enumeration of skew lattices up to isomorphism, with filters,
counterexample search, node/time budgets and resumable checkpoints.

Budgets cover the whole call, across all sizes in `find_counterexample`. A
budgeted run stops before the node that would exceed it, which ends the
checkpoint path; a run and its resumes count each node once. Only a run
with `max_nodes` or `max_seconds` checks its budget at each node
(`_tick`); an unbudgeted one counts its nodes in the DFS loop.

One depth-first search decides the decision cells, and its decision path
is the checkpoint. The n·(n−1) off-diagonal meet cells come first, cell by
cell. Right after writing a cell, the DFS loop reads the band laws
(i, j, j) and (i, i, j) on its table: those two reads reject 34 % of the
nodes at n = 5 and 42 % at n = 7. An assignment that passes them is
checked, in one inline loop (`_check_assign`), against the other
associativity triples it completes, and only one that passes that too
enters the search's bookkeeping. A meet assignment is also cut when some
decided x ^ y outside {x, y} is left with no possible join: no u with
x ^ u in {x, unknown} and u ^ y in {y, unknown} (`_joins_possible`).
Once the meet table is complete, the dualities and absorption laws pin or
narrow the join cells; their candidates come from two sets per element,
built once. Every join cell with one candidate is written at once, and is
no node; one early-exit pass then checks associativity on each triple of
known join cells and the join-stage prunes on each pair, and a meet table
that fails it is cut there. Only the open join cells, those with two
candidates or more, are decision cells; they follow in `mcells` order,
through the same check as the meet cells.

The satisfy entries' identities in two variables prune partial tables,
each once however many entries name it. Split by whether they read join,
each stage's identities are one compiled function (`terms.compile_prune`)
that loops over a list of pairs and fails at the first where some
identity's two sides are both known and differ. An assignment hands it the
pairs that touch its cell, in one call; the join pass hands it every pair,
a list built once by a search that has prunes. At a canonical leaf, the
entries of each side that name formulas on S (the flags but
quasi_distributive, bundled names and raw formulas) are decided in one
`terms.holds_each` pass over their formulas, each once; a `*-solution`
entry and quasi_distributive, decided on S/D, stay one predicate each. A
leaf is kept when every satisfy entry holds and, with falsify entries,
one of them fails. A leaf's pair is built straight from the search's
tables, which hold only elements, without `CayleyPair.from_tables`' scan
of outside input; `validate` still checks every axiom on each canonical
leaf.

Isomorphism rejection keeps exactly the lex-least representative of each
class (`core.canonical_form`). Since that representative's meet table
is the least of its relabelings, a node is cut as soon as some relabeling
makes the decided prefix of the meet table strictly smaller. The
relabelings that fix 0 are compared cell by cell; those that give x != 0
label 0 wait for meet row x, where one count, of the x in that row against
the 0 in row 0, cuts the node, drops them all, or lets in only those the
label-0 rule of the least table allows (`core.label_zero_class`). Those
that give x label 0 come from `core.relabelings`, the enumeration that
`canonical_form` runs too; a search builds them once, when it first
needs them, so before its first node only those that fix 0. By a leaf,
every other relabeling reads larger somewhere in the meet table, except
the automorphisms of the meet table, which the lex-leader keeps; the leaf
is then checked with `is_canonical(pair, meet_automorphisms)`, which
compares only the join table and only under those. A meet table with no
open join cell has one join, which its automorphisms must fix, so its leaf
is handed none and is canonical. `is_canonical` and `canonical_form` live
in `core`, and both compare relabeled tables through one routine; this
module imports `is_canonical` by name.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import terms, varieties, ybe
from .core import CayleyPair, SkewLattice, inverse, is_canonical, label_zero_class, relabelings, validate
from .core import axiom_violations  # noqa: F401  bench/spans.py traces it through this module


# The largest order a search accepts. A search builds each relabeling when it
# first needs it, as n² bytes: before its first node only the (n−1)! that fix
# 0, which take 0.10–0.17 s at n = 9. Measured on 2 shared CPUs, Python 3.11,
# peak RSS of a fresh process: n = 8 exhausts in one process, 1,971 classes
# in 32 s at 41.5 MB; a 5-s n = 9 search reaches 20,000–23,000 nodes and
# 58 MB, and a process that holds all 9! relabelings and nothing else
# 63.6 MB. A cell index stops fitting a byte at n = 17.
MAX_N = 9


@dataclass(frozen=True)
class SearchSpec:
    n: int
    satisfy: tuple = ()
    falsify: tuple = ()
    limit: int = 0  # max witnesses kept; 0 = unlimited
    max_nodes: int = 0  # search-node budget; 0 = unbounded
    max_seconds: float = 0.0  # wall-clock cap; 0 = unbounded

    def __post_init__(self):
        for name in (*self.satisfy, *self.falsify):
            resolve_predicate(name)  # an unknown name raises ValueError
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}")
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
    """The checkpoint file's line 2: the first 16 hex digits of the sha256 of
    the spec's order and filters. hashlib is imported here, not at the top,
    because it loads OpenSSL, 3.6 MB of resident memory that only a run
    that reads or writes a checkpoint uses."""
    import hashlib

    text = f"{spec.n}|{list(spec.satisfy)}|{list(spec.falsify)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- named predicates --------------------------------------------------------

_SOLUTIONS = {kind.replace("_", "-") + "-solution": kind for kind in ybe.MAP_KINDS}


def _formulas(name: str):
    """The formulas on S whose conjunction a predicate name means: those a
    variety flag names, a bundled formula name or a raw formula. None for
    other names, and for quasi_distributive, which names none since it is
    decided on S/D."""
    lib = terms.library()
    if name in varieties.FLAGS:
        return tuple(lib[k] for k in varieties.FLAGS[name]) or None
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
    kind = _SOLUTIONS.get(name)
    if kind is not None:
        return lambda S: ybe.braid_check(ybe.build_map(S, kind)) is None
    if name in varieties.FLAGS:
        return lambda S: varieties.check(S, name) is True
    formulas = _formulas(name)
    if formulas is None:
        raise ValueError(f"unknown predicate {name!r}")
    return lambda S: all(terms.holds(S, f) is True for f in formulas)


def _filters(names) -> tuple:
    """The entries `names` as (the formulas on S they name, each once; the
    predicates of the other entries): every entry holds exactly when every
    one of those formulas and predicates does."""
    formulas, predicates = {}, []
    for name in names:
        found = _formulas(name)
        if found is None:
            predicates.append(resolve_predicate(name))
        else:
            formulas.update(dict.fromkeys(found))
    return tuple(formulas), predicates


def _all_hold(S: SkewLattice, formulas: tuple, predicates: list) -> bool:
    """Every formula and every predicate holds on S: the formulas decided
    in one pass."""
    if formulas and not all(found is True for found in terms.holds_each(S, formulas)):
        return False
    return all(pred(S) for pred in predicates)


def _reads_join(term) -> bool:
    return term[0] == "join" or (term[0] == "meet" and (_reads_join(term[1]) or _reads_join(term[2])))


def _prunes(names) -> tuple:
    """(meet-stage, join-stage) prunes: one compiled check each of the
    identities in two variables among the satisfy entries' formulas, each
    once, by whether it reads join; None for a stage with none. (One in one
    variable holds in every idempotent algebra.)"""
    stages = ({}, {})
    for name in names:
        for f in _formulas(name) or ():
            if f.is_identity and len(f.variables) == 2:
                stages[any(_reads_join(t) for t in f.conclusion)][f] = None
    return tuple(terms.compile_prune(tuple(stage)) if stage else None for stage in stages)


class _BudgetExhausted(Exception):
    """A budget ran out (path: the checkpoint) or the witness limit was hit (None)."""

    def __init__(self, path):
        self.path = path


def _has_join(t, n, x, y):
    """Some u with t[x][u] in {x, -1} and t[u][y] in {y, -1}: a possible x v y."""
    tx = t[x]
    for u in range(n):
        a = tx[u]
        if a == x or a < 0:
            b = t[u][y]
            if b == y or b < 0:
                return True
    return False


class _Enumerator:
    def __init__(self, spec: SearchSpec, resume=None):
        self.spec = spec
        self.n = spec.n
        self.result = EnumerationResult()
        self.resume = tuple(resume or ())
        self.deadline = time.monotonic() + spec.max_seconds if spec.max_seconds else None
        self.satisfy, self.falsify = _filters(spec.satisfy), _filters(spec.falsify)
        self.meet_prune, self.join_prune = _prunes(spec.satisfy)
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
        # the pairs a prune re-checks after cell (i, j) is assigned, and
        # every pair, which the join stage's prune checks at once; built
        # only for a search with prunes
        pairs = [(x, y) for x in range(n) for y in range(n)] if self.meet_prune or self.join_prune else []
        self.touching = {(i, j): [(x, y) for x, y in pairs if {x, y} & {i, j}] for i, j in self.mcells}
        self.pairs = pairs
        # by x, the relabelings that give x label 0 (`_block`); by head, the
        # ones of them the search releases (`_release`), at most n·2^(n-1)
        # lists of references into the blocks
        self.blocks = {}
        self.released = {}
        self.path = []
        # the decision cells: the meet cells, then, once the meet table is
        # complete, that table's open join cells and their candidates
        self.cells, self.cand = list(self.mcells), None

    # -- bookkeeping

    def _tick(self, next_value):
        """Count the node that assigns next_value, or stop before it when
        the budget is spent; the checkpoint path then ends at that node.
        Only a budgeted run calls it: an unbudgeted one counts its nodes in
        `_dfs`."""
        over_nodes = self.spec.max_nodes and self.result.nodes >= self.spec.max_nodes
        over_time = self.deadline and time.monotonic() > self.deadline
        if over_nodes or over_time:
            raise _BudgetExhausted(tuple(self.path + [next_value]))
        self.result.nodes += 1

    # -- the search

    def run(self):
        # every relabeling that fixes 0 but the identity starts tied with
        # the empty prefix, compared at 0; the others wait for their rows
        # (see `_lex_leader`); the last slot collects the automorphisms of
        # the meet table
        chain = None
        for rel in self._block(0)[1:]:
            chain = (rel, 0, chain)
        wake = [chain] + [None] * len(self.mcells)
        try:
            self._dfs(0, bool(self.resume), wake)
        except _BudgetExhausted as stop:
            self.result.exhausted = False
            self.result.checkpoint = stop.path
        return self.result

    def _block(self, x):
        """The relabelings that give x label 0, in `core.relabelings` order,
        built at the first call for x. A relabeling p is one bytes object:
        for each meet cell, in `mcells` order, the position of its source
        cell, the one p carries onto it (the relabeled table reads p[t[c]]
        there, c that source cell), then p[v] for each element v. Cell
        (i, j) is at position i·(n−1) + j − (j > i).

        The positions come from a table built once per block, row a a
        `bytes.translate` table that holds the position of (a, b) at b, and
        255, which no meet cell has, at a. With pinv the inverse of p, row a
        of the relabeled table has its sources in row pinv[a], at the columns
        pinv[b]: that row of the table, translating pinv, gives them in one
        call, and dropping the 255s leaves the meet cells."""
        block = self.blocks.get(x)
        if block is None:
            n = self.n
            pos = [bytes([a * (n - 1) + b - (b > a) if b != a else 255 for b in range(n)]).ljust(256, b"\0") for a in range(n)]
            block = self.blocks[x] = []
            for pinv in relabelings(n, (x,)):
                cols = bytes(pinv)
                sources = b"".join([cols.translate(pos[a]) for a in pinv]).replace(b"\xff", b"")
                block.append(sources + bytes(inverse(pinv)))
        return block

    def _release(self, head):
        """The relabelings of head[0]'s block that label every element of
        `head` below len(head), kept for the search."""
        released = self.released.get(head)
        if released is None:
            k, m = len(head), len(self.mcells)
            released = self.released[head] = [rel for rel in self._block(head[0]) if all(rel[m + y] < k for y in head)]
        return released

    def _check_assign(self, t, occ, prune, i, j):
        """Associativity and the current stage's satisfy prune after
        t[i][j] is assigned; occ[v] lists the cells of t that hold v.
        `_dfs` calls it only for a value that passes the band laws
        (i, j, j) and (i, i, j), which it reads itself.

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
        if t is self.meet and not self._joins_possible(i, j):
            return False
        # a violation needs both sides known; missed ones fail at the leaf
        return prune is None or prune(self.meet, self.join, self.touching[i, j])

    def _joins_possible(self, i, j):
        """False when, after meet cell (i, j) is decided, some decided cell
        x ^ y outside {x, y} has no possible join left.

        In a skew lattice, x ^ y = x iff x v y = y and x ^ y = y iff
        x v y = x, and absorption gives x ^ (x v y) = x = (x v y) ^ y. So
        when x ^ y is neither x nor y, x v y is some u with x ^ u in
        {x, unknown} and u ^ y in {y, unknown}; u = x and u = y never pass,
        since x ^ y is decided. Cell (i, j) only removes candidates: j from
        the pairs (i, y) unless it holds i, i from the pairs (x, j) unless
        it holds j. (i, j) itself is one of the former."""
        t, n = self.meet, self.n
        v = t[i][j]
        if v != i:
            ti = t[i]
            for y in range(n):
                w = ti[y]
                if w != i and w != y and w >= 0 and not _has_join(t, n, i, y):
                    return False
        if v != j:
            for x in range(n):
                w = t[x][j]
                if x != i and w != x and w != j and w >= 0 and not _has_join(t, n, x, j):
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
        decided, so it waits in wake[max(f, source)]: a chain of
        (rel, f, rest) tuples that sibling nodes share, rel the relabeling's
        bytes from `_block`. One that reads larger can never give a smaller
        table and is dropped for the subtree. One tied on the whole
        meet table (an automorphism of the meet band) waits in wake[m], which
        the join stage passes through unchanged; at the leaf, `_emit` hands
        those to `is_canonical`, which compares the join table under them
        alone. Join cells are not compared during the join search.

        Only the relabelings that fix 0 start in the chains. Once row 0 is
        decided its c0 = meet[0].count(0) zeros come first (a transposition
        that fixes 0 cuts any other row 0), and the relabelings that give
        x != 0 label 0 wait, unread, for meet row x, under the label-0 rule
        (`core.label_zero_class`). With c the number of x in row x: c > c0
        cuts the node at once, since some such relabeling reads 0 at cell
        (0, c0), where row 0 does not; at the end of the row, c < c0 drops
        them all, since each reads larger within row 0, and c = c0 puts in
        the chains only those that give the y with x ^ y = x the labels
        0..c0-1: tied up to cell (0, c0), they are compared from there."""
        vals = self.path
        n, m = self.n, len(self.mcells)
        chain = wake[depth]
        x, j = self.mcells[depth]
        end = j == (n - 2 if x == n - 1 else n - 1)
        if x and (vals[depth] == x or end):
            row, c0 = self.meet[x], self.meet[0].count(0)
            c = row.count(x)
            if c > c0:
                return None
            if end and c == c0:
                for rel in self._release(label_zero_class(row, x)):
                    chain = (rel, c0 - 1, chain)
        later = wake.copy()
        while chain is not None:
            rel, f, chain = chain
            while f < m:
                s = rel[f]
                d = s if s > f else f
                if d > depth:
                    later[d] = (rel, f, later[d])
                    break
                diff = rel[m + vals[s]] - vals[f]
                if diff:
                    if diff < 0:
                        return None
                    break
                f += 1
            else:
                later[m] = (rel, m, later[m])
        return later

    def _dfs(self, depth, on_path, wake):
        """Decide cell `depth` of `self.cells`: the meet cells in `mcells`
        order, then the open join cells of that meet table in the same
        order. `wake` is `_lex_leader`'s state, advanced on meet cells only;
        at the leaf, wake[m] chains the automorphisms of the meet table.

        The call at depth m, with the meet table complete, first writes the
        forced join cells (`_force_joins`), which are no nodes: a table that
        fails there dies, and one without an open cell is a leaf.

        Each value tried is a node: `_tick` counts it in a budgeted run,
        the loop itself in an unbudgeted one. The loop then reads the band
        laws on the cell; only a value that passes them goes on to
        `_check_assign`.

        While `on_path`, the node's ancestors follow the checkpoint path:
        values below its next one were searched by the run that stopped,
        which counted every node on the path but the last. The meet prefix
        of the path fixes the open cells that the rest of it is read against."""
        m = len(self.mcells)
        if depth == m and not self._force_joins():
            return
        if depth == len(self.cells):
            # a meet table without an open cell has one join (see `_emit`)
            self._emit(wake[m] if depth > m else None)
            return
        i, j = self.cells[depth]
        if depth < m:
            table, occ, prune, values = self.meet, self.occ, self.meet_prune, range(self.n)
        else:
            table, occ, prune, values = self.join, self.jocc, self.join_prune, self.cand[i, j]
        want, inner = (self.resume[depth], depth < len(self.resume) - 1) if on_path else (-1, False)
        # nothing is restored on a stop: it unwinds the whole search, and
        # `run` then discards the tables
        path, result, row = self.path, self.result, table[i]
        budgeted = self.spec.max_nodes or self.deadline
        for v in values:
            if v < want:
                continue
            counted = inner and v == want
            if not counted:
                if budgeted:
                    self._tick(v)
                else:
                    result.nodes += 1
            row[j] = v
            # the band laws (i, j, j) and (i, i, j) first: v ^ j = v = i ^ v
            l, r = table[v][j], row[v]
            if (l != v and l >= 0) or (r != v and r >= 0):
                continue
            # occ[v] need not list (i, j) during the check: that cell's
            # triples reduce to v = v
            if self._check_assign(table, occ, prune, i, j):
                occ[v].append((i, j))
                path.append(v)
                later = self._lex_leader(depth, wake) if depth < m else wake
                if later is not None:
                    self._dfs(depth + 1, counted, later)
                path.pop()
                occ[v].pop()
        row[j] = -1

    def _force_joins(self):
        """Once the meet table is complete, write every join cell that has
        one candidate, then check the join table in one pass (`_join_passes`);
        False when it fails. The other cells, the open ones, read unknown and
        follow the meet cells in `self.cells`, with their candidates in
        `self.cand`; `_joins_possible` leaves each of them two or more. Every
        join cell is rewritten here, and the meet stage never reads the join
        table, so nothing clears it when the search backs out.

        Off the cells the dualities pin (x ^ y = x gives y, x ^ y = y gives
        x), x v y is some v other than x and y with x ^ v = x and v ^ y = y;
        `_joins_possible` has made sure there is one. Absorption on the join
        side (x v (x ^ y) = x, (x ^ y) v y = y) needs no check: in a band
        x ^ (x ^ y) = x ^ y = (x ^ y) ^ y, so the dualities pin those cells
        to exactly those values."""
        n, m, join, jocc = self.n, self.meet, self.join, self.jocc
        # xv[x] holds the v with x ^ v = x, vy[y] the v with v ^ y = y
        xv = [{v for v in range(n) if m[x][v] == x} for x in range(n)]
        vy = [{v for v in range(n) if m[v][y] == y} for y in range(n)]
        cells, cand = self.cells, {}
        del cells[len(self.mcells) :]
        for occ in jocc:
            del occ[1:]
        for x, y in self.mcells:
            w = m[x][y]
            if w == x:
                v = y
            elif w == y:
                v = x
            else:
                c = (xv[x] & vy[y]) - {x, y}
                if len(c) != 1:
                    cells.append((x, y))
                    cand[x, y] = sorted(c)
                    join[x][y] = -1
                    continue
                (v,) = c
            join[x][y] = v
            jocc[v].append((x, y))
        self.cand = cand
        return self._join_passes()

    def _join_passes(self):
        """The checks `_check_assign` makes cell by cell, made once over the
        join table: associativity on every triple whose cells are all known,
        then the join-stage satisfy prune on every pair. Early exit."""
        t, n = self.join, self.n
        for x in range(n):
            tx = t[x]
            for y in range(n):
                ty, txy = t[y], t[tx[y]]
                for z in range(n):
                    l, r = txy[z], tx[ty[z]]
                    if l != r and l >= 0 and r >= 0:
                        return False
        return self.join_prune is None or self.join_prune(self.meet, t, self.pairs)

    # -- leaf handling

    def _emit(self, automorphisms):
        """Keep the leaf if it is canonical and passes the filters;
        `automorphisms` chains the meet table's automorphisms, or is None
        when the meet table left no open join cell. The leaf's pair is the
        search's own tables as tuples: they hold only elements, so
        `CayleyPair.from_tables`' scan of outside input is not needed, and
        `validate` checks every axiom on a canonical leaf.

        Such a table has one join, and no automorphism is compared: an
        automorphism g of the meet table carries the join J to g(J), also a
        join of that meet table, so each cell of g(J) is a candidate too, and
        g(J) = J."""
        n = self.n
        meet, join = (tuple([tuple(r[:n]) for r in t[:n]]) for t in (self.meet, self.join))
        pair = CayleyPair(n, meet, join)
        perms = []
        while automorphisms is not None:
            rel, _, automorphisms = automorphisms
            perms.append(rel[-n:])
        if not is_canonical(pair, perms):
            return
        S = validate(pair)
        if not _all_hold(S, *self.satisfy):
            return
        if self.spec.falsify and _all_hold(S, *self.falsify):
            return
        self.result.count_up_to_iso += 1
        self.result.witnesses.append(S)
        if self.spec.limit and self.result.count_up_to_iso >= self.spec.limit:
            raise _BudgetExhausted(None)

def enumerate_skew_lattices(spec: SearchSpec, resume=None) -> EnumerationResult:
    """Enumerate all skew lattices of order spec.n up to isomorphism that
    pass the satisfy filters (and, if falsify is nonempty, violate at least
    one falsify entry). Deterministic output order."""
    return _Enumerator(spec, resume=resume).run()


def find_counterexample(spec: SearchSpec) -> CounterexampleResult:
    """First witness over sizes 1..spec.n, or certified absence when the
    search space was exhausted. The node budget and the deadline cover all
    sizes; found_n is then the size the budget ran out in."""
    nodes, start = 0, time.monotonic()
    for n in range(1, spec.n + 1):
        left = {}
        if spec.max_nodes:
            left["max_nodes"] = spec.max_nodes - nodes
        if spec.max_seconds:
            left["max_seconds"] = spec.max_seconds - (time.monotonic() - start)
        # 0 would mean unbounded, so a spent budget stops here
        if any(v <= 0 for v in left.values()):
            return CounterexampleResult(None, n, False, nodes)
        res = enumerate_skew_lattices(replace(spec, n=n, limit=1, **left))
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
# decision path (space separated), line 4 the number of witnesses the search
# found before that path, which is the index of the resumed run's first one.
# Version 3 reads the path past the meet cells against the open join cells
# alone; a version 2 path read every join cell, so it is refused.

CHECKPOINT_HEADER = "skewlat checkpoint v3"


def save_checkpoint(spec: SearchSpec, path_vector, path, found=0) -> None:
    """Write a checkpoint file atomically: the text goes to a temporary file
    in the same directory, which then takes its name. `found` counts the
    witnesses before the path, over the run and the runs it resumed."""
    text = f"{CHECKPOINT_HEADER}\n{spec_hash(spec)}\n{' '.join(str(v) for v in path_vector)}\n{found}\n"
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
    """The decision path to resume from and the number of witnesses found
    before it, as `save_checkpoint` wrote them."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().splitlines()] + ["", "", ""]  # a missing line reads ""
    if lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"not a checkpoint file: the first line is not {CHECKPOINT_HEADER!r}")
    if lines[1] != spec_hash(spec):
        raise ValueError("checkpoint does not match the search spec")
    tokens = lines[2].split()
    # one value in 0..n-1 per decision cell: the meet cells, then at most as
    # many open join cells
    n, cells = spec.n, 2 * spec.n * (spec.n - 1)
    if len(tokens) > cells or any(not _is_number(tok) or int(tok) >= n for tok in tokens):
        raise ValueError(f"checkpoint path is not at most {cells} values in 0..{n - 1}")
    if not _is_number(lines[3]):
        raise ValueError("checkpoint line 4 is not a witness count")
    return tuple(map(int, tokens)), int(lines[3])


def _is_number(token: str) -> bool:
    """Whether `token` is a number as `save_checkpoint` writes it: ASCII
    digits only. str.isdigit alone also takes '²', which int() refuses, and
    '０' and '٣', which int() reads as 0 and 3."""
    return token.isascii() and token.isdigit()
