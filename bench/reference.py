"""The reference loop: fixed pure-Python work, timed beside every operation.

The machine this benchmark was built on, a 2-CPU KVM guest shared with
other tenants, changes speed by up to a third between processes, and by as
much within one process from one second to the next. Dividing an
operation's time by this loop's time, measured around and during it in
the same process, removes most of that drift. The loop never changes and
does not touch skewlat, so a change to the program cannot move it.

Its parts mirror the program's kinds of work, because different kinds of
code slow down by different amounts when the machine is loaded: nested
table lookups (axiom and associativity checks), a small depth-first search
with a helper call per cell (the meet/join DFS), permutations building
tuples and dict keys (canonical forms), and recursive term evaluation with
a dict environment (the term evaluator).
"""

from __future__ import annotations

import itertools
import time

# NC5R, the 5-element right-handed skew lattice, as fixed data
_MEET = ((0, 0, 0, 0, 0), (0, 1, 2, 0, 1), (0, 1, 2, 0, 2), (0, 0, 0, 3, 3), (0, 1, 2, 3, 4))
_JOIN = ((0, 1, 2, 3, 4), (1, 1, 1, 4, 4), (2, 2, 2, 4, 4), (3, 4, 4, 3, 4), (4, 4, 4, 4, 4))
# D1: x ^ (y v z) ^ x = (x ^ y ^ x) v (x ^ z ^ x)
_LHS = ("meet", ("meet", ("var", "x"), ("join", ("var", "y"), ("var", "z"))), ("var", "x"))
_RHS = (
    "join",
    ("meet", ("meet", ("var", "x"), ("var", "y")), ("var", "x")),
    ("meet", ("meet", ("var", "x"), ("var", "z")), ("var", "x")),
)


def _lookups():
    m, j, rng = _MEET, _JOIN, range(5)
    bad = 0
    for _ in range(120):
        for x in rng:
            for y in rng:
                for z in rng:
                    if m[m[x][y]][z] != m[x][m[y][z]] or j[j[x][y]][z] != j[x][j[y][z]]:
                        bad += 1
    return bad


def _triple_ok(t, x, y, z):
    xy = t[x][y]
    if xy < 0:
        return True
    yz = t[y][z]
    if yz < 0:
        return True
    left, right = t[xy][z], t[x][yz]
    return left < 0 or right < 0 or left == right


def _dfs():
    n = 3
    t = [[-1] * n for _ in range(n)]
    for x in range(n):
        t[x][x] = x
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = [0]

    def step(depth):
        if depth == len(cells):
            found[0] += 1
            return
        i, j = cells[depth]
        for v in range(n):
            t[i][j] = v
            if all(_triple_ok(t, i, j, a) and _triple_ok(t, a, i, j) for a in range(n)):
                step(depth + 1)
            t[i][j] = -1

    for _ in range(4):
        step(0)
    return found[0]


def _permutations():
    seen = {}
    for _ in range(5):
        for perm in itertools.permutations(range(5)):
            key = tuple(perm[_MEET[perm[a]][perm[b]]] for a in range(5) for b in range(5))
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def _evaluate(term, env):
    if term[0] == "var":
        return env[term[1]]
    a = _evaluate(term[1], env)
    b = _evaluate(term[2], env)
    return _MEET[a][b] if term[0] == "meet" else _JOIN[a][b]


def _terms():
    holds = 0
    for _ in range(5):
        for values in itertools.product(range(5), repeat=3):
            env = dict(zip("xyz", values))
            holds += _evaluate(_LHS, env) == _evaluate(_RHS, env)
    return holds


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop (about 12 ms here)."""
    start = time.perf_counter()
    _lookups()
    _dfs()
    _permutations()
    _terms()
    return time.perf_counter() - start
