"""Independent checks for the benchmark's outputs.

Nothing here imports skewlat. Every check is computed directly from a pair
of Cayley tables (tuples of tuples over 0..n-1, meet first), by the
shortest loop that states the definition, so that a fault in the program's
search, term evaluator or solution maps cannot hide in the check as well.
"""

from __future__ import annotations

import itertools


def is_skew_lattice(meet, join) -> bool:
    """Idempotency and associativity of both operations, and the four
    absorption laws."""
    n = len(meet)
    rng = range(n)
    m, j = meet, join
    if any(m[x][x] != x or j[x][x] != x for x in rng):
        return False
    for x, y, z in itertools.product(rng, repeat=3):
        if m[m[x][y]][z] != m[x][m[y][z]] or j[j[x][y]][z] != j[x][j[y][z]]:
            return False
    for x, y in itertools.product(rng, repeat=2):
        if m[x][j[x][y]] != x or j[x][m[x][y]] != x:
            return False
        if j[m[x][y]][y] != y or m[j[x][y]][y] != y:
            return False
    return True


# --- isomorphism and the lex-least labeling ---------------------------------


def relabel(meet, join, perm):
    """The tables with every element x renamed perm[x]."""
    n = len(meet)
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    m = tuple(tuple(perm[meet[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
    jn = tuple(tuple(perm[join[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
    return m, jn


def flat(meet, join) -> tuple:
    """Meet rows, then join rows, as one tuple: the order canonical forms use."""
    return tuple(v for t in (meet, join) for row in t for v in row)


def relabelings(meet, join):
    """Flat tables of all n! relabelings, identity first."""
    for perm in itertools.permutations(range(len(meet))):
        yield flat(*relabel(meet, join, perm))


def is_lex_least(meet, join) -> bool:
    """True iff no relabeling has a lexicographically smaller flat table."""
    own = flat(meet, join)
    return all(own <= f for f in relabelings(meet, join))


def canonical_flat(meet, join) -> tuple:
    return min(relabelings(meet, join))


def isomorphic(a, b) -> bool:
    """Brute force: some relabeling of a equals b. a and b are (meet, join)."""
    if len(a[0]) != len(b[0]):
        return False
    target = flat(*b)
    return any(f == target for f in relabelings(*a))


# --- identities, evaluated directly -------------------------------------------


def left_handed(meet, join) -> bool:
    """x ^ y ^ x = x ^ y."""
    m, rng = meet, range(len(meet))
    return all(m[m[x][y]][x] == m[x][y] for x in rng for y in rng)


def right_handed(meet, join) -> bool:
    """x ^ y ^ x = y ^ x."""
    m, rng = meet, range(len(meet))
    return all(m[m[x][y]][x] == m[y][x] for x in rng for y in rng)


def lattice(meet, join) -> bool:
    rng = range(len(meet))
    return all(meet[x][y] == meet[y][x] and join[x][y] == join[y][x] for x in rng for y in rng)


def d1(meet, join) -> bool:
    """x ^ (y v z) ^ x = (x ^ y ^ x) v (x ^ z ^ x)."""
    m, j, rng = meet, join, range(len(meet))
    return all(
        m[m[x][j[y][z]]][x] == j[m[m[x][y]][x]][m[m[x][z]][x]]
        for x in rng
        for y in rng
        for z in rng
    )


def d2(meet, join) -> bool:
    """x v (y ^ z) v x = (x v y v x) ^ (x v z v x)."""
    m, j, rng = meet, join, range(len(meet))
    return all(
        j[j[x][m[y][z]]][x] == m[j[j[x][y]][x]][j[j[x][z]][x]]
        for x in rng
        for y in rng
        for z in rng
    )


def c1(meet, join) -> bool:
    """x v y = x v z and x ^ y = x ^ z imply y = z."""
    m, j, rng = meet, join, range(len(meet))
    return all(
        y == z or j[x][y] != j[x][z] or m[x][y] != m[x][z]
        for x in rng
        for y in rng
        for z in rng
    )


def c2(meet, join) -> bool:
    """x v z = y v z and x ^ z = y ^ z imply x = y."""
    m, j, rng = meet, join, range(len(meet))
    return all(
        x == y or j[x][z] != j[y][z] or m[x][z] != m[y][z]
        for x in rng
        for y in rng
        for z in rng
    )


def distributive(meet, join) -> bool:
    return d1(meet, join) and d2(meet, join)


def cancellative(meet, join) -> bool:
    return c1(meet, join) and c2(meet, join)


def d_class_count(meet, join) -> int:
    """Number of classes of D: x D y iff x ^ y ^ x = x and y ^ x ^ y = y."""
    m, n = meet, len(meet)
    seen = set()
    count = 0
    for x in range(n):
        if x in seen:
            continue
        count += 1
        seen.update(y for y in range(n) if m[m[x][y]][x] == x and m[m[y][x]][y] == y)
    return count


# --- solution maps and the braid relation -------------------------------------


def solution_maps(meet, join) -> dict:
    """The eight pair maps of the paper, as tables r[x][y] = (x', y')."""
    m, j, n = meet, join, len(meet)

    def lower(x, y):  # (y ^ x ^ y) v x v (y ^ x ^ y)
        t = m[m[y][x]][y]
        return j[j[t][x]][t]

    def upper(x, y):  # (y v x v y) ^ x ^ (y v x v y)
        t = j[j[y][x]][y]
        return m[m[t][x]][t]

    maps = {
        "update": lambda x, y: (j[m[x][y]][x], y),
        "lower_update": lambda x, y: (lower(x, y), y),
        "co_update": lambda x, y: (x, m[j[y][x]][y]),
        "upper_update": lambda x, y: (x, upper(y, x)),
        "strong": lambda x, y: (m[x][y], j[x][y]),
        "left": lambda x, y: (m[x][y], j[y][x]),
        "right": lambda x, y: (m[y][x], j[x][y]),
        "weak": lambda x, y: (m[m[x][y]][x], j[j[x][y]][x]),
    }
    return {
        kind: tuple(tuple(f(x, y) for y in range(n)) for x in range(n))
        for kind, f in maps.items()
    }


def braid_holds(r) -> bool:
    """r12 r23 r12 = r23 r12 r23 on every triple, for a pair table r."""
    n = len(r)
    for x, y, z in itertools.product(range(n), repeat=3):
        a, b = r[x][y]  # left side: r12, r23, r12
        b, c = r[b][z]
        a, b = r[a][b]
        p, s = r[y][z]  # right side: r23, r12, r23
        q, p = r[x][p]
        p, s = r[p][s]
        if (a, b, c) != (q, p, s):
            return False
    return True
