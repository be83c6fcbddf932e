import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import core, green, search, terms, theorems, varieties, ybe
from skewlat.constructions import RingSpec, chain, direct_product, fixed, rectangular, ring_band, subalgebras
from skewlat.core import (
    CayleyPair,
    MalformedTableError,
    canonical_form,
    is_canonical,
    label_zero_class,
    validate,
)
from skewlat.search import (
    SearchSpec,
    census,
    enumerate_skew_lattices,
    find_counterexample,
    load_checkpoint,
    resolve_predicate,
    save_checkpoint,
    spec_hash,
)


def relabel(pair, perm):
    """The pair with each element x renamed perm[x]."""
    n = pair.n
    pinv = [0] * n
    for i, v in enumerate(perm):
        pinv[v] = i
    meet = [[perm[pair.meet[pinv[a]][pinv[b]]] for b in range(n)] for a in range(n)]
    join = [[perm[pair.join[pinv[a]][pinv[b]]] for b in range(n)] for a in range(n)]
    return CayleyPair.from_tables(meet, join)


def _associative(t, n):
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n))


def brute_force_count(n):
    """Direct iteration over all table pairs, deduplicated by relabeling.

    Join tables are tried only beside meet tables that are idempotent (by
    construction) and associative, which every skew lattice's meet is."""
    seen = set()
    count = 0
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))
    for mvals in itertools.product(range(n), repeat=len(cells)):
        meet = [[i if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, mvals):
            meet[i][j] = v
        if not _associative(meet, n):
            continue
        for jvals in itertools.product(range(n), repeat=len(cells)):
            join = [[i if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(cells, jvals):
                join[i][j] = v
            pair = CayleyPair.from_tables(meet, join)
            if core.axiom_violations(pair):
                continue
            key = min(relabel(pair, p).flat() for p in perms)
            if key not in seen:
                seen.add(key)
                count += 1
    return count


class TestEnumeration:
    def test_counts_match_brute_force(self):
        for n in (1, 2, 3):
            assert len(census(n)) == brute_force_count(n)

    def test_known_counts(self, census5):
        assert [len(census5[n]) for n in range(1, 6)] == [1, 3, 7, 21, 53]

    def test_all_witnesses_are_canonical_and_distinct(self, census5):
        for n in (3, 4):
            flats = [S.pair.flat() for S in census5[n]]
            assert len(set(flats)) == len(flats)
            for S in census5[n]:
                assert is_canonical(S.pair)
                assert canonical_form(S.pair) == S.pair

    def test_no_two_witnesses_isomorphic(self, census5):
        perms = list(itertools.permutations(range(4)))
        keys = {min(relabel(S.pair, p).flat() for p in perms) for S in census5[4]}
        assert len(keys) == len(census5[4])

    def test_satisfy_filter(self, census5):
        res = enumerate_skew_lattices(SearchSpec(n=4, satisfy=("lattice",)))
        assert res.count_up_to_iso == 2  # the two 4-element lattices

    @pytest.mark.parametrize(
        "satisfy, counts",
        [
            (("lattice",), [1, 1, 1, 2, 5, 15]),  # OEIS A006966
            (("lattice", "distributive"), [1, 1, 1, 2, 3, 5]),  # OEIS A006982
            (("rectangular",), [1, 2, 2, 3, 2, 4]),  # d(n): one L x R shape per factorization
            (("left_handed",), [1, 2, 4, 10, 23, 67]),
        ],
        ids=["lattice", "distributive-lattice", "rectangular", "left-handed"],
    )
    def test_published_filtered_counts(self, satisfy, counts):
        got = [enumerate_skew_lattices(SearchSpec(n=n, satisfy=satisfy)).count_up_to_iso for n in range(1, 7)]
        assert got == counts

    def test_falsify_filter(self):
        res = enumerate_skew_lattices(SearchSpec(n=3, falsify=("lattice",)))
        assert res.count_up_to_iso == 7 - 1  # all but the 3-chain

    def test_limit_short_circuits(self):
        res = enumerate_skew_lattices(SearchSpec(n=4, limit=5))
        assert res.count_up_to_iso == 5
        assert not res.exhausted

    def test_pruning_reaches_only_canonical_leaves(self, monkeypatch):
        # each leaf's verdict from the meet automorphisms alone must equal
        # the full scan's. At n=5 every non-canonical labeling is undercut
        # in its meet table, so the search cuts it before the leaf; at n=6
        # two leaves are the second join on a meet table that admits two
        # isomorphic ones, and only the join table rejects them
        leaves = []
        real = search.is_canonical

        def spy(pair, automorphisms):
            fast = real(pair, automorphisms)
            leaves.append((fast, canonical_form(pair) == pair, pair, automorphisms))
            return fast

        monkeypatch.setattr(search, "is_canonical", spy)
        # a leaf whose meet table admits one join is handed no automorphism:
        # 6 of the 511 meet automorphisms at n=5 are compared, 92 of 3,256 at n=6
        by_n = {}
        for n, count, canonical, compared in ((5, 53, 53, 6), (6, 175, 173, 92)):
            leaves.clear()
            res = enumerate_skew_lattices(SearchSpec(n=n))
            by_n[n] = list(leaves)
            assert res.count_up_to_iso == canonical
            assert [leaf[0] for leaf in leaves] == [leaf[1] for leaf in leaves]
            assert len(leaves) == count
            assert sum(leaf[0] for leaf in leaves) == canonical
            assert sum(len(leaf[3]) for leaf in leaves) == compared
        # at n=5, by brute force over the 120 relabelings: a leaf is handed
        # all of its meet table's automorphisms but the identity, or none,
        # and then each of them maps the join table onto itself
        perms = list(itertools.permutations(range(5)))[1:]
        total = 0
        for _, _, pair, handed in by_n[5]:
            autos = [p for p in perms if relabel(pair, p).meet == pair.meet]
            total += len(autos)
            if handed:
                assert sorted(tuple(p) for p in handed) == autos
            else:
                assert all(relabel(pair, p).join == pair.join for p in autos)
        assert total == 511


def _flats_digest(witnesses):
    """sha256 of the witness flats, one line of space-separated values each."""
    text = "".join(" ".join(map(str, S.pair.flat())) + "\n" for S in witnesses)
    return hashlib.sha256(text.encode()).hexdigest()


def test_search_counters_are_pinned():
    # nodes and witnesses are deterministic; a speed-up must leave the
    # witnesses alone, and a new cut moves nodes only with its pin
    runs = [enumerate_skew_lattices(SearchSpec(n=n)) for n in range(1, 7)]
    assert [r.nodes for r in runs] == [0, 6, 84, 780, 6015, 47306]
    assert [_flats_digest(r.witnesses) for r in runs[:5]] == [
        "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
        "3f2b573094643a3f14acbfb9dccfdd7bca0374cd4f4d49b3115bdb6a3742e174",
        "d40f195d256ca17f5aaddc77bc8b1b03d8550a3e0de6924ff0dfd41a6fee0912",
        "dd4eff5dd9408445ba277f575a99c5743caf3bd3a0848f8f3867f408ee69667d",
        "47d92854688d519455c2d6af770cba4564e73779a3b754fa5fde30403d9f54f9",
    ]
    # criterion 11: no counterexample up to order 5
    spec = SearchSpec(
        n=5, satisfy=("left_handed", "distributive", "cancellative"), falsify=("strong-solution",)
    )
    res = find_counterexample(spec)
    assert (res.witness, res.exhausted, res.nodes) == (None, True, 4413)
    # and up to order 6
    res = find_counterexample(SearchSpec(n=6, satisfy=spec.satisfy, falsify=spec.falsify))
    assert (res.witness, res.exhausted, res.nodes) == (None, True, 30869)


def test_leaf_pairs_are_what_from_tables_builds():
    # a leaf's pair is built from the search's own tables without the scan
    # for outside input; it must equal, tuple for tuple, the pair that scan
    # accepts
    for n in range(1, 7):
        for S in census(n):
            assert CayleyPair.from_tables(S.pair.meet, S.pair.join) == S.pair


def test_check_assign_is_handed_only_values_that_pass_the_band_laws(monkeypatch):
    # the DFS loop reads v ^ j = v = i ^ v on the cell's table right after
    # writing it, for meet and join cells alike; 34 % of the n = 5 nodes
    # and 38 % of the n = 6 ones die on those two reads. No join node does
    # (40 at n = 5, 458 at n = 6): for a candidate v of an open join cell
    # (x, y), x ^ v = x and v ^ y = y, so the forced cells (x, v) and (v, y)
    # already hold v
    checked = []
    real = search._Enumerator._check_assign

    def spy(self, t, occ, prune, i, j):
        v = t[i][j]
        assert t[v][j] in (v, -1) and t[i][v] in (v, -1), (t, i, j)
        checked.append(t is self.join)
        return real(self, t, occ, prune, i, j)

    monkeypatch.setattr(search._Enumerator, "_check_assign", spy)
    for n, nodes, meet_calls, join_calls in ((5, 6015, 3928, 40), (6, 47306, 28736, 458)):
        checked.clear()
        res = enumerate_skew_lattices(SearchSpec(n=n))
        assert (res.nodes, checked.count(False), checked.count(True)) == (nodes, meet_calls, join_calls)


def test_update_maps_are_solutions_up_to_order_5():
    # the paper's main theorem, through the braid check of maps that keep
    # one coordinate: no skew lattice of order <= 5 has an update map that
    # fails the braid relation
    falsify = ("update-solution", "lower-update-solution", "co-update-solution", "upper-update-solution")
    res = find_counterexample(SearchSpec(n=5, falsify=falsify))
    assert (res.witness, res.exhausted, res.nodes) == (None, True, 6885)


def test_join_cut_passes_every_meet_prefix_of_the_census(monkeypatch):
    # the search without the cut finds the same census, and every prefix of
    # each member's meet table, in mcells order, passes the cut: it loses
    # no skew lattice
    cut = search._Enumerator._joins_possible
    with monkeypatch.context() as mp:
        mp.setattr(search._Enumerator, "_joins_possible", lambda self, i, j: True)
        uncut = [enumerate_skew_lattices(SearchSpec(n=n)).witnesses for n in range(1, 7)]
    for n, members in enumerate(uncut, start=1):
        assert [S.pair for S in members] == [S.pair for S in census(n)]
        e = search._Enumerator(SearchSpec(n=n))
        for S in members:
            for i, j in e.mcells:
                e.meet[i][j] = -1
            for i, j in e.mcells:
                e.meet[i][j] = S.pair.meet[i][j]
                assert cut(e, i, j), (S.pair.meet, (i, j))


def test_forced_joins_match_every_census_member():
    # each member's meet table forces exactly its join cells, leaves its
    # other join cells open with its values among their candidates, and
    # its join table passes the one-pass check, forced and whole
    for n in range(1, 7):
        e = search._Enumerator(SearchSpec(n=n))
        m = len(e.mcells)
        for S in census(n):
            for i, j in e.mcells:
                e.meet[i][j] = S.pair.meet[i][j]
            assert e._force_joins(), S.pair
            assert e.cells[m:] == [c for c in e.mcells if c in e.cand]
            for i, j in e.mcells:
                if (i, j) in e.cand:
                    assert len(e.cand[i, j]) >= 2 and S.pair.join[i][j] in e.cand[i, j]
                else:
                    assert e.join[i][j] == S.pair.join[i][j], (S.pair, (i, j))
            for i, j in e.cells[m:]:
                e.join[i][j] = S.pair.join[i][j]
            assert e._join_passes(), S.pair


def test_label_zero_rule_holds_on_every_census_member():
    # the search reads row 0 of a surviving meet prefix as c0 zeros first,
    # and cuts one whose row x holds more x than row 0 holds 0
    for n in range(1, 7):
        for S in census(n):
            m = S.pair.meet
            c0 = m[0].count(0)
            assert m[0][:c0] == (0,) * c0 and 0 not in m[0][c0:], m
            assert all(c0 >= m[x].count(x) for x in range(n)), m


def test_released_relabelings_are_those_of_the_label_zero_rule(census5):
    # for each head, `core.relabelings` yields, in itertools.permutations
    # order, exactly the inverses that start with head[0], then head[1:] in
    # some order
    inverses = list(itertools.permutations(range(5)))
    for x in range(5):
        for k in range(5):
            for under in itertools.combinations([y for y in range(5) if y != x], k):
                want = [pinv for pinv in inverses if pinv[0] == x and set(pinv[1 : k + 1]) == set(under)]
                assert list(core.relabelings(5, (x, *under))) == want, (x, under)
    # on each census member, for each x whose row holds as many x as row 0
    # holds 0, the search releases, from the relabelings that give x label 0,
    # exactly those that `canonical_form` compares
    for n in range(1, 6):
        for S in census5[n]:
            m = S.pair.meet
            for x in range(1, n):
                if m[x].count(x) == m[0].count(0):
                    e = search._Enumerator(SearchSpec(n=n))
                    got = e._release(label_zero_class(m[x], x))
                    want = {bytes(pinv.index(y) for y in range(n)) for pinv in core._inverses(S.pair) if pinv[0] == x}
                    assert {rel[-n:] for rel in got} == want, (m, x)
                    # each starts with the position in `mcells` of its source cells
                    for rel in got:
                        pinv = sorted(range(n), key=rel[-n:].__getitem__)
                        assert rel[:-n] == bytes(e.mcells.index((pinv[a], pinv[b])) for a, b in e.mcells)


def test_blocks_are_the_relabelings_they_encode():
    # each block, built from a position table row by row, equals the bytes
    # of its relabelings built cell by cell: the position of each source
    # cell, then the labels
    for n in range(1, 7):
        e = search._Enumerator(SearchSpec(n=n))
        for x in range(n):
            want = []
            for pinv in core.relabelings(n, (x,)):
                sources = [pinv[a] * (n - 1) + pinv[b] - (pinv[b] > pinv[a]) for a, b in e.mcells]
                want.append(bytes(sources) + bytes(core.inverse(pinv)))
            assert e._block(x) == want, (n, x)


def test_orbit_stabilizer_counts_the_labeled_algebras(census5):
    # each class S has n!/|Aut S| labelings on 0..n-1, so the sum over the
    # census is the number of labeled skew lattices
    for n, labeled in zip(range(1, 6), (1, 4, 20, 180, 1862)):
        perms = list(itertools.permutations(range(n)))
        total = 0
        for S in census5[n]:
            automorphisms = sum(relabel(S.pair, p) == S.pair for p in perms)
            total += math.factorial(n) // automorphisms
        assert total == labeled


def _embeds(S, found):
    """True iff the element map of an nc5_free result is an isomorphism of
    its subset onto the named forbidden algebra."""
    name, subset, img = found
    T = {
        "NC5R": fixed("NC5R").pair,
        "NC5L": fixed("NC5L").pair,
        "M3": CayleyPair.from_tables(*varieties._M3),
        "N5": CayleyPair.from_tables(*varieties._N5),
    }[name]
    m, j = S.pair.meet, S.pair.join
    return sorted(img) == sorted(subset) and sorted(img.values()) == list(range(5)) and all(
        img[m[x][y]] == T.meet[img[x]][img[y]] and img[j[x][y]] == T.join[img[x]][img[y]]
        for x in subset
        for y in subset
    )


def test_nc5_free_maps_are_isomorphisms(census5):
    algebras = list(census5[5]) + [direct_product(fixed("NC5R"), chain((1, 1)))]
    found = [(S, res) for S in algebras for res in [varieties.nc5_free(S)] if res is not True]
    assert {res[0] for _, res in found} == {"NC5R", "NC5L", "M3", "N5"}
    assert all(_embeds(S, res) for S, res in found)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabeling_changes_nothing(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    S = data.draw(st.sampled_from(census(n)))
    perm = data.draw(st.permutations(range(n)))
    pair = relabel(S.pair, perm)
    assert canonical_form(pair) == S.pair
    # the census member is the canonical labeling, so only an automorphism
    # gives back a canonical pair
    assert is_canonical(pair) == (pair == S.pair)
    _assert_same_nc5_verdict(S, perm)
    # every flag, solution verdict and invariant is the same after relabeling,
    # and every battery entry holds on the relabeled algebra
    T = validate(pair)
    assert varieties.classify(T).flags == varieties.classify(S).flags
    for kind in ybe.MAP_KINDS:
        a, b = ybe.build_map(S, kind), ybe.build_map(T, kind)
        assert (ybe.braid_check(a) is None, ybe.power_class(a), ybe.degeneracy(a)) == (
            ybe.braid_check(b) is None, ybe.power_class(b), ybe.degeneracy(b)
        ), kind
    sizes = [sorted(len(c) for c in green.green_relations(A)[2].classes) for A in (S, T)]
    assert sizes[0] == sizes[1]
    assert [name for name, check in theorems.THEOREMS.items() if check(T) is not True] == []


def _assert_same_nc5_verdict(S, perm):
    relabeled = validate(relabel(S.pair, perm))
    before, after = varieties.nc5_free(S), varieties.nc5_free(relabeled)
    assert (before is True) == (after is True)
    if after is not True:
        assert before[0] == after[0]
        assert _embeds(S, before) and _embeds(relabeled, after)
        # the first subset holding a copy depends on the labeling, but the
        # copy found after relabeling is one in S too
        name, subset, img = after
        back = sorted(perm.index(x) for x in subset)
        assert _embeds(S, (name, back, {y: img[perm[y]] for y in back}))


def test_nc5_free_names_the_first_forbidden_algebra_that_embeds():
    # this order-6 member holds copies of NC5L and N5; the N5 copy comes
    # first in combinations order, and after swapping 3 and 4 the NC5L one
    meet = ((0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 1), (0, 0, 2, 2, 0, 2),
            (0, 0, 2, 3, 0, 3), (0, 4, 0, 0, 4, 4), (0, 1, 2, 3, 4, 5))
    (S,) = [S for S in census(6) if S.pair.meet == meet]
    assert varieties.nc5_free(S)[0] == "NC5L"
    _assert_same_nc5_verdict(S, (0, 1, 2, 4, 3, 5))


def _random_term(rng, variables, depth):
    if depth == 0 or rng.random() < 0.3:
        return ("var", rng.choice(variables))
    op = rng.choice(("meet", "join"))
    return (op, _random_term(rng, variables, depth - 1), _random_term(rng, variables, depth - 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**40), st.sampled_from("xy"))
def test_derived_prunes_keep_exactly_the_satisfying_classes(seed, last):
    # identities in one or two variables mixing ^ and v prune the search;
    # the pruned run must yield exactly the census members that satisfy them
    rng = random.Random(seed)
    variables = "x" + last.replace("x", "")
    text = terms.format_equation(_random_term(rng, variables, 3), _random_term(rng, variables, 3))
    f = terms.parse(text)
    for n in range(1, 5):
        got = enumerate_skew_lattices(SearchSpec(n=n, satisfy=(text,))).witnesses
        want = [S for S in census(n) if terms.holds(S, f) is True]
        assert [S.pair for S in got] == [S.pair for S in want], text


def _entry_holds(S, name):
    """One satisfy/falsify entry on S, decided on its own."""
    lib = terms.library()
    if name.endswith("-solution"):
        return ybe.braid_check(ybe.build_map(S, name[: -len("-solution")].replace("-", "_"))) is None
    if name in varieties.FLAGS:
        return varieties.check(S, name) is True
    return terms.holds(S, lib[name] if name in lib else terms.parse(name)) is True


@pytest.mark.parametrize(
    "satisfy, falsify",
    [
        (("left_handed", "D1", "x ^ y ^ z = x ^ z ^ y", "quasi_distributive"), ("strong-solution", "commute-meet")),
        (("quasi_distributive", "lower-update-solution", "normal"), ("cancellative", "x v y v x = x v y", "C1")),
        (("symmetric", "strong-dist1", "weak-solution"), ("lattice", "quasi_distributive")),
        (
            ("right_handed", "x v y = y v x => x ^ y = y ^ x", "left-solution"),
            ("distributive", "right-solution", "x ^ y = x"),
        ),
        # entries that repeat a formula, within one side and across the two
        (("lattice", "commute-meet", "update-solution"), ("D1", "distributive", "quasi_distributive")),
        (("left_handed", "left-handed", "quasi_distributive"), ("left-handed", "strong-solution", "x ^ y ^ x = x ^ y")),
    ],
)
def test_mixed_specs_keep_what_each_entry_selects(satisfy, falsify):
    # flags, bundled names, raw formulas, quasi_distributive (decided on
    # S/D) and map solutions, on both sides: the search keeps exactly the
    # census members that every satisfy entry, each decided on its own,
    # selects and some falsify entry rejects
    kept = 0
    for n in range(1, 6):
        got = enumerate_skew_lattices(SearchSpec(n=n, satisfy=satisfy, falsify=falsify)).witnesses
        want = [
            S for S in census(n)
            if all(_entry_holds(S, e) for e in satisfy) and not all(_entry_holds(S, e) for e in falsify)
        ]
        assert [S.pair for S in got] == [S.pair for S in want], n
        kept += len(got)
    assert 0 < kept < 85


def test_a_formula_several_satisfy_entries_name_is_checked_once():
    # lattice names commute-meet too: the prunes and the leaf's formulas
    # are those of lattice alone, and so are the nodes and witnesses
    assert search._prunes(("lattice", "commute-meet")) == search._prunes(("lattice",))
    assert search._filters(("lattice", "commute-meet"))[0] == search._filters(("lattice",))[0]
    for n in range(1, 7):
        one, two = (enumerate_skew_lattices(SearchSpec(n=n, satisfy=s)) for s in (("lattice",), ("lattice", "commute-meet")))
        assert (two.nodes, [S.pair for S in two.witnesses]) == (one.nodes, [S.pair for S in one.witnesses])


def _constructed(max_n):
    """Chains, rectangular algebras and products of census members, all of
    order <= max_n, and the subalgebras of order <= max_n of these and of
    the products up to order 9."""
    algebras = []
    for n in range(1, max_n + 1):
        for r in range(n):
            for cuts in itertools.combinations(range(1, n), r):
                bounds = (0,) + cuts + (n,)
                algebras.append(chain([b - a for a, b in zip(bounds, bounds[1:])]))
        algebras += [rectangular(k, n // k) for k in range(1, n + 1) if n % k == 0]
    factors = [S for m in (2, 3, 4) for S in census(m)]
    products = [direct_product(A, B) for A in factors for B in factors if A.n * B.n <= 9]
    algebras += [P for P in products if P.n <= max_n]
    for S in algebras + products:
        algebras += [sub for _, sub in subalgebras(S, max_n)]
    return algebras


def test_constructions_land_in_the_census():
    max_n = 6
    members = {n: {S.pair.flat() for S in census(n)} for n in range(1, max_n + 1)}
    # the ring bands of 2x2 matrices mod 2 and upper triangular ones mod 3:
    # 36 algebras of order 4 and 5
    specs = (RingSpec("ut", 2, 2), RingSpec("full", 2, 2), RingSpec("ut", 2, 3))
    rings = [S for spec in specs for S, _, _ in ring_band(spec).emitted]
    pairs = {S.pair.flat(): S.pair for S in _constructed(max_n) + rings}
    for pair in pairs.values():
        assert canonical_form(pair).flat() in members[pair.n], pair


def _swap(pair):
    return CayleyPair.from_tables(pair.join, pair.meet)


def _opposite(pair):
    return CayleyPair.from_tables(tuple(zip(*pair.meet)), tuple(zip(*pair.join)))


@pytest.mark.parametrize(
    "dual, fixed_counts",
    # the classes each duality maps to themselves, for n = 1..6
    [(_swap, (1, 1, 1, 5, 5, 15)), (_opposite, (1, 1, 1, 3, 7, 19))],
    ids=["swap", "opposite"],
)
def test_census_is_closed_under_the_dualities(dual, fixed_counts):
    # swapping meet and join, or transposing both tables, gives a skew
    # lattice again, so every census member's dual has a class in the census;
    # a prune that lost a class but kept its mirror would show here
    counts = []
    for n in range(1, 7):
        members = [S.pair for S in census(n)]
        images = [canonical_form(dual(pair)) for pair in members]
        assert set(images) <= set(members), n
        counts.append(sum(image == pair for image, pair in zip(images, members)))
    assert tuple(counts) == fixed_counts


def test_skew_chains_are_distinct_classes():
    # the chains over the 2^(n-1) compositions of n: one class each, all in
    # the census (test_constructions_land_in_the_census checks membership)
    for n in range(1, 7):
        compositions = []
        for cuts in itertools.product((False, True), repeat=n - 1):
            bounds = [0, *(k for k, cut in enumerate(cuts, start=1) if cut), n]
            compositions.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
        classes = {canonical_form(chain(sizes).pair) for sizes in compositions}
        assert len(classes) == len(compositions) == 2 ** (n - 1), n
        assert classes <= {S.pair for S in census(n)}, n


class TestPredicates:
    def test_flag_names_resolve(self):
        for name in ("left_handed", "distributive", "cancellative", "lattice"):
            resolve_predicate(name)

    def test_solution_names_resolve(self, threes):
        pred = resolve_predicate("strong-solution")
        assert pred(threes[0]) is False

    def test_raw_formula_resolves(self, threes):
        pred = resolve_predicate("x ^ y = y ^ x")
        assert pred(threes[0]) is False

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            resolve_predicate("definitely-not-a-thing")

    def test_unknown_predicate_rejected_when_the_spec_is_built(self):
        with pytest.raises(ValueError, match="unknown predicate 'definitely-not-a-thing'"):
            SearchSpec(n=3, satisfy=("definitely-not-a-thing",))
        with pytest.raises(ValueError, match="unknown predicate 'not-a-flag'"):
            SearchSpec(n=3, satisfy=("lattice",), falsify=("not-a-flag",))


class TestBudgetsAndCheckpoints:
    def test_node_budget_yields_checkpoint(self):
        res = enumerate_skew_lattices(SearchSpec(n=4, max_nodes=100))
        assert not res.exhausted
        assert res.checkpoint is not None

    @staticmethod
    def _assert_resumes_split(spec, full):
        """Runs of the budgeted spec, each resuming the last one's checkpoint,
        split the uninterrupted run `full` between them; returns the runs."""
        runs = [enumerate_skew_lattices(spec)]
        while not runs[-1].exhausted:
            assert len(runs) < full.nodes  # each stopped run counts a node
            runs.append(enumerate_skew_lattices(spec, resume=runs[-1].checkpoint))
        # each stopped run counts exactly its budget, and no node is
        # counted twice across the chain
        assert all(r.nodes == spec.max_nodes for r in runs[:-1])
        assert sum(r.nodes for r in runs) == full.nodes
        # exactly once: the runs split the witnesses, in order
        assert [S.pair for r in runs for S in r.witnesses] == [S.pair for S in full.witnesses]
        assert sum(r.count_up_to_iso for r in runs) == full.count_up_to_iso
        return runs

    def test_resume_completes_the_count(self):
        for satisfy in ((), ("lattice",)):
            full = enumerate_skew_lattices(SearchSpec(n=4, satisfy=satisfy))
            for budget in (1, 97, 500, full.nodes - 1):
                self._assert_resumes_split(SearchSpec(n=4, satisfy=satisfy, max_nodes=budget), full)

    def test_resume_inside_the_join_stage(self, monkeypatch):
        # at n=5, 40 of the 6,015 nodes decide an open join cell; a budget
        # that stops the first run at each of them leaves a checkpoint path
        # past the 20 meet cells, which the resume reads against the open
        # cells of the meet table the path gives. Only a budgeted run calls
        # `_tick`, so the spied run has a budget that never runs out
        depths = []  # the depth of each node, in search order
        tick = search._Enumerator._tick

        def spy(self, next_value):
            depths.append(len(self.path))
            tick(self, next_value)

        with monkeypatch.context() as mp:
            mp.setattr(search._Enumerator, "_tick", spy)
            full = enumerate_skew_lattices(SearchSpec(n=5, max_nodes=10**9))
        budgets = [k for k, depth in enumerate(depths) if depth >= 20]
        assert (len(depths), full.nodes, len(budgets)) == (6015, 6015, 40)
        for budget in budgets:
            runs = self._assert_resumes_split(SearchSpec(n=5, max_nodes=budget), full)
            assert len(runs[0].checkpoint) > 20

    @pytest.mark.parametrize("budget", [{"max_nodes": 10**9}, {"max_seconds": 1e6}], ids=["max-nodes", "max-seconds"])
    def test_a_budget_that_never_runs_out_changes_nothing(self, budget, monkeypatch):
        # an unbudgeted run counts its nodes in the DFS loop, a budgeted one
        # through `_tick`, one call per node: the two count the same nodes
        # and find the same witnesses
        ticks = [0]
        tick = search._Enumerator._tick

        def spy(self, next_value):
            ticks[0] += 1
            tick(self, next_value)

        monkeypatch.setattr(search._Enumerator, "_tick", spy)
        specs = [(SearchSpec(n=n), nodes) for n, nodes in zip(range(1, 7), (0, 6, 84, 780, 6015, 47306))]
        specs.append((SearchSpec(n=6, satisfy=("left_handed",)), 26456))
        for spec, nodes in specs:
            ticks[0] = 0
            free = enumerate_skew_lattices(spec)
            assert (free.nodes, ticks[0]) == (nodes, 0)
            capped = enumerate_skew_lattices(replace(spec, **budget))
            assert (capped.nodes, ticks[0]) == (nodes, nodes)
            assert (capped.exhausted, capped.checkpoint) == (True, None)
            assert capped.count_up_to_iso == free.count_up_to_iso
            assert [S.pair for S in capped.witnesses] == [S.pair for S in free.witnesses]
        # criterion 11 up to order 6, with the budget over all sizes
        spec = SearchSpec(
            n=6, satisfy=("left_handed", "distributive", "cancellative"), falsify=("strong-solution",)
        )
        for res in (find_counterexample(spec), find_counterexample(replace(spec, **budget))):
            assert (res.witness, res.exhausted, res.nodes) == (None, True, 30869)

    @pytest.mark.parametrize("n, budget", [(5, 1), (5, 3000), (5, 3032), (5, 6014), (6, 20000)])
    def test_an_unbudgeted_resume_counts_each_node_once(self, n, budget):
        # the resume has no budget, so it counts in the DFS loop, and it
        # skips the nodes of the path that the stopped run counted
        full = enumerate_skew_lattices(SearchSpec(n=n))
        first = enumerate_skew_lattices(SearchSpec(n=n, max_nodes=budget))
        rest = enumerate_skew_lattices(SearchSpec(n=n), resume=first.checkpoint)
        assert (first.nodes, rest.exhausted) == (budget, True)
        assert first.nodes + rest.nodes == full.nodes
        assert [S.pair for r in (first, rest) for S in r.witnesses] == [S.pair for S in full.witnesses]
        if n == 6:
            # `skewlat enumerate 6 --max-nodes 20000` and its resume
            assert (first.checkpoint, first.count_up_to_iso) == ((0, 0, 0, 0, 0, 0, 1, 3, 3, 5, 5), 113)
            assert (rest.count_up_to_iso, rest.nodes) == (60, 27306)

    @pytest.mark.parametrize(
        "path, found",
        [
            # stopped at 3,000 nodes, in the meet stage
            ((0, 0, 0, 4, 0, 1, 1, 4, 0, 1, 2, 1), 39),
            # stopped at 3,032 nodes, on an open join cell
            ((0, 0, 0, 4, 0, 1, 1, 4, 0, 1, 2, 4, 0, 1, 2, 4, 0, 0, 4, 4, 2), 39),
        ],
        ids=["meet-stage", "join-stage"],
    )
    def test_resume_from_a_path_of_the_cell_by_cell_lex_leader(self, path, found):
        # paths that a budgeted n=5 run wrote when every relabeling was
        # compared cell by cell: that search cut each node this one cuts, at
        # it or above it, so its nodes are nodes here and the path resumes to
        # the same witnesses
        full = enumerate_skew_lattices(SearchSpec(n=5))
        res = enumerate_skew_lattices(SearchSpec(n=5), resume=path)
        assert res.exhausted
        assert [S.pair for S in res.witnesses] == [S.pair for S in full.witnesses[found:]]

    def test_checkpoint_file_round_trip(self, tmp_path):
        spec = SearchSpec(n=4, satisfy=("lattice",))
        res = enumerate_skew_lattices(SearchSpec(n=4, satisfy=("lattice",), max_nodes=50))
        path = tmp_path / "ck.txt"
        save_checkpoint(spec, res.checkpoint, path, res.count_up_to_iso)
        assert load_checkpoint(spec, path) == (tuple(res.checkpoint), res.count_up_to_iso)

    def test_checkpoint_spec_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(SearchSpec(n=4), (0, 1), path)
        with pytest.raises(ValueError):
            load_checkpoint(SearchSpec(n=5), path)

    @pytest.mark.parametrize("path", [(99,), (-1, -1), (4,), (0,) * 25])
    def test_checkpoint_path_out_of_range_rejected(self, tmp_path, path):
        # n=4 has 2*4*3 = 24 decision cells, each taking a value in 0..3
        spec = SearchSpec(n=4)
        save_checkpoint(spec, path, tmp_path / "ck.txt")
        with pytest.raises(ValueError):
            load_checkpoint(spec, tmp_path / "ck.txt")

    def test_checkpoint_without_format_line_rejected(self, tmp_path):
        spec = SearchSpec(n=4)
        path = tmp_path / "ck.txt"
        save_checkpoint(spec, (0, 1), path)
        lines = path.read_text().splitlines()
        assert lines == ["skewlat checkpoint v3", spec_hash(spec), "0 1", "0"]
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="not a checkpoint file"):
            load_checkpoint(spec, path)

    @pytest.mark.parametrize("count", ["", "-1", "x"])
    def test_checkpoint_without_witness_count_rejected(self, tmp_path, count):
        spec = SearchSpec(n=4)
        path = tmp_path / "ck.txt"
        path.write_text(f"{search.CHECKPOINT_HEADER}\n{spec_hash(spec)}\n0 1\n{count}\n")
        with pytest.raises(ValueError, match="witness count"):
            load_checkpoint(spec, path)

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_checkpoint_write_keeps_the_previous_one(self, tmp_path, monkeypatch, failing):
        spec = SearchSpec(n=4)
        path = tmp_path / "ck.txt"
        save_checkpoint(spec, (0, 1), path)

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(search.os, failing, fail)
        with pytest.raises(OSError):
            save_checkpoint(spec, (0, 2, 1), path)
        assert load_checkpoint(spec, path) == ((0, 1), 0)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]

    def test_spec_hash_sensitive_to_filters(self):
        assert spec_hash(SearchSpec(n=4)) != spec_hash(SearchSpec(n=4, satisfy=("lattice",)))

    @pytest.mark.parametrize(
        "field, value", [("limit", -1), ("max_nodes", -5), ("max_seconds", -1.0)]
    )
    def test_negative_budget_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchSpec(n=3, **{field: value})

    def test_time_budget(self):
        # the order-7 census takes seconds, far beyond the budget
        res = enumerate_skew_lattices(SearchSpec(n=7, max_seconds=0.05))
        assert not res.exhausted
        assert res.checkpoint


class TestCounterexample:
    def test_finds_noncommutative_meet(self):
        res = find_counterexample(SearchSpec(n=3, falsify=("x ^ y = y ^ x",)))
        assert res.witness is not None
        assert res.found_n == 2  # smallest noncommutative skew lattice

    def test_none_when_theorem_true(self):
        spec = SearchSpec(n=4, satisfy=("lattice",), falsify=("x ^ y = y ^ x",))
        res = find_counterexample(spec)
        assert res.witness is None
        assert res.exhausted

    def test_node_budget_covers_all_sizes(self):
        # sizes 1..4 take 870 nodes, so the budget runs out inside order 5
        res = find_counterexample(SearchSpec(n=6, falsify=("x ^ y = x ^ y",), max_nodes=5000))
        assert (res.witness, res.nodes, res.found_n, res.exhausted) == (None, 5000, 5, False)

    def test_deadline_covers_all_sizes(self, monkeypatch):
        # a fake clock that reads one second later at each call: sizes 1..3
        # take 90 nodes, so 500 s run out inside order 4, and a fresh
        # deadline per size would count more than 500 nodes in all
        clock = itertools.count()
        monkeypatch.setattr(search.time, "monotonic", lambda: float(next(clock)))
        res = find_counterexample(SearchSpec(n=6, falsify=("x ^ y = x ^ y",), max_seconds=500))
        assert res.witness is None and not res.exhausted
        assert res.found_n == 4
        assert 90 < res.nodes <= 500
