import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import green, search, terms, theorems, varieties, ybe
from skewlat.constructions import RingSpec, chain, direct_product, fixed, rectangular, ring_band, subalgebras
from skewlat.core import CayleyPair, MalformedTableError, is_skew_lattice, validate
from skewlat.search import (
    SearchSpec,
    canonical_form,
    census,
    enumerate_skew_lattices,
    find_counterexample,
    is_canonical,
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
            if not is_skew_lattice(pair):
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
        # at n=5 every non-canonical labeling is undercut in its meet table,
        # so the search cuts it before the leaf and is_canonical rejects none
        leaves = []
        real = search.is_canonical

        def spy(pair):
            leaves.append(real(pair))
            return leaves[-1]

        monkeypatch.setattr(search, "is_canonical", spy)
        res = enumerate_skew_lattices(SearchSpec(n=5))
        assert res.count_up_to_iso == 53
        assert leaves == [True] * 53


def _flats_digest(witnesses):
    """sha256 of the witness flats, one line of space-separated values each."""
    text = "".join(" ".join(map(str, S.pair.flat())) + "\n" for S in witnesses)
    return hashlib.sha256(text.encode()).hexdigest()


def test_search_counters_are_pinned():
    # nodes and witnesses are deterministic; a speed-up must leave them alone
    runs = [enumerate_skew_lattices(SearchSpec(n=n)) for n in range(1, 7)]
    assert [r.nodes for r in runs] == [0, 12, 158, 1554, 14836, 157170]
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
    assert (res.witness, res.exhausted, res.nodes) == (None, True, 9682)


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
        a, b = ybe.solution_report(S, kind), ybe.solution_report(T, kind)
        assert (a.braid is None, a.power, a.left_nondegenerate, a.right_nondegenerate) == (
            b.braid is None, b.power, b.left_nondegenerate, b.right_nondegenerate
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

    def test_handedness_flags_agree_with_green(self, census5):
        left, right = resolve_predicate("left_handed"), resolve_predicate("right_handed")
        for n in range(1, 6):
            for S in census5[n]:
                assert left(S) == green.is_left_handed(S)
                assert right(S) == green.is_right_handed(S)

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            resolve_predicate("definitely-not-a-thing")


class TestBudgetsAndCheckpoints:
    def test_node_budget_yields_checkpoint(self):
        res = enumerate_skew_lattices(SearchSpec(n=4, max_nodes=100))
        assert not res.exhausted
        assert res.checkpoint is not None

    def test_resume_completes_the_count(self):
        for satisfy in ((), ("lattice",)):
            spec = SearchSpec(n=4, satisfy=satisfy)
            full = enumerate_skew_lattices(spec)
            budget = SearchSpec(n=4, satisfy=satisfy, max_nodes=full.nodes // 2)
            partial = enumerate_skew_lattices(budget)
            assert not partial.exhausted
            resumed = enumerate_skew_lattices(spec, resume=partial.checkpoint)
            assert resumed.exhausted
            # exactly once: the two runs split the witnesses, in order
            assert [S.pair for S in partial.witnesses + resumed.witnesses] == [
                S.pair for S in full.witnesses
            ]
            assert partial.count_up_to_iso + resumed.count_up_to_iso == full.count_up_to_iso

    def test_checkpoint_file_round_trip(self, tmp_path):
        spec = SearchSpec(n=4, satisfy=("lattice",))
        res = enumerate_skew_lattices(SearchSpec(n=4, satisfy=("lattice",), max_nodes=50))
        path = tmp_path / "ck.txt"
        save_checkpoint(spec, res.checkpoint, path)
        assert load_checkpoint(spec, path) == tuple(res.checkpoint)

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
        assert lines == [search.CHECKPOINT_HEADER, spec_hash(spec), "0 1"]
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="not a checkpoint file"):
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
        assert load_checkpoint(spec, path) == (0, 1)
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
