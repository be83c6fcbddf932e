import io
import itertools

import pytest

from skewlat import search
from skewlat.constructions import chain, direct_product, rectangular, subalgebras
from skewlat.core import CayleyPair, MalformedTableError, is_skew_lattice
from skewlat.search import (
    SearchSpec,
    canonical_form,
    census,
    enumerate_skew_lattices,
    find_counterexample,
    is_canonical,
    load_checkpoint,
    relabel,
    resolve_predicate,
    save_checkpoint,
    spec_hash,
)


def brute_force_count(n):
    """Direct iteration over all table pairs, deduplicated by relabeling."""
    seen = set()
    count = 0
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))
    for mvals in itertools.product(range(n), repeat=len(cells)):
        meet = [[i if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, mvals):
            meet[i][j] = v
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

    def test_falsify_filter(self):
        res = enumerate_skew_lattices(SearchSpec(n=3, falsify=("lattice",)))
        assert res.count_up_to_iso == 7 - 1  # all but the 3-chain

    def test_limit_short_circuits(self):
        res = enumerate_skew_lattices(SearchSpec(n=4, limit=5))
        assert res.count_up_to_iso == 5
        assert not res.exhausted

    def test_parallel_matches_sequential(self):
        seq = enumerate_skew_lattices(SearchSpec(n=4))
        par = enumerate_skew_lattices(SearchSpec(n=4), jobs=3)
        assert [S.pair for S in seq.witnesses] == [S.pair for S in par.witnesses]
        assert seq.count_up_to_iso == par.count_up_to_iso
        # symmetry pruning looks only at the current path, so the subtrees
        # of the first-cell split are cut exactly as in the sequential run
        assert seq.nodes == par.nodes

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
    pairs = {S.pair.flat(): S.pair for S in _constructed(max_n)}
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

    def test_spec_hash_sensitive_to_filters(self):
        assert spec_hash(SearchSpec(n=4)) != spec_hash(SearchSpec(n=4, satisfy=("lattice",)))

    @pytest.mark.parametrize(
        "field, value", [("limit", -1), ("max_nodes", -5), ("max_seconds", -1.0)]
    )
    def test_negative_budget_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchSpec(n=3, **{field: value})

    def test_time_budget(self):
        res = enumerate_skew_lattices(SearchSpec(n=5, max_seconds=0.05))
        assert not res.exhausted


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
