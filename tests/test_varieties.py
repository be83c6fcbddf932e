import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import cli, constructions, core, green, search, terms, varieties
from skewlat.core import CayleyPair, validate
from skewlat.varieties import FLAG_NAMES, classify, nc5_free

# every formula the flags name, each once, in report order: the formulas of
# classify's pass over S
ON_S = tuple(dict.fromkeys(name for flag in FLAG_NAMES for name in varieties.FLAGS[flag]))


class TestClassify:
    def test_three_r0_flags(self, threes):
        r0, r1 = threes
        a = classify(r0).flags
        assert a["strongly_distributive"] and not a["co_strongly_distributive"]
        b = classify(r1).flags
        assert b["co_strongly_distributive"] and not b["strongly_distributive"]

    def test_all_flags_present(self, threes):
        flags = classify(threes[0]).flags
        for name in FLAG_NAMES:
            assert isinstance(flags[name], bool)
        assert isinstance(flags["quasi_distributive"], bool)

    def test_witness_is_lexicographically_first(self, threes):
        r0, _ = threes
        report = classify(r0)
        assert not report.flags["co_strongly_distributive"]
        w = report.witnesses["co_strongly_distributive"]
        lib = terms.library()
        # re-derive independently from the defining formulas
        for name in ("co-strong-dist1", "co-strong-dist2"):
            res = terms.holds(r0, lib[name])
            if res is not True:
                assert res == w
                break

    def test_lattice_flag(self):
        S = constructions.chain((1, 1, 1))
        r = classify(S).flags
        assert r["lattice"] and r["symmetric"] and r["distributive"]

    def test_rectangular_flag(self):
        S = constructions.rectangular(2, 2)
        r = classify(S).flags
        assert r["rectangular"] and not r["lattice"]

    def test_chain_is_distributive_and_cancellative(self):
        r = classify(constructions.chain((2, 1, 3))).flags
        assert r["distributive"] and r["cancellative"]

    def test_to_text_stable(self, capsys, tmp_path, threes):
        path = tmp_path / "3R0.skl"
        core.save(threes[0].pair, path)
        outputs = []
        for _ in range(2):
            cli.run(["props", str(path)])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_classify_makes_one_pass_on_s_and_one_on_s_over_d(census5, request):
    # each flag and witness as the flag's formulas give it one at a time:
    # the first that fails, with its first failing assignment
    lib = terms.library()

    def first_failure(S, names):
        return next((w for w in (terms.holds(S, lib[name]) for name in names) if w is not True), True)

    algebras = [*census5[4], constructions.fixed("NC5R")]
    expected = []
    for S in algebras:
        found = {flag: first_failure(S, varieties.FLAGS[flag]) for flag in FLAG_NAMES}
        found["quasi_distributive"] = first_failure(green.maximal_lattice_image(S), ("D1", "D2"))
        expected.append(found)
    passes = request.getfixturevalue("compiled_passes")  # spies from here on
    assert len(ON_S) == 19
    for S, found in zip(algebras, expected):
        passes.clear()
        report = classify(S)
        assert report.flags == {flag: w is True for flag, w in found.items()}
        assert report.witnesses == {flag: w for flag, w in found.items() if w is not True}
        quotient = green.maximal_lattice_image(S)
        assert passes == [(S.n, ON_S), (quotient.n, ("D1", "D2"))]


class TestNc5Free:
    def test_nc5r_itself_contains_a_copy(self):
        S = constructions.fixed("NC5R")
        res = nc5_free(S)
        assert res is not True
        name, subset, img = res
        assert name == "NC5R" and subset == (0, 1, 2, 3, 4)

    def test_nc5l_detected(self):
        S = constructions.fixed("NC5L")
        res = nc5_free(S)
        assert res is not True and res[0] == "NC5L"

    def test_small_algebras_are_free(self, census5):
        for n in (1, 2, 3, 4):
            for S in census5[n]:
                assert nc5_free(S) is True

    def test_matches_simple_cancellativity_n5(self, census5):
        lib = terms.library()
        for S in census5[5]:
            free = nc5_free(S)
            assert (free is True) == (terms.holds(S, lib["simple-canc"]) is True)

    def test_embedded_copy_in_product(self):
        S = constructions.direct_product(
            constructions.fixed("NC5R"), constructions.chain((1,))
        )
        res = nc5_free(S)
        assert res is not True and res[0] == "NC5R"


# --- a brute-force oracle for nc5_free ----------------------------------------


def _lattice(down):
    """The lattice on 0..4 whose element x has the lower set down[x]."""
    rng = range(5)

    def bound(sets, x, y):  # the element whose set is the largest of those in both
        return max((z for z in rng if z in sets[x] and z in sets[y]), key=lambda z: len(sets[z]))

    up = [{y for y in rng if x in down[y]} for x in rng]
    return CayleyPair.from_tables(
        [[bound(down, x, y) for y in rng] for x in rng], [[bound(up, x, y) for y in rng] for x in rng]
    )


# in list order: the first of these that embeds is the one reported
_ORACLE_TABLES = {
    "NC5R": constructions.fixed("NC5R").pair,
    "NC5L": constructions.fixed("NC5L").pair,
    "M3": _lattice([{0}, {0, 1}, {0, 2}, {0, 3}, {0, 1, 2, 3, 4}]),
    "N5": _lattice([{0}, {0, 1}, {0, 2}, {0, 2, 3}, {0, 1, 2, 3, 4}]),
}


def _is_isomorphism(S, img, T):
    """True iff img maps its keys one-to-one onto 0..4 and carries the
    tables of S on them to those of T."""
    m, j = S.pair.meet, S.pair.join
    return all(
        img.get(m[x][y]) == T.meet[img[x]][img[y]] and img.get(j[x][y]) == T.join[img[x]][img[y]]
        for x in img
        for y in img
    ) and sorted(img.values()) == list(range(5))


def test_every_forbidden_algebra_has_a_zero_and_a_one():
    # nc5_free looks for copies only among some b < t of the natural order
    # and three middles between them, one of which is incomparable to the
    # other two, and reads b as 0 and t as 4: a forbidden algebra not of this
    # shape would go unseen
    patterns = varieties._patterns()
    assert list(dict.fromkeys(name for name, _ in patterns.values())) == list(_ORACLE_TABLES)
    for name, T in _ORACLE_TABLES.items():
        leq = [[T.meet[x][y] == x == T.meet[y][x] for y in range(5)] for x in range(5)]
        assert all(leq[0][x] and leq[x][4] for x in range(5)), name
        assert any(all(not (leq[a][x] or leq[x][a]) for x in (1, 2, 3) if x != a) for a in (1, 2, 3)), name
        # each order of its middles, read as nc5_free reads a candidate, is
        # recognized, and its element map is an automorphism of T
        for middles in itertools.permutations((1, 2, 3)):
            label = {0: 0, middles[0]: 1, middles[1]: 2, middles[2]: 3, 4: 4}
            pattern = tuple(label[t[x][y]] for x, y in itertools.permutations(middles, 2) for t in (T.meet, T.join))
            found, order = patterns[pattern]
            assert found == name
            assert _is_isomorphism(validate(T), {x: order[label[x]] for x in range(5)}, T), (name, middles)


def test_the_forbidden_tables_validate():
    # nc5_free reads them as plain tables, with no validate of its own
    tables = {
        "NC5R": constructions.FIXED_TABLES["NC5R"],
        "NC5L": constructions.FIXED_TABLES["NC5L"],
        "M3": varieties._M3,
        "N5": varieties._N5,
    }
    for name, (meet, join) in tables.items():
        pair = CayleyPair.from_tables(meet, join)
        assert validate(pair).pair == pair == _ORACLE_TABLES[name], name


def test_the_first_nc5_free_in_a_process_validates_nothing():
    # the forbidden patterns are built from plain tables, so the first call,
    # which builds them, makes no validate call that later calls would not
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = """
import sys
from skewlat import core, varieties

calls = []
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is core.validate.__code__ and calls.append(1))
S = core.SkewLattice(core.CayleyPair.from_tables([[0]], [[0]]))
assert varieties.nc5_free(S) is True
sys.setprofile(None)
print(len(calls))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_a_chain_holds_no_forbidden_algebra():
    # C(256, 5), about 8.8e9 subsets, lie in [zero, one] intervals of this
    # chain, but no middle is incomparable to another
    assert nc5_free(constructions.chain((1,) * 256)) is True


def _brute_force_nc5(S):
    """nc5_free's answer from every closed 5-subset in combinations order
    and every bijection onto each forbidden table."""
    m, j = S.pair.meet, S.pair.join
    first = {}
    for subset in itertools.combinations(range(S.n), 5):
        if not all(m[x][y] in subset and j[x][y] in subset for x in subset for y in subset):
            continue
        for name, T in _ORACLE_TABLES.items():
            if name in first:
                continue
            for image in itertools.permutations(range(5)):
                img = dict(zip(subset, image))
                if _is_isomorphism(S, img, T):
                    first[name] = name, subset, img
                    break
    return next((first[name] for name in _ORACLE_TABLES if name in first), True)


def _relabel(S, perm):
    """S with each element x renamed perm[x]."""
    pinv = [perm.index(x) for x in range(S.n)]
    m, j = S.pair.meet, S.pair.join
    return validate(
        CayleyPair.from_tables(
            [[perm[m[a][b]] for b in pinv] for a in pinv], [[perm[j[a][b]] for b in pinv] for a in pinv]
        )
    )


def _assert_matches_oracle(S):
    got, want = nc5_free(S), _brute_force_nc5(S)
    if want is True:
        assert got is True
    else:
        assert got[:2] == want[:2]
        assert _is_isomorphism(S, got[2], _ORACLE_TABLES[got[0]])


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_nc5_free_matches_the_brute_force_oracle_on_the_census(data):
    # a labeling drawn for each member: the subset and the name reported
    # both depend on it
    for n in range(1, 7):
        for S in search.census(n):
            _assert_matches_oracle(_relabel(S, data.draw(st.permutations(range(n)))))


# the order-6 census member holding copies of NC5L and N5
_NC5L_AND_N5 = ((0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 1), (0, 0, 2, 2, 0, 2),
                (0, 0, 2, 3, 0, 3), (0, 4, 0, 0, 4, 4), (0, 1, 2, 3, 4, 5))


def test_nc5_free_matches_the_brute_force_oracle_on_products():
    order6 = next(S for S in search.census(6) if S.pair.meet == _NC5L_AND_N5)
    for left, sizes in ((constructions.fixed("NC5R"), (1, 1)), (constructions.fixed("NC5L"), (2,)), (order6, (1, 1))):
        S = constructions.direct_product(left, constructions.chain(sizes))
        assert _brute_force_nc5(S) is not True
        _assert_matches_oracle(S)


# --- the props report's decision ----------------------------------------------


@pytest.fixture(scope="module")
def props_algebras(constructed, built):
    """The census to order 6, the constructed algebras, the built ones
    (with rect(a, b) for a, b <= 4) and NC5L x chain((1, 1)): with it, the
    products behind the bench inputs are all here."""
    nc5l_product = constructions.direct_product(constructions.fixed("NC5L"), constructions.chain((1, 1)))
    return [S for n in range(1, 7) for S in search.census(n)] + constructed + built + [nc5l_product]


def _direct(S):
    return classify(S), nc5_free(S)


class TestDecide:
    def test_equals_classify_and_nc5_free(self, props_algebras):
        routed = 0
        for S in props_algebras:
            assert varieties.decide(S) == _direct(S), S.pair.flat()
            routed += green.proper_factors(S) != ()
        assert (len(props_algebras), routed) == (301, 90)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relabeled_algebras(self, props_algebras, data):
        S = data.draw(st.sampled_from(props_algebras))
        S = _relabel(S, data.draw(st.permutations(range(S.n))))
        assert varieties.decide(S) == _direct(S), S.pair.flat()


def _props(path, fmt):
    """The props report on the file, as (exit code, sha256 of stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["props", str(path), "--format", fmt])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _count_nc5_free(monkeypatch):
    calls, real = [], varieties.nc5_free
    monkeypatch.setattr(varieties, "nc5_free", lambda S: calls.append(S.n) or real(S))
    return calls


def test_props_checks_on_s_only_the_formulas_failing_on_a_factor(compiled_checks, tmp_path, monkeypatch):
    # rect(4, 4) fails only the handedness and commutation identities on
    # its 4-element factors; every other formula holds on both, so is never
    # checked on the 16 elements, and a simply cancellative S has no NC5
    path = tmp_path / "rect-4-4.skl"
    core.save(constructions.rectangular(4, 4).pair, path)
    calls = _count_nc5_free(monkeypatch)
    digests = {
        "text": "bc9d8f2a5118196ecf75a71d10278e09022a821b40ef6b36aade4f19b2b1df67",
        "tsv": "385aecde38fa6c11cfea43b8113183b9e2b8e8242fac1ab68259264c212cfff4",
    }
    singles = ("left-handed", "right-handed", "commute-meet", "commute-join")
    for fmt, digest in digests.items():
        compiled_checks.clear()
        assert _props(path, fmt) == (0, digest)
        assert compiled_checks == [(4, ON_S), (4, ON_S), *((16, name) for name in singles), (1, ("D1", "D2"))]
    assert calls == []


def test_props_on_a_handed_algebra_makes_classify_passes(compiled_checks, tmp_path, monkeypatch):
    S = constructions.chain((2, 2, 2))
    path = tmp_path / "chain-2-2-2.skl"
    core.save(S.pair, path)
    calls = _count_nc5_free(monkeypatch)
    quotient = green.maximal_lattice_image(S)
    assert _props(path, "text") == (0, "9c78aa550602a3bd36152a818192ebcafce99abfb7c9124f50b043dde9791a92")
    assert compiled_checks == [(S.n, ON_S), (quotient.n, ("D1", "D2"))]
    assert calls == []


@pytest.mark.parametrize(
    "right, line",
    [
        (constructions.chain((1, 1)), "nc5_free: false (contains NC5L on elements {0, 2, 4, 6, 8})"),
        (constructions.rectangular(2, 2), "nc5_free: false (contains NC5L on elements {0, 4, 8, 12, 16})"),
    ],
)
def test_props_searches_for_a_copy_once_when_not_simply_cancellative(capsys, tmp_path, monkeypatch, right, line):
    # handed, and not: the witness line is nc5_free's, from one call
    S = constructions.direct_product(constructions.fixed("NC5L"), right)
    path = tmp_path / "product.skl"
    core.save(S.pair, path)
    calls = _count_nc5_free(monkeypatch)
    report, free = varieties.decide(S)
    assert calls == [S.n] and free[0] == "NC5L" and not report.flags["simply_cancellative"]
    calls.clear()
    assert cli.run(["props", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line
    assert calls == [S.n]
