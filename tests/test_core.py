import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import constructions, core, green, search, terms, theorems, varieties, ybe
from skewlat.core import (
    AxiomError,
    CayleyPair,
    MalformedTableError,
    Violation,
    axiom_violations,
    canonical_form,
    from_text,
    orders,
    to_text,
    validate,
)

THREE_R0 = (
    ((0, 0, 0), (0, 1, 2), (0, 1, 2)),
    ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
)


def brute_force_is_skew_lattice(pair: CayleyPair) -> bool:
    """Independent oracle written straight from the definition."""
    n = pair.n
    for t in (pair.meet, pair.join):
        if any(t[x][x] != x for x in range(n)):
            return False
        for x, y, z in itertools.product(range(n), repeat=3):
            if t[t[x][y]][z] != t[x][t[y][z]]:
                return False
    m, j = pair.meet, pair.join
    for x, y in itertools.product(range(n), repeat=2):
        if m[x][j[x][y]] != x or j[x][m[x][y]] != x:
            return False
        if j[m[x][y]][y] != y or m[j[x][y]][y] != y:
            return False
    return True


class TestValidate:
    def test_three_r0_is_valid(self):
        S = validate(CayleyPair.from_tables(*THREE_R0))
        assert S.n == 3

    def test_one_element_algebra(self):
        S = validate(CayleyPair.from_tables([[0]], [[0]]))
        assert S.n == 1

    def test_idempotency_violation_reported(self):
        pair = CayleyPair.from_tables([[1, 0], [1, 1]], [[0, 1], [0, 1]])
        violations = axiom_violations(pair)
        assert any(v.law == "idempotency of meet" and v.witness == (0,) for v in violations)
        with pytest.raises(AxiomError):
            validate(pair)

    def test_all_violations_reported_not_just_first(self):
        pair = CayleyPair.from_tables([[1, 0], [0, 0]], [[1, 1], [1, 0]])
        violations = axiom_violations(pair)
        assert len(violations) >= 2

    def test_out_of_range_entry_is_malformed_not_axiom(self):
        with pytest.raises(MalformedTableError):
            CayleyPair.from_tables([[0, 2], [0, 1]], [[0, 1], [0, 1]])

    def test_ragged_table_is_malformed(self):
        with pytest.raises(MalformedTableError):
            CayleyPair.from_tables([[0, 1]], [[0]])

    def test_agrees_with_brute_force_oracle_n2(self):
        for flat in itertools.product(range(2), repeat=8):
            meet = [list(flat[0:2]), list(flat[2:4])]
            join = [list(flat[4:6]), list(flat[6:8])]
            try:
                pair = CayleyPair.from_tables(meet, join)
            except MalformedTableError:
                continue
            assert (not axiom_violations(pair)) == brute_force_is_skew_lattice(pair)

    def test_agrees_with_brute_force_oracle_n3_sample(self):
        import random

        rng = random.Random(7)
        agree = 0
        for _ in range(3000):
            meet = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            join = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            pair = CayleyPair.from_tables(meet, join)
            assert (not axiom_violations(pair)) == brute_force_is_skew_lattice(pair)
            agree += 1
        assert agree == 3000


def literal_axiom_violations(pair: CayleyPair, triples=None) -> list:
    """`axiom_violations` written formula by formula, in its order:
    idempotency, then associativity, then the absorption laws.
    Associativity is read at `triples`, in increasing order, when given,
    else at every triple."""
    n, m, j = pair.n, pair.meet, pair.join
    out = []
    for x in range(n):
        if m[x][x] != x:
            out.append(Violation("idempotency of meet", (x,)))
        if j[x][x] != x:
            out.append(Violation("idempotency of join", (x,)))
    for x, y, z in itertools.product(range(n), repeat=3) if triples is None else triples:
        if m[m[x][y]][z] != m[x][m[y][z]]:
            out.append(Violation("associativity of meet", (x, y, z)))
        if j[j[x][y]][z] != j[x][j[y][z]]:
            out.append(Violation("associativity of join", (x, y, z)))
    for x, y in itertools.product(range(n), repeat=2):
        if m[x][j[x][y]] != x:
            out.append(Violation("absorption x^(xvy)=x", (x, y)))
        if j[x][m[x][y]] != x:
            out.append(Violation("absorption xv(x^y)=x", (x, y)))
        if j[m[x][y]][y] != y:
            out.append(Violation("absorption (x^y)vy=y", (x, y)))
        if m[j[x][y]][y] != y:
            out.append(Violation("absorption (xvy)^y=y", (x, y)))
    return out


@functools.cache
def _small_census():
    return [S.pair for n in range(1, 5) for S in search.census(n)]


@st.composite
def table_pairs(draw):
    """Pairs of order <= 4 with entries in range, mostly not skew lattices:
    two arbitrary tables, or a census member with up to three cells
    rewritten, which fails few laws or none."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
        return CayleyPair.from_tables(draw(table), draw(table))
    pair = draw(st.sampled_from(_small_census()))
    n, tables = pair.n, [[list(row) for row in pair.meet], [list(row) for row in pair.join]]
    cell = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        tables[draw(st.integers(0, 1))][draw(cell)][draw(cell)] = draw(cell)
    return CayleyPair.from_tables(*tables)


@settings(max_examples=400, deadline=None)
@given(table_pairs())
def test_axiom_violations_match_the_formulas(pair):
    assert axiom_violations(pair) == literal_axiom_violations(pair)


def _rewritten(pair: CayleyPair, rng, cells) -> CayleyPair:
    """The pair with `cells` random cells given random values."""
    n, tables = pair.n, [[list(row) for row in pair.meet], [list(row) for row in pair.join]]
    for _ in range(cells):
        tables[rng.randrange(2)][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return CayleyPair.from_tables(*tables)


def test_axiom_violations_match_the_formulas_to_order_7_and_on_the_report_inputs(census5):
    # byte-row composition decides which (x, y) scan z: random pairs and
    # algebras with one to three cells rewritten, to order 7, and each
    # report input with one cell changed (orders 6 to 16)
    rng = random.Random(41)
    algebras = [S.pair for members in census5.values() for S in members] + [S.pair for S in search.census(6)]
    algebras += [
        constructions.chain((3, 4)).pair,
        constructions.chain((2, 2, 3)).pair,
        constructions.rectangular(1, 7).pair,
        constructions.rectangular(7, 1).pair,
    ]
    cases = [_rewritten(pair, rng, rng.randint(1, 3)) for pair in algebras for _ in range(2)]
    cases += [_rewritten(pair, rng, 0) for pair in algebras[::7]]
    for n in range(1, 8):
        for _ in range(30):
            cases.append(
                CayleyPair.from_tables(*([[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(2)))
            )
    inputs = Path(__file__).resolve().parent.parent / "bench" / "inputs"
    for path in sorted(inputs.glob("*.skl")):
        pair = core.load(path)
        cases.append(pair)
        for _ in range(4):
            while (changed := _rewritten(pair, rng, 1)) == pair:
                pass
            cases.append(changed)
    failing = 0
    assert {pair.n for pair in cases} >= {*range(1, 11), 12, 16}
    for pair in cases:
        expected = literal_axiom_violations(pair)
        assert axiom_violations(pair) == expected, pair
        failing += bool(expected)
    assert failing > len(cases) // 2


def test_axiom_violations_past_byte_rows():
    # rows of more than 256 elements do not fit bytes, so every (x, y) scans
    # z. A left-zero band (x ^ y = x, x v y = y) is a skew lattice; with one
    # meet cell (a, b) changed, associativity can fail only at a triple
    # whose products read that cell: (a, b, z), (x, y, b) with x ^ y = a,
    # (x, a, b), and (a, y, z) with y ^ z = b
    n, (a, b) = 257, (3, 200)
    meet, join = [[x] * n for x in range(n)], [list(range(n)) for _ in range(n)]
    assert axiom_violations(CayleyPair.from_tables(meet, join)) == []
    meet[a][b] = 100
    pair = CayleyPair.from_tables(meet, join)
    rng = range(n)
    triples = {(a, b, z) for z in rng} | {(x, a, b) for x in rng}
    triples |= {(x, y, b) for x in rng for y in rng if meet[x][y] == a}
    triples |= {(a, y, z) for y in rng for z in rng if meet[y][z] == b}
    expected = literal_axiom_violations(pair, sorted(triples))
    assert axiom_violations(pair) == expected
    assert {v.law for v in expected} == {"associativity of meet", "absorption x^(xvy)=x", "absorption xv(x^y)=x"}


class TestElementOps:
    def test_three_r0_meet_and_join_entries(self):
        S = validate(CayleyPair.from_tables(*THREE_R0))
        assert S.meet(1, 2) == 2
        assert S.join(0, 1) == 1

    def test_meet_is_idempotent_everywhere(self, census5):
        for S in census5[4]:
            assert all(S.meet(x, x) == x for x in S.elements())


class TestOrders:
    def test_three_r0_bottom_class(self):
        S = validate(CayleyPair.from_tables(*THREE_R0))
        o = orders(S)
        assert o.leq[0][1] and o.leq[0][2]

    def test_three_r0_preorder_not_order_inside_class(self):
        S = validate(CayleyPair.from_tables(*THREE_R0))
        o = orders(S)
        assert o.preceq[1][2] and o.preceq[2][1]
        assert not o.leq[1][2]

    def test_leq_reflexive_and_contained_in_preceq(self, census5):
        for n in (3, 4):
            for S in census5[n]:
                o = orders(S)
                for x in S.elements():
                    assert o.leq[x][x]
                    for y in S.elements():
                        assert not o.leq[x][y] or o.preceq[x][y]

    def test_leq_antisymmetric_and_transitive(self, census5):
        for S in census5[4]:
            o = orders(S)
            r = range(S.n)
            for x in r:
                for y in r:
                    if o.leq[x][y] and o.leq[y][x]:
                        assert x == y
                    for z in r:
                        if o.leq[x][y] and o.leq[y][z]:
                            assert o.leq[x][z]


def _report_inputs():
    return sorted((Path(__file__).resolve().parent.parent / "bench" / "inputs").glob("*.skl"))


def _int_parsed(text) -> CayleyPair:
    """The pair from_tables makes of text's rows read with int(), an oracle
    for files with no errors."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(lines[0])
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    return CayleyPair.from_tables(rows[:n], rows[n:])


def _respell_entries(text, spell):
    """text with each table entry v written spell(v); the count line kept."""
    head, *rows = text.split("\n")
    return "\n".join([head, *(" ".join(spell(int(tok)) for tok in ln.split()) for ln in rows)])


def leading_zeros(text):
    return _respell_entries(text, lambda v: f"0{v}")


def plus_signs(text):
    return _respell_entries(text, lambda v: f"+{v}")


def arabic_indic_digits(text):
    return _respell_entries(text, lambda v: "".join(chr(0x660 + int(d)) for d in str(v)))


def tabs(text):
    return text.replace(" ", "\t")


def crlf(text):
    return text.replace("\n", "\r\n")


def trailing_spaces(text):
    return text.replace("\n", "  \n")


def comments_and_blank_lines_between_rows(text):
    return "\n# between rows\n\n".join(text.split("\n"))


def one_leading_zero(text):
    return text.replace("\n", "\n0", 1)


_RESPELLINGS = (
    leading_zeros,
    plus_signs,
    arabic_indic_digits,
    tabs,
    crlf,
    trailing_spaces,
    comments_and_blank_lines_between_rows,
    one_leading_zero,
)

_THREE_R0_TEXT = "3\n0 0 0\n0 1 2\n0 1 2\n\n0 1 2\n1 1 1\n2 2 2\n"

# each message pinned literally: the token table must leave every error to
# the int() parser and from_tables
_MALFORMED = {
    "value n": (_THREE_R0_TEXT.replace("0 1 2\n0 1 2\n\n", "0 1 3\n0 1 2\n\n"), "meet[1][2] = 3 out of range 0..2"),
    "value -1": (_THREE_R0_TEXT.replace("1 1 1", "1 -1 1"), "join[1][1] = -1 out of range 0..2"),
    "short row": (_THREE_R0_TEXT.replace("0 1 2\n0 1 2\n\n", "0 1\n0 1 2\n\n"), "meet row 1 has length 2, expected 3"),
    "long row": (_THREE_R0_TEXT.replace("1 1 1", "1 1 1 1"), "join row 1 has length 4, expected 3"),
    "token x": (_THREE_R0_TEXT.replace("2 2 2", "2 x 2"), "bad table row '2 x 2'"),
    "token 1.0": (_THREE_R0_TEXT.replace("1 1 1", "1 1.0 1"), "bad table row '1 1.0 1'"),
    "missing row": (_THREE_R0_TEXT.replace("2 2 2\n", ""), "expected 6 table rows, got 5"),
    "n = 0": ("0\n", "empty table"),
    "n = -1": ("-1\n", "expected -2 table rows, got 0"),
    "count x": ("three\n", "expected element count, got 'three'"),
    "empty file": ("", "empty algebra file"),
    "comments only": ("# a\n\n# b\n", "empty algebra file"),
}


class TestFileFormat:
    def test_round_trip_is_bit_exact(self, census5):
        for n in (1, 3, 4):
            for S in census5[n]:
                text = to_text(S.pair)
                assert from_text(text) == S.pair
                assert to_text(from_text(text)) == text

    def test_comments_and_blank_lines_tolerated(self):
        text = "# demo\n3\n0 0 0\n0 1 2\n0 1 2\n\n0 1 2\n1 1 1\n2 2 2\n"
        pair = from_text(text)
        assert pair == CayleyPair.from_tables(*THREE_R0)

    def test_load_save(self, tmp_path):
        path = tmp_path / "a.skl"
        pair = CayleyPair.from_tables(*THREE_R0)
        core.save(pair, path)
        assert core.load(path) == pair

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            from_text("2\n0 0\n")

    def test_canonical_text_parses_to_the_pair_and_to_from_tables_of_its_ints(self, census5):
        pairs = [S.pair for members in census5.values() for S in members]
        pairs += [core.load(path) for path in _report_inputs()]
        assert len(pairs) == 85 + 14
        for pair in pairs:
            text = to_text(pair)
            assert from_text(text) == pair == _int_parsed(text)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabeled_canonical_text_round_trips(self, data):
        pair = data.draw(st.sampled_from([core.load(path) for path in _report_inputs()]))
        relabeled = CayleyPair.from_tables(*_relabeled(pair, data.draw(st.permutations(range(pair.n)))))
        text = to_text(relabeled)
        assert from_text(text) == relabeled == _int_parsed(text)

    @pytest.mark.parametrize("respell", _RESPELLINGS, ids=[r.__name__ for r in _RESPELLINGS])
    def test_respelled_text_parses_to_the_canonical_pair(self, respell):
        for path in _report_inputs():
            pair = core.load(path)
            respelled = respell(to_text(pair))
            assert respelled != to_text(pair)
            assert from_text(respelled) == pair

    @pytest.mark.parametrize("text, message", _MALFORMED.values(), ids=list(_MALFORMED))
    def test_malformed_text_keeps_its_message(self, text, message):
        with pytest.raises(MalformedTableError) as info:
            from_text(text)
        assert type(info.value) is MalformedTableError and str(info.value) == message

    def test_canonical_text_skips_from_tables(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("CayleyPair.from_tables was called")

        texts = [to_text(core.load(path)) for path in _report_inputs()]
        expected = [_int_parsed(text) for text in texts]
        monkeypatch.setattr(CayleyPair, "from_tables", forbidden)
        assert [from_text(text) for text in texts] == expected
        with pytest.raises(AssertionError, match="from_tables was called"):
            from_text(one_leading_zero(texts[0]))


def _relabeled(pair: CayleyPair, perm):
    """The two tables with each element x renamed perm[x]."""
    n = pair.n
    tables = [[[0] * n for _ in range(n)] for _ in range(2)]
    for new, t in zip(tables, (pair.meet, pair.join)):
        for a, b in itertools.product(range(n), repeat=2):
            new[perm[a]][perm[b]] = perm[t[a][b]]
    return tables


def brute_force_canonical_form(pair: CayleyPair):
    """The least flat table over all n! relabelings."""
    return min(
        tuple(v for t in _relabeled(pair, perm) for row in t for v in row)
        for perm in itertools.permutations(range(pair.n))
    )


def _canonical_cases(census5):
    rng = random.Random(10)
    for n, members in census5.items():
        for S in members:
            for _ in range(2):
                yield CayleyPair.from_tables(*_relabeled(S.pair, rng.sample(range(n), n)))
    inputs = Path(__file__).resolve().parent.parent / "bench" / "inputs"
    for path in sorted(inputs.glob("*.skl")):
        pair = core.load(path)
        if pair.n <= 7:
            yield pair
    # raw pairs; the even-numbered ones draw the diagonal at random too
    for k in range(200):
        n = rng.randint(1, 4)
        yield CayleyPair.from_tables(
            *[
                [[a if k % 2 and a == b else rng.randrange(n) for b in range(n)] for a in range(n)]
                for _ in range(2)
            ]
        )


def test_canonical_form_matches_brute_force(census5):
    cases = list(_canonical_cases(census5))
    assert any(pair.n == 7 for pair in cases)
    assert any(any(pair.meet[x][x] != x for x in range(pair.n)) for pair in cases)
    for pair in cases:
        assert canonical_form(pair).flat() == brute_force_canonical_form(pair), pair


def test_is_canonical_agrees_with_canonical_form(census5):
    # on each case, its canonical form and a relabeling of each: a pair is
    # canonical exactly when it is its own canonical form
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for pair in _canonical_cases(census5):
        least = canonical_form(pair)
        for case in (pair, least, CayleyPair.from_tables(*_relabeled(pair, rng.sample(range(pair.n), pair.n)))):
            verdict = core.is_canonical(case)
            assert verdict == (canonical_form(case) == case) == (case.flat() == least.flat()), case
            seen[verdict] += 1
    assert seen[True] and seen[False]


# The record types are tuples (typing.NamedTuple) or, for the mutable search
# and ring-band results, __slots__ classes. These pin what the records
# promise their callers: no assignment to an immutable one, the checks of
# the two specs on construction and on _replace, equality that ignores
# PairMap.keeps, one hash per Formula text, and the Name(field=value) repr
# with the hash of the field tuple, which keeps set and dict orders.
S3 = constructions.rectangular(1, 3)
IMMUTABLE_RECORDS = {
    "Violation": lambda: Violation("idempotency of meet", (0,)),
    "CayleyPair": lambda: S3.pair,
    "SkewLattice": lambda: S3,
    "ElementPairOrder": lambda: orders(S3),
    "Partition": lambda: green.green_relations(S3)[2],
    "SearchSpec": lambda: search.SearchSpec(n=3),
    "CounterexampleResult": lambda: search.find_counterexample(search.SearchSpec(n=2, satisfy=("lattice",))),
    "Formula": lambda: terms.parse("x ^ y = y ^ x"),
    "PairMap": lambda: ybe.build_map(S3, "update"),
    "BraidWitness": lambda: ybe.BraidWitness((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    "PowerClass": lambda: ybe.power_class(ybe.build_map(S3, "update")),
    "VarietyReport": lambda: varieties.classify(S3),
    "BatteryResult": lambda: theorems.run_battery(1),
    "RingSpec": lambda: constructions.RingSpec("ut", 2, 2),
}


@pytest.mark.parametrize("name", IMMUTABLE_RECORDS)
def test_immutable_records_refuse_assignment(name):
    record = IMMUTABLE_RECORDS[name]()
    assert type(record).__name__ == name
    for attr in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


BAD_SPECS = {
    "SearchSpec(n=0)": lambda: search.SearchSpec(n=0),
    "SearchSpec(n=4)._replace(n=0)": lambda: search.SearchSpec(n=4)._replace(n=0),
    "SearchSpec(n=4)._replace(limit=-1)": lambda: search.SearchSpec(n=4)._replace(limit=-1),
    "RingSpec(ut,2,4)": lambda: constructions.RingSpec("ut", 2, 4),
    "RingSpec(ut,2,3)._replace(mod=4)": lambda: constructions.RingSpec("ut", 2, 3)._replace(mod=4),
}


@pytest.mark.parametrize("bad", BAD_SPECS)
def test_specs_check_on_construction_and_on_replace(bad):
    with pytest.raises(ValueError):
        BAD_SPECS[bad]()


def test_pair_maps_differing_only_in_keeps_are_equal():
    m = ybe.build_map(S3, "update")
    other = ybe.PairMap(m.n, m.table, None if m.keeps is not None else 1)
    assert m.keeps != other.keeps
    assert m == other and not m != other and hash(m) == hash(other) == hash((m.n, m.table))
    assert m != ybe.build_map(S3, "strong")


def test_formulas_of_one_text_are_equal_with_sorted_variables():
    f, g = (terms.parse("z ^ x = x ^ (y v z)") for _ in range(2))
    assert f is not g and f == g and hash(f) == hash(g) == hash((f.premises, f.conclusion))
    assert f.variables == ("x", "y", "z")


def test_record_repr_and_hash_read_the_fields():
    v = Violation("idempotency of meet", (0,))
    assert repr(v) == "Violation(law='idempotency of meet', witness=(0,))"
    assert hash(v) == hash(("idempotency of meet", (0,)))
