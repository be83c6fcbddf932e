import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import search, terms
from skewlat.core import CayleyPair, SkewLattice, inverse, validate
from skewlat.terms import (
    Formula,
    ParseError,
    VariableLimitError,
    compile_prune,
    compile_table,
    format_equation,
    format_term,
    holds,
    identity_names,
    library,
    parse,
    parse_library,
    parse_term,
)

THREE_R0 = validate(
    CayleyPair.from_tables(
        ((0, 0, 0), (0, 1, 2), (0, 1, 2)),
        ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
    )
)


class TestParser:
    def test_precedence_meet_binds_tighter(self):
        f = parse("x ^ y v z = x")
        assert f.conclusion[0] == ("join", ("meet", ("var", "x"), ("var", "y")), ("var", "z"))

    def test_left_associativity(self):
        f = parse("x ^ y ^ z = x")
        assert f.conclusion[0] == ("meet", ("meet", ("var", "x"), ("var", "y")), ("var", "z"))

    def test_parentheses_override(self):
        f = parse("x ^ (y v z) = x")
        assert f.conclusion[0] == ("meet", ("var", "x"), ("join", ("var", "y"), ("var", "z")))

    def test_quasi_identity_premises(self):
        f = parse("x ^ y = x ^ z, x v y = x v z => y = z")
        assert len(f.premises) == 2
        assert not f.is_identity

    def test_v_is_an_operator_not_a_variable(self):
        f = parse("x v y = y")
        assert f.variables == ("x", "y")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x ^ = y")
        assert "position" in str(exc.value)

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse("(x ^ y = y")

    def test_variable_limit(self):
        text = " ^ ".join("abcdefghi"[:9]) + " = a"
        with pytest.raises(VariableLimitError):
            parse(text)

    def test_eight_variables_allowed(self):
        text = " ^ ".join("abcdefgh") + " = a"
        assert len(parse(text).variables) == 8

    def test_parse_term_reads_one_term(self):
        assert parse_term("(x ^ y) v x") == parse("(x ^ y) v x = x").conclusion[0]
        for text in ("x ^", "x = y", "x y", ""):
            with pytest.raises(ParseError):
                parse_term(text)


def random_term(rng, variables, depth):
    if depth == 0 or rng.random() < 0.3:
        return ("var", rng.choice(variables))
    op = rng.choice(("meet", "join"))
    return (op, random_term(rng, variables, depth - 1), random_term(rng, variables, depth - 1))


class TestFormatRoundTrip:
    def test_random_terms_round_trip(self):
        rng = random.Random(11)
        for _ in range(500):
            t = random_term(rng, "xyz", 4)
            f = parse(format_equation(t, t))
            assert f.conclusion == (t, t)
            assert parse_term(format_term(t)) == t

    @given(st.integers(min_value=0, max_value=2**40))
    def test_hypothesis_round_trip(self, seed):
        rng = random.Random(seed)
        t = random_term(rng, "ab", 5)
        assert parse(format_term(t) + " = a").conclusion[0] == t

    def test_format_uses_minimal_parens(self):
        t = ("join", ("meet", ("var", "x"), ("var", "y")), ("var", "z"))
        assert format_term(t) == "x ^ y v z"


def oracle_holds(S, f, oracle_evaluate):
    """True, or the first failing assignment, by trying every assignment in
    lexicographic order with the plain evaluator."""
    lhs, rhs = f.conclusion
    for env_vals in itertools.product(S.elements(), repeat=len(f.variables)):
        env = dict(zip(f.variables, env_vals))
        premises_hold = all(oracle_evaluate(S, l, env) == oracle_evaluate(S, r, env) for l, r in f.premises)
        if premises_hold and oracle_evaluate(S, lhs, env) != oracle_evaluate(S, rhs, env):
            return env
    return True


def sides(f):
    """Each equation's two terms, premises first."""
    return tuple(t for eq in f.premises + (f.conclusion,) for t in eq)


def compiled_sides(S, f):
    """f's sides at every assignment: the compiled table of sides(f) over
    f's variables, read as table[x][y]... (see `cell`)."""
    return compile_table(sides(f), f.variables)(S.pair.meet, S.pair.join, range(S.n))


def cell(table, values):
    for v in values:
        table = table[v]
    return table


def padded_value(meet, join, term, env):
    """A term's value on tables padded with -1, by recursion: -1 as soon as
    an operand reads -1, else the table cell."""
    if term[0] == "var":
        return env[term[1]]
    a, b = padded_value(meet, join, term[1], env), padded_value(meet, join, term[2], env)
    if a < 0 or b < 0:
        return -1
    return (meet if term[0] == "meet" else join)[a][b]


def oracle_sides(S, f, env, oracle_evaluate):
    return tuple(oracle_evaluate(S, t, env) for t in sides(f))


class TestEvaluation:
    def test_holds_returns_lexicographically_first_counterexample(self):
        f = parse("x ^ y = y ^ x")
        res = holds(THREE_R0, f)
        assert res == {"x": 1, "y": 2}

    def test_holds_true_on_identity(self):
        assert holds(THREE_R0, parse("x ^ x = x")) is True

    def test_quasi_identity_premises_gate_conclusion(self):
        # rectangular 2-element: x ^ y = x, x v y = y; commuting pairs are
        # only the diagonal, so the symmetry quasi-identity holds
        S = validate(CayleyPair.from_tables([[0, 0], [1, 1]], [[0, 1], [0, 1]]))
        assert holds(S, parse("x ^ y = y ^ x => x v y = y v x")) is True
        assert holds(S, parse("x v y = y v x => x = y")) is True

    def test_against_nested_loop_oracle(self, census5, oracle_evaluate):
        # identities, and quasi-identities whose premises read only the outer
        # variables, so that a premise is known loops before its conclusion;
        # raw random tables beside the census make one-variable premises fail too
        rng = random.Random(23)

        def equation(variables, depth):
            return random_term(rng, variables, depth), random_term(rng, variables, depth)

        formulas = [
            parse(format_equation(random_term(rng, "xyz", 3), random_term(rng, "xyz", 3)))
            for _ in range(40)
        ]
        for _ in range(60):
            premises = tuple(equation(rng.choice(("x", "xy", "xyz")), 2) for _ in range(rng.randint(1, 2)))
            formulas.append(Formula(premises, equation("xyz", 2)))
        raw = [
            SkewLattice(CayleyPair.from_tables(*(
                [[rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(2)
            )))
            for _ in range(6)
        ]
        failures = 0
        for S in [*census5[4][:6], *raw]:
            for f in formulas:
                expected = oracle_holds(S, f, oracle_evaluate)
                assert holds(S, f) == expected, (f, S)
                failures += expected is not True
                # the table body, on every side at every assignment
                table = compiled_sides(S, f)
                for values in itertools.product(S.elements(), repeat=len(f.variables)):
                    env = dict(zip(f.variables, values))
                    assert cell(table, values) == oracle_sides(S, f, env, oracle_evaluate), (f, S, env)
        assert failures > 100

    def test_one_pass_over_many_formulas_against_the_oracle(self, census5, oracle_evaluate):
        # groups that mix one to four variables, identities and
        # quasi-identities; the formulas over one variable set draw their
        # terms from one pool, so they share subterms. Each formula's
        # verdict is its own, as if checked alone
        rng = random.Random(29)
        letters = "awxz"  # sorted positions need not follow the alphabet's gaps

        def formula(pool):
            def term():
                return rng.choice(pool) if rng.random() < 0.5 else (
                    rng.choice(("meet", "join")), rng.choice(pool), rng.choice(pool)
                )

            premises = tuple((term(), term()) for _ in range(rng.choice((0, 0, 1, 2))))
            return Formula(premises, (term(), term()))

        groups = []
        for _ in range(40):
            sets = ["".join(sorted(rng.sample(letters, rng.randint(1, 4)))) for _ in range(2)]
            pools = {v: [random_term(rng, v, 2) for _ in range(4)] for v in sets}
            groups.append(tuple(formula(pools[rng.choice(sets)]) for _ in range(rng.randint(2, 6))))
        for _ in range(10):
            # t = w with w not in t fails wherever n > 1, so these passes end
            # as soon as the last of their formulas fails
            group = []
            for k in (2, 2, 3, 4):
                *inner, w = rng.sample(letters, k)
                group.append(Formula((), (random_term(rng, inner, 2), ("var", w))))
            groups.append(tuple(group))
        raw = [
            SkewLattice(CayleyPair.from_tables(*(
                [[rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(2)
            )))
            for _ in range(4)
        ]
        verdicts, all_failed = 0, 0
        for S in [*census5[3], *census5[4][::4], *raw]:
            for group in groups:
                found = terms.holds_each(S, group)
                expected = tuple(oracle_holds(S, f, oracle_evaluate) for f in group)
                assert found == expected, (group, S)
                verdicts += len(group)
                all_failed += S.n > 1 and True not in expected
        assert verdicts > 3000 and all_failed > 150

    def test_deep_terms_evaluate(self, oracle_evaluate):
        # bound one subterm per line, so depth is no limit of the compiler
        f = parse(" ^ ".join(["x"] * 300 + ["y"]) + " = x ^ y")
        assert holds(THREE_R0, f) is True
        env = {"x": 1, "y": 2}
        assert compiled_sides(THREE_R0, f)[1][2] == oracle_sides(THREE_R0, f, env, oracle_evaluate) == (2, 2)
        # and the prune body: x ^ ... ^ x ^ y = y ^ x fails at (1, 2) and (2, 1)
        pairs = list(itertools.product(range(3), repeat=2))
        meet, join = THREE_R0.pair.meet, THREE_R0.pair.join
        assert compile_prune((f,))(meet, join, pairs) is True
        g = parse(" ^ ".join(["x"] * 300 + ["y"]) + " = y ^ x")
        assert compile_prune((g,))(meet, join, pairs) is False
        assert compile_prune((g,))(meet, join, [p for p in pairs if p not in ((1, 2), (2, 1))]) is True
        assert compile_prune((g,))(meet, join, [(2, 1)]) is False

    def test_depth_limit(self):
        # a term at the limit, in operators or in parentheses, still compiles
        # and evaluates; one level more is a parse error, not a RecursionError
        d = terms.MAX_DEPTH
        chain = " ^ ".join(["x"] * d + ["y"])
        nested = "x ^ (" * (d - 1) + "x ^ y" + ")" * (d - 1)
        for text in (chain, nested):
            assert holds(THREE_R0, parse(text + " = x ^ y")) is True
            assert parse_term(format_term(parse_term(text))) == parse_term(text)
        for text in (chain + " ^ y", "(" * (d + 1) + "x" + ")" * (d + 1)):
            with pytest.raises(ParseError, match="deeper than"):
                parse(text + " = x")

    def test_equal_formulas_share_one_hash_and_one_compiled_check(self):
        # the hash of a formula is computed once, and a formula parsed again
        # finds the check compiled for the first
        a, b = parse("x ^ (y v z) ^ x = x ^ y ^ x"), parse("x ^ (y v z) ^ x = x ^ y ^ x")
        assert a is not b and a == b and hash(a) == hash(b)
        first = terms.holds_each(THREE_R0, (a, a))
        before = terms._compile.cache_info()
        assert terms.holds_each(THREE_R0, (b, b)) == first
        after = terms._compile.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_unknown_cells_make_the_value_unknown(self):
        # tables padded with a row and column of -1, as in the search
        meet = [[0, 0, -1], [-1, 1, -1], [-1, -1, -1]]
        join = [[-1] * 3] * 3
        f, g = parse("x ^ y ^ x = x ^ y"), parse("x v y = y")
        table = compile_table(sides(f), f.variables)(meet, join, range(2))
        assert table[0][1] == (0, 0)
        assert table[1][0] == (-1, -1)
        assert table[1][1] == (1, 1)
        assert compile_table(sides(g), g.variables)(meet, join, range(2))[0][1] == (-1, 1)
        # a prune fails only where both sides are known and differ: not
        # where both read -1, nor where only the left or only the right does
        h, k = parse("y = x v y"), parse("x ^ y = y")  # k fails at (0, 1)
        assert compile_prune((f,))(meet, join, [(0, 1), (1, 0), (1, 1)]) is True
        assert compile_prune((g,))(meet, join, [(0, 1)]) is True
        assert compile_prune((h,))(meet, join, [(0, 1)]) is True
        assert compile_prune((k,))(meet, join, [(1, 0), (1, 1)]) is True
        assert compile_prune((k,))(meet, join, [(1, 0), (0, 1), (1, 1)]) is False
        assert compile_prune((f, g, h, k))(meet, join, [(0, 1)]) is False
        assert compile_prune((f, g, h))(meet, join, [(0, 1), (1, 0), (1, 1)]) is True

    def test_prune_against_the_padded_oracle(self, census5):
        # identities in two variables on census members whose tables are
        # padded with -1 and partly erased, as the search's partial tables
        # are: a prune over a list of assignments fails exactly when, at one
        # of them, some identity's two sides are both known and differ
        rng = random.Random(31)
        formulas = []
        while len(formulas) < 60:
            f = parse(format_equation(random_term(rng, "aw", 3), random_term(rng, "aw", 3)))
            if len(f.variables) == 2:
                formulas.append(f)
        seen = {"violated": 0, "one side unknown": 0, "both unknown": 0, "equal": 0}
        for S in [*census5[3], *census5[4][::3], *census5[5][::9]]:
            n = S.n
            for erased in (0.0, 0.3, 0.6):
                meet, join = (
                    [[-1 if rng.random() < erased and x != y else t[x][y] for y in range(n)] + [-1] for x in range(n)]
                    + [[-1] * (n + 1)]
                    for t in (S.pair.meet, S.pair.join)
                )
                pairs = list(itertools.product(range(n), repeat=2))
                verdicts = []
                for f in formulas:
                    fine = []
                    for values in pairs:
                        env = dict(zip(f.variables, values))
                        lhs, rhs = (padded_value(meet, join, t, env) for t in f.conclusion)
                        if lhs >= 0 and rhs >= 0:
                            fine.append(lhs == rhs)
                            seen["equal" if lhs == rhs else "violated"] += 1
                        else:
                            fine.append(True)
                            seen["one side unknown" if max(lhs, rhs) >= 0 else "both unknown"] += 1
                    prune = compile_prune((f,))
                    assert [prune(meet, join, [p]) for p in pairs] == fine, (f, meet, join)
                    assert prune(meet, join, pairs) is all(fine)
                    verdicts.append(all(fine))
                # several identities in one body: each one's verdict, joined
                for k in range(0, len(formulas), 4):
                    assert compile_prune(tuple(formulas[k:k + 4]))(meet, join, pairs) is all(verdicts[k:k + 4])
        assert min(seen.values()) > 1000, seen

    def test_variable_names_stay_out_of_the_generated_code(self):
        # a formula's variables are passed by position, so any letters work
        f = parse("j ^ m = m ^ j")
        g = parse("a ^ b = b ^ a")
        assert holds(THREE_R0, f) == {"j": 1, "m": 2}
        assert holds(THREE_R0, g) == {"a": 1, "b": 2}

    def test_column_reads_against_the_oracle(self, census5, constructed, oracle_evaluate):
        # op[t][v] with t bound in a deeper loop than the variable v reads a
        # column of op, bound at v's depth. Over w, x, y, z (v0..v3), for
        # each table and each v of depths 0-2: absorption and associativity
        # around (t op v), which hold, random right sides, which mostly
        # fail, and quasi-identities, alone and in one pass together
        rng = random.Random(37)
        letters = "wxyz"
        other = {"meet": "join", "join": "meet"}
        formulas, reads = [], []
        for op in ("meet", "join"):
            for depth in range(3):
                v = ("var", letters[depth])
                # t reads z, the deepest variable, and every formula reads
                # all four, so each variable keeps its depth
                every = parse_term(rng.choice(("z ^ y ^ (x v w)", "z v y v x ^ w")))
                t = (rng.choice(("meet", "join")), random_term(rng, letters[depth + 1:], 2), every)
                u = random_term(rng, letters, 1)
                column = (op, t, v)
                formulas += [
                    Formula((), ((op, (other[op], t, v), v), v)),
                    Formula((), ((op, (op, t, u), v), (op, t, (op, u, v)))),
                    Formula((), (column, random_term(rng, letters, 2))),
                    Formula(((random_term(rng, letters, 1), random_term(rng, letters, 1)),), (column, u)),
                ]
                reads += [f"{op[0]}c_v{depth}"] * 4
        for f, name in zip(formulas, reads):
            assert name in terms._compile("check", (f,)).__code__.co_varnames, (str(f), name)
        verdicts = {"holds": 0, "fails": 0}
        for S in [*(S for members in census5.values() for S in members), *constructed]:
            # the oracle is slow at order 10 and 12: check only the formulas
            # that fail early there
            group = formulas if S.n <= 6 else formulas[2::4]
            expected = tuple(oracle_holds(S, f, oracle_evaluate) for f in group)
            assert terms.holds_each(S, group) == expected, S
            assert tuple(holds(S, f) for f in group) == expected, S
            for e in expected:
                verdicts["holds" if e is True else "fails"] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_a_check_builds_a_column_table_only_for_a_table_it_reads_by_column(self, monkeypatch):
        def source(*texts):
            made = []
            monkeypatch.setattr(terms, "_define", lambda source, name: made.append(source))
            terms._compile.__wrapped__("check", tuple(parse(text) for text in texts))
            return made[0]

        meet, join = "    mc = tuple(zip(*m))\n", "    jc = tuple(zip(*j))\n"
        # rows read from deeper loops, and lookups within one loop, read no column
        for texts in (("x ^ (y v z) = x ^ y v x ^ z",), ("x ^ (x v y) = x", "x v y ^ z = (x v y) ^ (x v z)")):
            assert "zip" not in source(*texts)
        # (x ^ y) ^ x reads m[t][x] with t bound in a deeper loop than x
        code = source("x ^ y ^ x = x ^ y")
        assert meet in code and "jc" not in code and "mc_v0 = mc[v0]" in code
        code = source("x v y v x = x v y")
        assert join in code and "mc" not in code
        code = source("x ^ y ^ x = x ^ y", "x v y = y => x v y v x = x v y")
        assert code.count(meet) == code.count(join) == 1


class TestLibrary:
    def test_bundled_library_loads(self):
        lib = library()
        for name in ("D1", "D2", "C1", "C2", "strong1", "left-sol", "weak-sol"):
            assert name in lib
            assert isinstance(lib[name], Formula)

    def test_parse_library_format(self):
        lib = parse_library("# comment\nfoo: x ^ y = x\n\nbar: x v y = y\n")
        assert set(lib) == {"foo", "bar"}

    def test_library_is_parsed_once_and_read_only(self, monkeypatch):
        assert library() is library()
        monkeypatch.setattr(terms, "parse_library", None)  # a second parse would fail
        assert "D1" in library()
        with pytest.raises(TypeError):
            library()["D1"] = parse("x = x")

    def test_identity_names_are_the_sorted_identities_of_the_library(self):
        assert identity_names() == tuple(sorted(name for name, f in library().items() if f.is_identity))
        assert identity_names() is identity_names()
        assert "D1" in identity_names() and "simple-canc" not in identity_names()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_library("a: x = x\na: x ^ y = x\n")


def _relabeled(S, perm):
    """S with element x renamed perm[x]."""
    pinv, rng = inverse(perm), S.elements()
    tables = ([[perm[t[pinv[a]][pinv[b]]] for b in rng] for a in rng] for t in (S.pair.meet, S.pair.join))
    return validate(CayleyPair.from_tables(*tables))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_pass_matches_each_formula_alone_under_any_labels(data):
    # every compiled check has one body, for one formula as for many, so a
    # formula's verdict and first witness in a pass are those of holds on it
    # alone; whether it holds is a property of the algebra, not its labels
    S = data.draw(st.sampled_from([S for n in range(1, 6) for S in search.census(n)]))
    relabeled = _relabeled(S, data.draw(st.permutations(range(S.n))))
    names = data.draw(st.lists(st.sampled_from(sorted(library())), min_size=1, unique=True))
    formulas = tuple(library()[name] for name in names)
    verdicts = []
    for T in (S, relabeled):
        found = terms.holds_each(T, formulas)
        assert found == tuple(holds(T, f) for f in formulas), (names, T.pair.flat())
        verdicts.append([v is True for v in found])
    assert verdicts[0] == verdicts[1], (names, S.pair.flat())
