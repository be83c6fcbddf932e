import itertools
import random

import pytest
from hypothesis import given, strategies as st

from skewlat import terms
from skewlat.core import CayleyPair, SkewLattice, validate
from skewlat.terms import (
    Formula,
    ParseError,
    VariableLimitError,
    compile_formula,
    format_equation,
    format_term,
    holds,
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


def compiled_sides(S, f, env):
    """f's sides, premises first, from the flat compiled function."""
    return compile_formula(f)(S.pair.meet, S.pair.join, *(env[v] for v in f.variables))


def oracle_sides(S, f, env, oracle_evaluate):
    return tuple(oracle_evaluate(S, t, env) for t in f.sides)


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
        # variables, so that a false premise skips whole inner loops; raw
        # random tables beside the census make one-variable premises fail too
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
                # the flat body the search's prunes run, on every side
                for values in itertools.product(S.elements(), repeat=len(f.variables)):
                    env = dict(zip(f.variables, values))
                    assert compiled_sides(S, f, env) == oracle_sides(S, f, env, oracle_evaluate), (f, S, env)
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
        assert compiled_sides(THREE_R0, f, env) == oracle_sides(THREE_R0, f, env, oracle_evaluate) == (2, 2)

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
        sides = compile_formula(parse("x ^ y ^ x = x ^ y"))
        assert sides(meet, join, 0, 1) == (0, 0)
        assert sides(meet, join, 1, 0) == (-1, -1)
        assert sides(meet, join, 1, 1) == (1, 1)
        assert compile_formula(parse("x v y = y"))(meet, join, 0, 1) == (-1, 1)

    def test_variable_names_stay_out_of_the_generated_code(self):
        # a formula's variables are passed by position, so any letters work
        f = parse("j ^ m = m ^ j")
        g = parse("a ^ b = b ^ a")
        assert holds(THREE_R0, f) == {"j": 1, "m": 2}
        assert holds(THREE_R0, g) == {"a": 1, "b": 2}


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

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_library("a: x = x\na: x ^ y = x\n")
