import pytest

from skewlat import constructions, search, terms


def _evaluate(S, term, env):
    if term[0] == "var":
        return env[term[1]]
    a = _evaluate(S, term[1], env)
    b = _evaluate(S, term[2], env)
    return S.meet(a, b) if term[0] == "meet" else S.join(a, b)


@pytest.fixture(scope="session")
def oracle_evaluate():
    """A plain recursive evaluator of a term at one assignment (a dict),
    independent of the term compiler the library runs."""
    return _evaluate


@pytest.fixture(scope="session")
def census5():
    """All skew lattices up to isomorphism for n = 1..5, computed once."""
    return {n: search.census(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def constructed():
    """The built algebras whose reports tests/test_golden.py pins, of order
    3 to 12."""
    return [
        constructions.fixed("3R0"),
        constructions.direct_product(constructions.fixed("NC5R"), constructions.chain((2,))),
        constructions.chain((2, 2, 2)),
        constructions.rectangular(2, 3),
        constructions.direct_product(constructions.fixed("3R0"), constructions.rectangular(2, 2)),
    ]


@pytest.fixture(scope="session")
def threes():
    return constructions.fixed("3R0"), constructions.fixed("3R1")


@pytest.fixture
def compiled_passes(monkeypatch):
    """Each compiled pass made while the test runs, as (order, names of the
    bundled formulas checked); terms.holds must not be called."""
    name_of = {f: name for name, f in terms.library().items()}
    passes, real = [], terms.holds_each

    def spy(S, formulas):
        passes.append((S.n, tuple(name_of[f] for f in formulas)))
        return real(S, formulas)

    def forbidden(S, f):
        raise AssertionError("terms.holds was called")

    monkeypatch.setattr(terms, "holds_each", spy)
    monkeypatch.setattr(terms, "holds", forbidden)
    return passes
