import itertools

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


def _spy_passes(monkeypatch, singles: bool):
    name_of = {f: name for name, f in terms.library().items()}
    passes, real_each, real_one = [], terms.holds_each, terms.holds

    def spy(S, formulas):
        passes.append((S.n, tuple(name_of[f] for f in formulas)))
        return real_each(S, formulas)

    def one(S, f):
        if not singles:
            raise AssertionError("terms.holds was called")
        passes.append((S.n, name_of[f]))
        return real_one(S, f)

    monkeypatch.setattr(terms, "holds_each", spy)
    monkeypatch.setattr(terms, "holds", one)
    return passes


@pytest.fixture
def compiled_passes(monkeypatch):
    """Each compiled pass made while the test runs, as (order, names of the
    bundled formulas checked); terms.holds must not be called."""
    return _spy_passes(monkeypatch, singles=False)


@pytest.fixture
def compiled_checks(monkeypatch):
    """compiled_passes, with each single-formula check by terms.holds
    recorded too, as (order, name of the bundled formula)."""
    return _spy_passes(monkeypatch, singles=True)


@pytest.fixture(scope="session")
def built():
    """The products of two of 3R0, 3R1, NC5R, NC5L, rect(2, 2) and
    chain((2, 1)), then rect(a, b) for a, b <= 4."""
    c = constructions
    base = [c.fixed(name) for name in ("3R0", "3R1", "NC5R", "NC5L")] + [c.rectangular(2, 2), c.chain((2, 1))]
    products = [c.direct_product(A, B) for A, B in itertools.combinations_with_replacement(base, 2)]
    return products + [c.rectangular(a, b) for a in range(1, 5) for b in range(1, 5)]
