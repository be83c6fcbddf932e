"""Identity/quasi-identity language over the two skew lattice operations.

Grammar: `^` is meet, `v` is join, `^` binds tighter than `v`, both left
associative, parentheses allowed. Variables are single letters a-z except
`v` (which is the join operator). Equations are joined by `,`; a
quasi-identity uses `=>` between the premises and the conclusion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from types import MappingProxyType

from .core import SkewLattice

MAX_VARIABLES = 8  # n**8 at n=6 is ~1.7M evaluations, still instant


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


class VariableLimitError(ValueError):
    pass


# Terms are nested tuples: ("var", name) | ("meet", l, r) | ("join", l, r)


@dataclass(frozen=True)
class Formula:
    premises: tuple  # of (Term, Term)
    conclusion: tuple  # (Term, Term)

    @property
    def is_identity(self) -> bool:
        return not self.premises

    @cached_property
    def variables(self) -> tuple:
        seen = set()
        for lhs, rhs in self.premises + (self.conclusion,):
            seen |= term_variables(lhs) | term_variables(rhs)
        return tuple(sorted(seen))

    def __str__(self):
        body = format_equation(*self.conclusion)
        if not self.premises:
            return body
        pre = ", ".join(format_equation(l, r) for l, r in self.premises)
        return f"{pre} => {body}"


def term_variables(term) -> set:
    if term[0] == "var":
        return {term[1]}
    return term_variables(term[1]) | term_variables(term[2])


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "=" and i + 1 < len(text) and text[i + 1] == ">":
            tokens.append(("IMP", i))
            i += 2
        elif c in "=,()^":
            tokens.append((c, i))
            i += 1
        elif c == "v":
            tokens.append(("JOIN", i))
            i += 1
        elif c.isalpha() and c.islower():
            tokens.append(("VAR:" + c, i))
            i += 1
        else:
            raise ParseError(f"unknown symbol {c!r}", i)
    tokens.append(("END", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def here(self):
        return self.tokens[self.pos][1]

    def eat(self, kind=None):
        tok, at = self.tokens[self.pos]
        if kind is not None and tok != kind:
            raise ParseError(f"expected {kind!r}, found {tok!r}", at)
        self.pos += 1
        return tok

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.eat()
            t = self.join_expr()
            self.eat(")")
            return t
        if tok.startswith("VAR:"):
            self.eat()
            return ("var", tok[4:])
        raise ParseError(f"expected a variable or '(', found {tok!r}", self.here())

    def meet_expr(self):
        t = self.atom()
        while self.peek() == "^":
            self.eat()
            t = ("meet", t, self.atom())
        return t

    def join_expr(self):
        t = self.meet_expr()
        while self.peek() == "JOIN":
            self.eat()
            t = ("join", t, self.meet_expr())
        return t

    def equation(self):
        lhs = self.join_expr()
        self.eat("=")
        if self.peek() == "END":
            raise ParseError("missing right-hand side", self.here())
        rhs = self.join_expr()
        return (lhs, rhs)

    def formula(self):
        eqs = [self.equation()]
        while self.peek() == ",":
            self.eat()
            eqs.append(self.equation())
        if self.peek() == "IMP":
            self.eat()
            conclusion = self.equation()
            if self.peek() == ",":
                raise ParseError("only one conclusion allowed after '=>'", self.here())
            f = Formula(tuple(eqs), conclusion)
        else:
            if len(eqs) != 1:
                raise ParseError("several equations but no '=>'", self.here())
            f = Formula((), eqs[0])
        self.eat("END")
        return f


def parse(text: str) -> Formula:
    f = _Parser(text).formula()
    if len(f.variables) > MAX_VARIABLES:
        raise VariableLimitError(f"{len(f.variables)} variables exceed the limit {MAX_VARIABLES}")
    return f


_PREC = {"join": 1, "meet": 2, "var": 3}


def format_term(term) -> str:
    """Minimal-parenthesis printing; parse(format_term(t)) == t."""
    kind = term[0]
    if kind == "var":
        return term[1]
    op = "^" if kind == "meet" else "v"
    left = format_term(term[1])
    right = format_term(term[2])
    if _PREC[term[1][0]] < _PREC[kind]:
        left = f"({left})"
    if _PREC[term[2][0]] <= _PREC[kind]:  # left associative: wrap equal-prec rhs
        right = f"({right})"
    return f"{left} {op} {right}"


def format_equation(lhs, rhs) -> str:
    return f"{format_term(lhs)} = {format_term(rhs)}"


# --- evaluation --------------------------------------------------------------
#
# The one term compiler: a tuple of terms becomes a function of (meet, join,
# *values), values in the given variables' order, returning each term's
# value. Its source names only m, j, v0, v1, ... and a temporary t0, t1, ...
# per distinct subterm, one per line; no user text enters it. On tables padded
# with a last row and column of -1 (the search's partial tables) an unknown
# cell reads -1, and so does every term over it.


@lru_cache(maxsize=1024)
def _compile(terms_: tuple, variables: tuple):
    names = {("var", name): f"v{k}" for k, name in enumerate(variables)}
    body = []

    def bind(term):
        if term not in names:
            left, right = bind(term[1]), bind(term[2])
            names[term] = f"t{len(body)}"
            table = "m" if term[0] == "meet" else "j"
            body.append(f"    {names[term]} = {table}[{left}][{right}]\n")
        return names[term]

    results = [bind(t) for t in terms_]
    params = ", ".join(["m", "j"] + [f"v{k}" for k in range(len(variables))])
    source = f"def evaluate({params}):\n{''.join(body)}    return ({', '.join(results)},)\n"
    namespace = {"__builtins__": {}}
    exec(compile(source, "<terms>", "exec"), namespace)
    return namespace["evaluate"]


def compile_formula(f: Formula):
    """f's sides, premises first, as a function of (meet, join, *values)
    with the values in the order of f.variables."""
    sides = tuple(t for eq in f.premises + (f.conclusion,) for t in eq)
    return _compile(sides, f.variables)


def evaluate(S: SkewLattice, term, env: dict) -> int:
    variables = tuple(sorted(term_variables(term)))
    fn = _compile((term,), variables)
    return fn(S.pair.meet, S.pair.join, *(env[v] for v in variables))[0]


def holds(S: SkewLattice, f: Formula):
    """True, or the lexicographically first failing assignment (a dict).

    Evaluation is the exhaustive universal check over all n**k assignments
    in lexicographic order of the sorted variable names.
    """
    vars_ = f.variables
    if len(vars_) > MAX_VARIABLES:
        raise VariableLimitError(f"{len(vars_)} variables exceed the limit {MAX_VARIABLES}")
    sides = compile_formula(f)
    m, j = S.pair.meet, S.pair.join
    k = 2 * len(f.premises)
    for values in itertools.product(range(S.n), repeat=len(vars_)):
        s = sides(m, j, *values)
        if s[k] != s[k + 1] and s[:k:2] == s[1:k:2]:
            return dict(zip(vars_, values))
    return True


def holds_at(S: SkewLattice, f: Formula, env: dict):
    """Evaluate one assignment; returns (premises_ok, lhs, rhs)."""
    k = 2 * len(f.premises)
    s = compile_formula(f)(S.pair.meet, S.pair.join, *(env[v] for v in f.variables))
    return s[:k:2] == s[1:k:2], s[k], s[k + 1]


# --- formula files and the bundled library ---------------------------------
#
# Formula files: one formula per line, '#' comments. Library lines are
# "name: formula".


def parse_library(text: str) -> dict:
    out = {}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ":" not in ln:
            raise ParseError(f"library line {lineno} lacks a 'name:' prefix", 0)
        name, body = ln.split(":", 1)
        name = name.strip()
        if name in out:
            raise ParseError(f"library line {lineno} redefines {name!r}", 0)
        out[name] = parse(body)
    return out


def parse_formula_file(text: str) -> list:
    return [
        parse(ln)
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]


@lru_cache(maxsize=None)
def library() -> MappingProxyType:
    """The bundled named identities and implications, parsed once; the
    mapping is read-only since every caller shares it."""
    text = resources.files("skewlat").joinpath("formulas.txt").read_text(encoding="utf-8")
    return MappingProxyType(parse_library(text))
