"""Identity/quasi-identity language over the two skew lattice operations.

Grammar: `^` is meet, `v` is join, `^` binds tighter than `v`, both left
associative, parentheses allowed. Variables are single letters a-z except
`v` (which is the join operator). Equations are joined by `,`; a
quasi-identity uses `=>` between the premises and the conclusion.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

from .core import SkewLattice

# the compiled check nests one `for` loop per variable, and in the deepest
# the `if` of a formula's test with the `if` of its early return; Python
# allows 20 nested loops (an `if` is not counted), and n**8 assignments at
# n=6 are about 1.7M
MAX_VARIABLES = 8
# the walkers over a term (term_variables, the compiler, format_term) recurse
# once per level, so a term at most this deep, in operators or in
# parentheses, leaves over half of Python's default recursion limit (1000)
# to their callers
MAX_DEPTH = 400


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


class VariableLimitError(ValueError):
    pass


# Terms are nested tuples: ("var", name) | ("meet", l, r) | ("join", l, r)


class _FormulaFields(NamedTuple):
    premises: tuple  # of (Term, Term)
    conclusion: tuple  # (Term, Term)


class Formula(_FormulaFields):
    # no __slots__: the cached properties below keep their values in the
    # instance's __dict__, which they write without calling __setattr__
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Formula is immutable")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the nested term tuples, computed once: every compiled
        check is looked up by its formulas."""
        return hash((self.premises, self.conclusion))

    @property
    def is_identity(self) -> bool:
        return not self.premises

    @cached_property
    def variables(self) -> tuple:
        equations = self.premises + (self.conclusion,)
        return tuple(sorted(set().union(*(term_variables(t) for eq in equations for t in eq))))

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


_OPERATORS = {"^": "meet", "JOIN": "join"}
_PREC = {"join": 1, "meet": 2, "var": 3}


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

    def term(self):
        """One term, read with explicit stacks rather than recursion: `^`
        binds tighter than `v`, both left associative. A term nested deeper
        than MAX_DEPTH is refused."""
        out, ops, opened = [], [], 0  # operands as (term, depth); operators and "("
        while True:
            while self.peek() == "(":
                opened += 1
                if opened > MAX_DEPTH:
                    raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", self.here())
                ops.append(self.eat())
            tok = self.peek()
            if not tok.startswith("VAR:"):
                raise ParseError(f"expected a variable or '(', found {tok!r}", self.here())
            out.append((("var", self.eat()[4:]), 0))
            while opened and self.peek() == ")":
                while ops[-1] != "(":
                    self._reduce(out, ops)
                ops.pop()
                opened -= 1
                self.eat()
            op = _OPERATORS.get(self.peek())
            if op is None:
                break
            while ops and ops[-1] != "(" and _PREC[ops[-1]] >= _PREC[op]:
                self._reduce(out, ops)
            ops.append(op)
            self.eat()
        if opened:
            raise ParseError(f"expected ')', found {self.peek()!r}", self.here())
        while ops:
            self._reduce(out, ops)
        return out[0][0]

    def _reduce(self, out, ops):
        (right, dr), (left, dl) = out.pop(), out.pop()
        depth = 1 + max(dl, dr)
        if depth > MAX_DEPTH:
            raise ParseError(f"term nests deeper than {MAX_DEPTH}", self.here())
        out.append(((ops.pop(), left, right), depth))

    def equation(self):
        lhs = self.term()
        self.eat("=")
        if self.peek() == "END":
            raise ParseError("missing right-hand side", self.here())
        rhs = self.term()
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


def parse_term(text: str):
    """One term of the grammar, such as `(x ^ y) v x`."""
    parser = _Parser(text)
    term = parser.term()
    parser.eat("END")
    return term




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
# The one term compiler turns terms into generated Python. Its source names
# only m, j (the tables), r (range(n)) or pairs (a list of assignments), v0,
# v1, ... (the variables' values, by position), a temporary t0, t1, ... per
# distinct subterm, one per line, and the table rows and columns that
# subterms index (m_t0, j_v1, mc_v0, ...); no user text enters it. The
# walker gives each temporary a depth: the position of the last variable it
# reads. From that one walk it emits one of three bodies:
#
# - prune, for the search: a function of (m, j, pairs) checking a tuple of
#   identities in two variables, each with its sorted variables read as v0,
#   v1, at each (v0, v1) of the list in one `for` loop. It returns False at
#   the first assignment where some identity's two sides are both known
#   (>= 0) and differ, else True. On tables padded with a last row and
#   column of -1 (the search's partial tables) an unknown cell reads -1, and
#   so does every term over it, so a side that reads -1 decides nothing.
# - check, the nested universal check of a tuple of formulas in one pass: a
#   function of (m, j, r) running one `for` loop per variable, outermost
#   first as itertools.product does, up to the most variables any formula
#   has. Each formula's sorted variables are read as v0, v1, ..., so equal
#   subterms of different formulas are one temporary. Each temporary
#   op[a][b] is computed in the loop of its depth, the deeper of a's and
#   b's. When b is bound in a deeper loop than a, it reads row a, bound
#   once in a's loop (m_t3 = m[t3]); when a is bound in a deeper loop than
#   b, it reads column b, bound once in b's loop (mc_v0 = mc[v0]) from the
#   column table (mc = tuple(zip(*m))), which the function builds once per
#   call, and only for a table that some temporary reads by column. When
#   both are bound in one loop it reads m[a][b], or a row or column of that
#   loop already bound. (Binding every row, also those read in their own
#   loop, measured slower: ROADMAP, "Measured and left out".) Each
#   formula, one alone as well as many, is tested in the loop of its last
#   variable, premises and conclusion in one `if`, which keeps its first
#   failing assignment in a list w; the function returns w, each formula's
#   failing values or None, once every formula has failed or the loops
#   end. (Returning one list keeps the early return a short line: locals
#   w0, w1, ... would repeat all of them in every test, and more than
#   double the memory compile() takes.)
# - table, the values of a tuple of terms at every assignment: the nested
#   loops over the terms' variables, with the check's placement of rows but
#   no columns. The deepest loop appends the tuple of the terms' values to
#   its row, and each loop's finished row goes into the row of the loop
#   around it, so with two variables table[x][y] holds the values at (x, y).


def _positional(term, index: dict):
    """term with each variable replaced by its position in `index`."""
    if term[0] == "var":
        return ("var", index[term[1]])
    return (term[0], _positional(term[1], index), _positional(term[2], index))


@lru_cache(maxsize=1024)
def _compile(body: str, items: tuple, variables=None):
    """The `body` ("prune", "check" or "table") of `items`: the prune or
    the nested check of the formulas `items`, or the table of the terms
    `items` over `variables`."""
    names = {}  # positional term, row or column -> (name, depth)
    lines = []  # (depth, line) in the order made, so operands come first
    nested, check = body != "prune", body == "check"
    columns = set()  # the tables ("m", "j") that a check reads by column

    def bind(term):
        if term not in names:
            if term[0] == "var":
                names[term] = (f"v{term[1]}", term[1])
                return names[term]
            (left, dl), (right, dr) = bind(term[1]), bind(term[2])
            op = "m" if term[0] == "meet" else "j"
            row, column = f"{op}_{left}", f"{op}c_{right}"
            if nested and (row in names or dl < dr):  # a row read from a deeper loop
                if row not in names:
                    names[row] = (row, dl)
                    lines.append((dl, f"{row} = {op}[{left}]"))
                value = f"{row}[{right}]"
            elif check and (column in names or dl > dr):  # a column read from a deeper loop
                if column not in names:
                    names[column] = (column, dr)
                    lines.append((dr, f"{column} = {op}c[{right}]"))
                    columns.add(op)
                value = f"{column}[{left}]"
            else:
                value = f"{op}[{left}][{right}]"
            names[term] = (f"t{len(lines)}", max(dl, dr))
            lines.append((max(dl, dr), f"{names[term][0]} = {value}"))
        return names[term]

    if body == "prune":
        for f in items:
            index = {name: k for k, name in enumerate(f.variables)}
            (left, _), (right, _) = (bind(_positional(t, index)) for t in f.conclusion)
            lines.append((0, f"if {left} != {right} and {left} >= 0 and {right} >= 0: return False"))
        code = "".join(f"        {line}\n" for _, line in lines)
        return _define(f"def prune(m, j, pairs):\n    for v0, v1 in pairs:\n{code}    return True\n", "prune")
    table = body == "table"
    if table:
        index = {name: k for k, name in enumerate(variables)}
        results = ", ".join(bind(_positional(t, index))[0] for t in items)
        width = len(variables)
        lines.append((width - 1, f"w{width - 1}.append(({results},))"))
        source, name = "def table(m, j, r):\n", "table"
        tail = "".join(f"{'    ' * (d + 1)}w{d - 1}.append(tuple(w{d}))\n" for d in range(width - 1, 0, -1))
        tail += "    return tuple(w0)\n"
    else:
        width = max(len(f.variables) for f in items)
        if width > MAX_VARIABLES:
            raise VariableLimitError(f"{width} variables exceed the limit {MAX_VARIABLES}")
        for i, f in enumerate(items):
            index = {name: k for k, name in enumerate(f.variables)}
            tests = []
            for lhs, rhs in f.premises + (f.conclusion,):
                (left, _), (right, _) = bind(_positional(lhs, index)), bind(_positional(rhs, index))
                tests.append(f"{left} == {right}")
            tests[-1] = f"{left} != {right}"
            last = len(f.variables) - 1
            values = "".join(f"v{k}, " for k in range(last + 1))
            lines.append((last, f"if {' and '.join(tests)} and w[{i}] is None:\n    w[{i}] = ({values})\n"
                                f"    pending -= 1\n    if not pending: return w"))
        source, name = "def check(m, j, r):\n", "check"
        source += "".join(f"    {op}c = tuple(zip(*{op}))\n" for op in sorted(columns))
        source += f"    w = [None] * {len(items)}\n    pending = {len(items)}\n"
        tail = "    return w\n"
    for depth in range(width):
        indent = "    " * (depth + 2)
        if table:
            source += f"{indent[4:]}w{depth} = []\n"
        source += f"{indent[4:]}for v{depth} in r:\n"
        source += "".join(f"{indent}{part}\n" for d, line in lines if d == depth for part in line.split("\n"))
    return _define(source + tail, name)


def _define(source: str, name: str):
    """The function `name` that `source` defines, run with no builtins
    but tuple and zip."""
    namespace = {"__builtins__": {}, "tuple": tuple, "zip": zip}
    exec(compile(source, "<terms>", "exec"), namespace)
    return namespace[name]


def compile_table(terms_: tuple, variables: tuple):
    """The terms as one function of (meet, join, range(n)) returning their
    table: one nesting level per variable, in the order of `variables`,
    and in each cell the tuple of the terms' values there."""
    return _compile("table", terms_, variables)


def compile_prune(identities: tuple):
    """The identities, each in two variables, as one function of (meet,
    join, pairs): False at the first (x, y) in pairs where some identity's
    two sides are both known (not -1) and differ, else True."""
    return _compile("prune", identities)


def holds_each(S: SkewLattice, formulas: tuple) -> tuple:
    """Each formula's verdict, from one exhaustive pass over S: True, or
    its lexicographically first failing assignment (a dict).

    A formula's assignments are taken in lexicographic order of its sorted
    variable names.
    """
    found = _compile("check", tuple(formulas))(S.pair.meet, S.pair.join, range(S.n))
    return tuple(True if w is None else dict(zip(f.variables, w)) for f, w in zip(formulas, found))


def holds(S: SkewLattice, f: Formula):
    """True, or the lexicographically first failing assignment (a dict):
    holds_each of f alone, without its per-call tuple."""
    (found,) = _compile("check", (f,))(S.pair.meet, S.pair.join, range(S.n))
    return True if found is None else dict(zip(f.variables, found))


def holds_named(S: SkewLattice, names: tuple) -> dict:
    """Each named bundled formula's verdict, as holds_each gives it, from
    one pass over S."""
    return dict(zip(names, holds_each(S, _named(names))))


@lru_cache(maxsize=64)
def _named(names: tuple) -> tuple:
    """The bundled formulas of `names`, in order. It reads the parse
    directly: through library(), only a first call per tuple would call
    library(), so a process would count more calls before the cache is
    warm than after."""
    lib = _bundled()[0]
    return tuple(lib[name] for name in names)


# --- the bundled library -----------------------------------------------------
#
# One "name: formula" per line, '#' comments.


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


@lru_cache(maxsize=None)
def _bundled() -> tuple:
    """The bundled library, parsed on first use, and the sorted names of its
    identities."""
    text = resources.files("skewlat").joinpath("formulas.txt").read_text(encoding="utf-8")
    lib = parse_library(text)
    return MappingProxyType(lib), tuple(sorted(name for name, f in lib.items() if f.is_identity))


def library() -> MappingProxyType:
    """The bundled named identities and implications, parsed once; the
    mapping is read-only since every caller shares it."""
    return _bundled()[0]


def identity_names() -> tuple:
    """The names of the bundled identities (no premises), sorted."""
    return _bundled()[1]
