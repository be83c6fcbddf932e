"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup``, gives one round
of operations (all of one kind) in ``operations``, reduces an operation's
output to a comparable ``digest``, and checks a round's outputs against the
oracles in ``check``. Every round runs the same operations, so every round
must give the same digests.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from pathlib import Path

import oracles

BENCH_DIR = Path(__file__).resolve().parent
INPUT_DIR = BENCH_DIR / "inputs"
RESULTS_DIR = BENCH_DIR / "results"

CENSUS_COUNTS = (1, 3, 7, 21, 53)  # skew lattices of order 1..5 up to isomorphism


def tables(S):
    return S.pair.meet, S.pair.join


def verify_census(algebras, max_n) -> list:
    """Errors, if the algebras are not exactly one of each isomorphism class
    of order 1..max_n: each must pass the axioms, the per-order counts must
    be the published ones, and no two may share a lex-least form."""
    errors = []
    by_n = {}
    for meet, join in algebras:
        if not oracles.is_skew_lattice(meet, join):
            errors.append(f"not a skew lattice: {oracles.flat(meet, join)}")
        by_n.setdefault(len(meet), set()).add(oracles.canonical_flat(meet, join))
    counts = tuple(len(by_n.get(n, ())) for n in range(1, max_n + 1))
    if len(algebras) != sum(CENSUS_COUNTS[:max_n]) or counts != CENSUS_COUNTS[:max_n]:
        errors.append(f"{len(algebras)} algebras in {counts} classes, expected {CENSUS_COUNTS[:max_n]}")
    return errors


def read_census():
    """(meet, join) of every algebra in inputs/census-1-5.txt."""
    chunks = []
    for line in (INPUT_DIR / "census-1-5.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            chunks.append([])
        else:
            chunks[-1].append(line)
    return [skl_tables("\n".join(chunk)) for chunk in chunks]


class Workload:
    """What the workloads share; the module docstring gives the interface."""

    name = ""

    def __init__(self, sk):
        self.sk = sk  # the skewlat package

    def search_nodes(self, outputs):
        return 0

    def close(self):
        pass


class Census(Workload):
    """A fresh exhaustive enumeration of order 5, called directly."""

    name = "census"
    N = 5

    def setup(self, seed):
        search = self.sk.search
        self.spec = search.SearchSpec(n=self.N)
        search.enumerate_skew_lattices(search.SearchSpec(n=self.N - 1))  # warm-up

    def operations(self, tracer=None):
        search = self.sk.search
        return [(f"enumerate n={self.N}", lambda: search.enumerate_skew_lattices(self.spec))]

    def digest(self, res):
        return (res.count_up_to_iso, res.exhausted, res.nodes, tuple(S.pair.flat() for S in res.witnesses))

    def search_nodes(self, outputs):
        return sum(res.nodes for res in outputs)

    def check(self, outputs):
        (res,) = outputs
        errors = []
        want = CENSUS_COUNTS[self.N - 1]
        if res.count_up_to_iso != want or len(res.witnesses) != want or not res.exhausted:
            errors.append(
                f"{res.count_up_to_iso} classes ({len(res.witnesses)} witnesses, "
                f"exhausted={res.exhausted}), expected {want}"
            )
        flats = [oracles.flat(*tables(S)) for S in res.witnesses]
        if flats != sorted(set(flats)):
            errors.append("witnesses are not in strictly ascending flat-table order")
        # two lex-least tables of one class are equal, so distinct lex-least
        # witnesses are pairwise non-isomorphic
        for S, flat in zip(res.witnesses, flats):
            if not oracles.is_skew_lattice(*tables(S)):
                errors.append(f"witness fails the axioms: {flat}")
            elif not oracles.is_lex_least(*tables(S)):
                errors.append(f"witness is not lex-least: {flat}")
        return errors


class Filtered(Workload):
    """The criterion-11 counterexample search over orders 1..5."""

    name = "filtered"
    N = 5
    SATISFY = ("left_handed", "distributive", "cancellative")
    FALSIFY = ("strong-solution",)

    def _spec(self, n):
        return self.sk.search.SearchSpec(n=n, satisfy=self.SATISFY, falsify=self.FALSIFY)

    def setup(self, seed):
        self.spec = self._spec(self.N)
        self.sk.search.find_counterexample(self._spec(3))  # warm-up

    def operations(self, tracer=None):
        search = self.sk.search
        return [("criterion-11 search n<=5", lambda: search.find_counterexample(self.spec))]

    def digest(self, res):
        return (res.witness is None, res.exhausted, res.found_n, res.nodes)

    def search_nodes(self, outputs):
        return sum(res.nodes for res in outputs)

    def check(self, outputs):
        (res,) = outputs
        errors = []
        if res.witness is not None or not res.exhausted or res.found_n != self.N:
            errors.append(f"expected no witness and an exhausted search, got {self.digest(res)}")
        algebras = read_census()
        errors += verify_census(algebras, self.N)
        for meet, join in algebras:
            if (
                oracles.left_handed(meet, join)
                and oracles.distributive(meet, join)
                and oracles.cancellative(meet, join)
                and not oracles.braid_holds(oracles.solution_maps(meet, join)["strong"])
            ):
                errors.append(f"the oracle finds a witness: {oracles.flat(meet, join)}")
        return errors


class Battery(Workload):
    """Every theorem of the battery on each skew lattice of order <= 5,
    each relabeled by a seeded permutation."""

    name = "battery"
    N = 5

    def setup(self, seed):
        core = self.sk.core
        rng = random.Random(seed)
        algebras = []
        for meet, join in read_census():
            n = len(meet)
            meet, join = oracles.relabel(meet, join, rng.sample(range(n), n))
            algebras.append(core.validate(core.CayleyPair.from_tables(meet, join)))
        rng.shuffle(algebras)
        self.algebras = algebras

    def operations(self, tracer=None):
        checks = dict(self.sk.theorems.THEOREMS)
        if tracer is not None:
            checks = {name: tracer.wrap(f"theorems.{name}", fn) for name, fn in checks.items()}

        def run(S):
            return {name: fn(S) for name, fn in checks.items()}

        return [(f"battery n={S.n}", lambda S=S: run(S)) for S in self.algebras]

    def digest(self, verdicts):
        return tuple(sorted(verdicts.items()))

    def check(self, outputs):
        errors = verify_census([tables(S) for S in self.algebras], self.N)
        for S, verdicts in zip(self.algebras, outputs):
            failed = {name: v for name, v in verdicts.items() if v is not True}
            if failed or len(verdicts) != len(self.sk.theorems.THEOREMS):
                errors.append(f"theorems fail on {oracles.flat(*tables(S))}: {failed}")
        return errors

# --- reports -------------------------------------------------------------------


def skl_tables(text):
    """(meet, join) from skewlat v1 text: n, n meet rows, a blank line, n join rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[0])
    rows = [tuple(int(v) for v in ln.split()) for ln in lines[1:]]
    if len(rows) != 2 * n or any(len(r) != n for r in rows):
        raise ValueError("malformed skewlat v1 text")
    return tuple(rows[:n]), tuple(rows[n:])


def read_skl(path):
    return skl_tables(Path(path).read_text(encoding="utf-8"))


def skl_text(meet, join) -> str:
    body = [" ".join(map(str, row)) for row in meet] + [""] + [" ".join(map(str, row)) for row in join]
    return "\n".join([str(len(meet))] + body) + "\n"


VERBS = ("validate", "structure", "props", "ybe")


def verdicts(verb, text) -> dict:
    """The label-free content of a report: every true/false flag, pass/fail
    verdict, power class and count, without element names or witnesses."""
    out = {}
    if verb == "validate":
        out["valid"] = "valid skew lattice" in text
        return out
    solution_map = None
    for line in text.splitlines():
        if line.startswith(" ") or ":" not in line:
            continue
        key, value = (s.strip() for s in line.split(":", 1))
        if verb == "structure":
            if key.startswith("D-class"):
                out["d_classes"] = out.get("d_classes", 0) + 1
            elif key.startswith("S/D edge"):
                out["edges"] = out.get("edges", 0) + 1
            else:
                out[key] = value
        elif verb == "props":
            out[key] = value.split()[0] == "true"
        elif key == "map":
            solution_map = value
        else:
            out[(solution_map, key)] = value.split()[0] if key == "braid" else value
    return out


class Reports(Workload):
    """One ``skewlat validate|structure|props|ybe`` call through ``cli.run`` on
    a skewlat v1 file of a constructed algebra, relabeled by a seeded
    permutation."""

    name = "reports"

    def __init__(self, sk):
        super().__init__(sk)
        self.work = RESULTS_DIR / f"work-{os.getpid()}"

    def setup(self, seed):
        rng = random.Random(seed)
        self.work.mkdir(parents=True, exist_ok=True)
        self.files = []  # (name, base tables, relabeled tables, base path, relabeled path)
        for path in sorted(INPUT_DIR.glob("*.skl")):
            meet, join = read_skl(path)
            n = len(meet)
            relabeled = oracles.relabel(meet, join, rng.sample(range(n), n))
            base_path = self.work / f"base-{path.name}"
            new_path = self.work / path.name
            base_path.write_text(skl_text(meet, join), encoding="utf-8")
            new_path.write_text(skl_text(*relabeled), encoding="utf-8")
            self.files.append((path.stem, (meet, join), relabeled, str(base_path), str(new_path)))

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sk.cli.run(argv)
        return code, out.getvalue()

    def operations(self, tracer=None):
        return [
            (f"{verb} {name}", lambda argv=(verb, path): self._cli(list(argv)))
            for name, _, _, _, path in self.files
            for verb in VERBS
        ]

    def digest(self, output):
        return output

    def check(self, outputs):
        errors = []
        ops = [(f, verb) for f in self.files for verb in VERBS]
        for ((name, _, tabs, base_path, _), verb), (code, text) in zip(ops, outputs):
            got = verdicts(verb, text)
            want = self._oracle(verb, tabs)
            wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
            if wrong:
                errors.append(f"{verb} {name}: report disagrees with the oracle on {wrong}")
            if verb == "props" and name.startswith("chain") and not (got["distributive"] and got["cancellative"]):
                errors.append(f"props {name}: a chain must be distributive and cancellative")
            expected_code = 1 if verb == "ybe" and "fail" in want.values() else 0
            if code != expected_code:
                errors.append(f"{verb} {name}: exit code {code}, expected {expected_code}")
            base_code, base_text = self._cli([verb, base_path])
            if (base_code, verdicts(verb, base_text)) != (code, got):
                errors.append(f"{verb} {name}: verdicts change under relabeling")
        return errors

    @staticmethod
    def _oracle(verb, tabs) -> dict:
        """The verdicts the oracles decide for this report."""
        if verb == "validate":
            return {"valid": oracles.is_skew_lattice(*tabs)}
        if verb == "structure":
            return {
                "left-handed": str(oracles.left_handed(*tabs)),
                "right-handed": str(oracles.right_handed(*tabs)),
                "d_classes": oracles.d_class_count(*tabs),
            }
        if verb == "props":
            return {
                "left_handed": oracles.left_handed(*tabs),
                "right_handed": oracles.right_handed(*tabs),
                "lattice": oracles.lattice(*tabs),
                "distributive": oracles.distributive(*tabs),
                "cancellative": oracles.cancellative(*tabs),
            }
        maps = oracles.solution_maps(*tabs)
        return {(kind, "braid"): "pass" if oracles.braid_holds(r) else "fail" for kind, r in maps.items()}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Census, Filtered, Battery, Reports)}
