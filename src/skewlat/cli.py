"""Command-line entry point.

Exit codes: 0 pass/success, 1 check failure (witness printed), 2 usage or
I/O error, 141 (128 + SIGPIPE) when stdout is closed before the report is
written, as by `skewlat validate big.skl | head -1`, with nothing on stderr.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import constructions, core, green, search, theorems, varieties, ybe

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141


def _read_pair(path) -> core.CayleyPair:
    """Read a skewlat v1 file; I/O and format problems map to usage errors."""
    try:
        return core.load(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except (core.MalformedTableError, ValueError) as exc:
        raise _UsageError(f"{path}: {exc}")


def _load_algebra(path) -> core.SkewLattice:
    """Read and validate a skewlat v1 file; axiom violations are check
    failures."""
    return core.validate(_read_pair(path))


class _UsageError(Exception):
    pass


def _tsv(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def _bool(flag) -> str:
    return str(flag).lower()


def _braces(elements) -> str:
    """The elements in increasing order, in braces: {0, 4, 21}."""
    return "{" + ", ".join(str(x) for x in sorted(elements)) + "}"


def _assignment(witness: dict, sep: str) -> str:
    return sep.join(f"{k}={v}" for k, v in sorted(witness.items()))


# --- verbs -------------------------------------------------------------------


def _cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.files:
        pair = _read_pair(path)
        violations = core.axiom_violations(pair)
        if not violations:
            print(f"{path}: valid skew lattice (n={pair.n})")
        else:
            status = EXIT_FAIL
            print(f"{path}: {len(violations)} axiom violation(s)")
            for v in violations:
                print(f"  {v}")
    return status


def _cmd_structure(args) -> int:
    S = _load_algebra(args.file)
    L, R, D = green.green_relations(S)
    if args.format == "tsv":
        rows = [("class", "kind", "elements")]
        for kind, P in (("L", L), ("R", R), ("D", D)):
            for cid, cls in enumerate(P.classes):
                rows.append((cid, kind, " ".join(str(x) for x in sorted(cls))))
        sys.stdout.write(_tsv(rows))
        return EXIT_OK
    lines = [
        f"n: {S.n}",
        f"left-handed: {L.class_of == D.class_of}",
        f"right-handed: {R.class_of == D.class_of}",
    ]
    for cid, cls in enumerate(D.classes):
        lines.append(f"D-class {cid}: {_braces(cls)}")
    leq, k = green.class_order(S, D), D.size
    for a in range(k):
        for b in range(k):
            # Hasse edge: no class strictly between
            if a != b and leq[a][b] and not any(c not in (a, b) and leq[a][c] and leq[c][b] for c in range(k)):
                lines.append(f"S/D edge: {a} < {b}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_props(args) -> int:
    S = _load_algebra(args.file)
    report, free = varieties.decide(S)
    if args.format == "tsv":
        rows = [("property", "value", "witness")]
        for name in varieties.FLAG_NAMES:
            rows.append((name, _bool(report.flags[name]), _assignment(report.witnesses.get(name, {}), " ")))
        rows.append(("nc5_free", _bool(free is True), "" if free is True else f"{free[0]} on {free[1]}"))
        sys.stdout.write(_tsv(rows))
        return EXIT_OK
    lines = []
    for name in varieties.FLAG_NAMES:
        lines.append(f"{name}: {_bool(report.flags[name])}")
        if name in report.witnesses:
            lines.append(f"  counterexample: {_assignment(report.witnesses[name], ', ')}")
    if free is True:
        lines.append("nc5_free: true")
    else:
        lines.append(f"nc5_free: false (contains {free[0]} on elements {_braces(free[1])})")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_ybe(args) -> int:
    S = _load_algebra(args.file)
    results = []  # (kind, braid witness or None, power flags by name, left and right nondegenerate)
    for kind, m, braid in ybe.decide(S, [args.map] if args.map else ybe.MAP_KINDS):
        p = ybe.power_class(m)
        powers = {"involutive": p.involutive, "idempotent": p.idempotent, "cubic": p.cubic}
        results.append((kind, braid, powers, *ybe.degeneracy(m)))
    if args.format == "tsv":
        rows = [("map", "braid", "witness", "involutive", "idempotent", "cubic", "left_nondegenerate", "right_nondegenerate")]
        for kind, braid, powers, left, right in results:
            verdict, witness = ("pass", "") if braid is None else ("fail", braid.triple)
            rows.append((kind, verdict, witness, *map(_bool, powers.values()), _bool(left), _bool(right)))
        sys.stdout.write(_tsv(rows))
    else:
        lines = []
        for kind, braid, powers, left, right in results:
            lines += [
                f"map: {kind}",
                "braid: pass" if braid is None else f"braid: fail ({braid})",
                # the class is the first power flag that holds, in this order
                f"power-class: {next((name for name, flag in powers.items() if flag), 'none')}",
                "power-flags: " + " ".join(f"{name}={_bool(flag)}" for name, flag in powers.items()),
                f"left-nondegenerate: {_bool(left)}",
                f"right-nondegenerate: {_bool(right)}",
            ]
        print("\n".join(lines))
    return EXIT_OK if all(braid is None for _, braid, *_ in results) else EXIT_FAIL


def _write_algebra(pair: core.CayleyPair, out, label: str) -> None:
    if out:
        core.save(pair, out)
        print(f"{label}: n={pair.n} written to {out}", file=sys.stderr)
    else:
        sys.stdout.write(core.to_text(pair))


def _construct(build, *args, **kwargs):
    """Call a construction; the ValueError it raises on bad sizes or names
    is a usage error (table errors keep their own exit codes)."""
    try:
        return build(*args, **kwargs)
    except (core.AxiomError, core.MalformedTableError):
        raise
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_construct(args) -> int:
    if args.what == "chain":
        sizes = _parse_sizes(args.arg)
        S = _construct(constructions.chain, sizes)
        _write_algebra(S.pair, args.output, f"chain{tuple(sizes)}")
    elif args.what == "rect":
        sizes = _parse_sizes(args.arg)
        if len(sizes) != 2:
            raise _UsageError("rect takes exactly two sizes, e.g. 'rect 2,3'")
        S = _construct(constructions.rectangular, *sizes)
        _write_algebra(S.pair, args.output, f"rect{tuple(sizes)}")
    elif args.what == "fixed":
        S = _construct(constructions.fixed, args.arg)
        _write_algebra(S.pair, args.output, args.arg)
    elif args.what == "ring":
        sizes = _parse_sizes(args.arg)
        if len(sizes) != 2:
            raise _UsageError("ring takes 'DIM,MOD', e.g. 'ring 2,2'")
        spec = _construct(constructions.RingSpec, kind=args.ring_kind, dim=sizes[0], mod=sizes[1])
        result = constructions.ring_band(spec)
        outdir = args.output or "."
        os.makedirs(outdir, exist_ok=True)
        for idx, (S, kind, _band) in enumerate(result.emitted):
            path = os.path.join(outdir, f"ring-{args.ring_kind}-{sizes[0]}x{sizes[0]}-mod{sizes[1]}-{idx:03d}-{kind}.skl")
            core.save(S.pair, path)
            print(f"{path}: n={S.n} ({kind})")
        print(f"emitted {len(result.emitted)} algebras; {len(result.nonassociative)} bands with nonassociative cubic join")
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown construction {args.what!r}")
    return EXIT_OK


def _parse_sizes(text):
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def _make_spec(args, n, limit=0) -> search.SearchSpec:
    try:
        return search.SearchSpec(
            n=n,
            satisfy=tuple(args.satisfy or ()),
            falsify=tuple(args.falsify or ()),
            limit=limit,
            max_nodes=args.max_nodes,
            max_seconds=args.max_seconds,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_enumerate(args) -> int:
    spec = _make_spec(args, args.n, limit=args.limit)
    # witnesses found before the resume point, so a resumed run numbers its
    # files on from where the runs before it stopped
    resume, found = None, 0
    if args.resume:
        try:
            resume, found = search.load_checkpoint(spec, args.resume)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot resume from {args.resume}: {exc}")
    result = search.enumerate_skew_lattices(spec, resume=resume)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for idx, S in enumerate(result.witnesses, start=found):
            core.save(S.pair, os.path.join(args.out_dir, f"n{args.n}-{idx:05d}.skl"))
    if not result.exhausted and args.checkpoint:
        # a limit stop has no path: the leaf it ended at was emitted, so
        # resuming there would emit that algebra twice
        if result.checkpoint:
            try:
                search.save_checkpoint(spec, result.checkpoint, args.checkpoint, found + result.count_up_to_iso)
            except OSError as exc:
                raise _UsageError(f"cannot write checkpoint {args.checkpoint}: {exc.strerror or exc}")
            print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)
        else:
            print(f"stopped at the witness limit ({args.limit}); no checkpoint written", file=sys.stderr)
    if args.format == "tsv":
        rows = [
            ("n", "count_up_to_iso", "nodes", "exhausted"),
            (args.n, result.count_up_to_iso, result.nodes, _bool(result.exhausted)),
        ]
        sys.stdout.write(_tsv(rows))
    else:
        print(f"n={args.n}: {result.count_up_to_iso} algebras up to isomorphism "
              f"({result.nodes} nodes, exhausted={_bool(result.exhausted)})")
    return EXIT_OK


def _cmd_search(args) -> int:
    spec = _make_spec(args, args.max_n)
    result = search.find_counterexample(spec)
    if result.witness is not None:
        print(f"witness found at n={result.found_n}:")
        sys.stdout.write(core.to_text(result.witness.pair))
        if args.output:
            core.save(result.witness.pair, args.output)
            print(f"witness written to {args.output}", file=sys.stderr)
        return EXIT_OK
    if result.exhausted:
        print(f"no witness up to n={args.max_n} (exhausted, {result.nodes} nodes)")
    else:
        print(f"no witness up to n={result.found_n - 1} (budget exhausted at n={result.found_n}, {result.nodes} nodes)")
    return EXIT_FAIL


def _cmd_theorems(args) -> int:
    names = None if args.only is None else args.only.split(",")
    try:
        result = theorems.run_battery(args.max_n, names=names)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.format == "tsv":
        rows = [("theorem", "checked", "failures")]
        for name in result.passes:
            rows.append((name, result.passes[name] + len(result.failures[name]), len(result.failures[name])))
        sys.stdout.write(_tsv(rows))
        return EXIT_OK if result.ok else EXIT_FAIL
    width = max(len(name) for name in theorems.THEOREMS)
    lines = [f"theorem battery over {result.algebra_count} algebras (n <= {result.max_n})"]
    for name, passed in result.passes.items():
        fails = result.failures[name]
        verdict = "pass" if not fails else f"FAIL ({len(fails)})"
        lines.append(f"  {name:<{width}}  {passed:>5} checked  {verdict}")
        for witness, alg in fails[:3]:
            lines.append(f"    witness: {witness}")
            lines.extend("    " + ln for ln in alg.splitlines())
    print("\n".join(lines))
    return EXIT_OK if result.ok else EXIT_FAIL


# --- wiring ------------------------------------------------------------------


# built once per process: a parse keeps no state in the parser (each makes a
# fresh Namespace, an `append` action copies its default list before it
# appends, and usage and help look up sys.stdout and sys.stderr when printed).
# The parser names the verb only; `run` looks up its `_cmd_*` handler at call
# time, so the cached parser holds no handler
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="skewlat", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check skew lattice axioms on algebra files")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("structure", help="Green's relations and D-class order")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = sub.add_parser("props", help="variety membership flags with witnesses")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = sub.add_parser("ybe", help="Yang-Baxter solution reports")
    p.add_argument("file")
    p.add_argument("--map", choices=ybe.MAP_KINDS, help="single map kind (default: all)")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = sub.add_parser("construct", help="generate algebras (skewlat v1 output)")
    p.add_argument("what", choices=("chain", "rect", "fixed", "ring"))
    p.add_argument("arg", help="chain: sizes 'a,b,...'; rect: 'l,r'; fixed: 3R0|3R1|NC5R|NC5L; ring: 'dim,mod'")
    p.add_argument("-o", "--output", help="output file (ring: output directory)")
    p.add_argument("--ring-kind", choices=("full", "ut"), default="ut")

    def search_flags(p):
        p.add_argument("--satisfy", action="append", default=[], metavar="PRED")
        p.add_argument("--falsify", action="append", default=[], metavar="PRED")
        p.add_argument("--max-nodes", type=int, default=0)
        p.add_argument("--max-seconds", type=float, default=0.0)

    p = sub.add_parser("enumerate", help="enumerate skew lattices of one order up to isomorphism")
    p.add_argument("n", type=int)
    search_flags(p)
    p.add_argument("--limit", type=int, default=0, help="stop after this many witnesses (0 = all)")
    p.add_argument("--out-dir", help="write each witness as a skewlat v1 file")
    p.add_argument("--checkpoint", help="write a resume checkpoint on budget exhaustion")
    p.add_argument("--resume", help="resume from a checkpoint file")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = sub.add_parser("search", help="find a counterexample over sizes 1..N (exit 1 if none)")
    p.add_argument("--max-n", type=int, required=True)
    search_flags(p)
    p.add_argument("-o", "--output", help="write the witness as a skewlat v1 file")

    p = sub.add_parser("theorems", help="run the theorem battery over all algebras up to a size")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--only", help="comma-separated theorem names (default: all)")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    return top


def run(argv=None) -> int:
    """Run one skewlat command line (sys.argv[1:] when argv is None) and
    return its exit code; see the module docstring. It may be called any
    number of times in one process: every call shares one parser."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return globals()[f"_cmd_{args.verb}"](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.AxiomError as exc:
        print(f"not a skew lattice: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stdout points at devnull from here on, so the
        # flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_PIPE
    sys.exit(status)


if __name__ == "__main__":
    main()
