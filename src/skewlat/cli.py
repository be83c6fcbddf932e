"""Command-line entry point.

Exit codes: 0 pass/success, 1 check failure (witness printed), 2 usage or
I/O error. Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import constructions, core, green, search, terms, theorems, varieties, ybe

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


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
    if args.format == "tsv":
        L, R, D = green.green_relations(S)
        rows = [("class", "kind", "elements")]
        for kind, P in (("L", L), ("R", R), ("D", D)):
            for cid, cls in enumerate(P.classes):
                rows.append((cid, kind, " ".join(str(x) for x in sorted(cls))))
        sys.stdout.write(_tsv(rows))
    else:
        sys.stdout.write(green.structure_report(S))
    return EXIT_OK


def _cmd_props(args) -> int:
    S = _load_algebra(args.file)
    report = varieties.classify(S)
    free = varieties.nc5_free(S)
    if args.format == "tsv":
        rows = [("property", "value", "witness")]
        for name in varieties.FLAG_NAMES:
            w = report.witnesses.get(name)
            wtext = "" if w is None else " ".join(f"{k}={v}" for k, v in sorted(w.items()))
            rows.append((name, str(report.flags[name]).lower(), wtext))
        rows.append(
            (
                "nc5_free",
                str(free is True).lower(),
                "" if free is True else f"{free[0]} on {free[1]}",
            )
        )
        sys.stdout.write(_tsv(rows))
    else:
        sys.stdout.write(report.to_text())
        if free is True:
            print("nc5_free: true")
        else:
            name, subset, _ = free
            print(f"nc5_free: false (contains {name} on elements {set(subset)})")
    return EXIT_OK


def _cmd_ybe(args) -> int:
    S = _load_algebra(args.file)
    kinds = [args.map] if args.map else list(ybe.MAP_KINDS)
    reports = [ybe.solution_report(S, k) for k in kinds]
    if args.format == "tsv":
        rows = [
            (
                "map",
                "braid",
                "witness",
                "involutive",
                "idempotent",
                "cubic",
                "left_nondegenerate",
                "right_nondegenerate",
            )
        ]
        for r in reports:
            rows.append(
                (
                    r.map_name,
                    "pass" if r.braid is None else "fail",
                    "" if r.braid is None else str(r.braid.triple),
                    str(r.power.involutive).lower(),
                    str(r.power.idempotent).lower(),
                    str(r.power.cubic).lower(),
                    str(r.left_nondegenerate).lower(),
                    str(r.right_nondegenerate).lower(),
                )
            )
        sys.stdout.write(_tsv(rows))
    else:
        for r in reports:
            sys.stdout.write(r.to_text())
    return EXIT_OK if all(r.braid is None for r in reports) else EXIT_FAIL


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
        try:
            result = constructions.ring_band(spec)
        except constructions.BudgetExceededError as exc:
            raise _UsageError(str(exc))
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


def _check_predicates(args) -> None:
    for name in list(args.satisfy or ()) + list(args.falsify or ()):
        try:
            search.resolve_predicate(name)
        except ValueError as exc:
            raise _UsageError(str(exc))


def _cmd_enumerate(args) -> int:
    _check_predicates(args)
    spec = _make_spec(args, args.n, limit=args.limit)
    resume = None
    if args.resume:
        try:
            resume = search.load_checkpoint(spec, args.resume)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot resume from {args.resume}: {exc}")
    result = search.enumerate_skew_lattices(spec, resume=resume)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for idx, S in enumerate(result.witnesses):
            core.save(S.pair, os.path.join(args.out_dir, f"n{args.n}-{idx:05d}.skl"))
    if not result.exhausted and result.checkpoint and args.checkpoint:
        search.save_checkpoint(spec, result.checkpoint, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)
    if args.format == "tsv":
        rows = [
            ("n", "count_up_to_iso", "nodes", "exhausted"),
            (args.n, result.count_up_to_iso, result.nodes, str(result.exhausted).lower()),
        ]
        sys.stdout.write(_tsv(rows))
    else:
        print(f"n={args.n}: {result.count_up_to_iso} algebras up to isomorphism "
              f"({result.nodes} nodes, exhausted={str(result.exhausted).lower()})")
    return EXIT_OK


def _cmd_search(args) -> int:
    _check_predicates(args)
    spec = _make_spec(args, args.max_n)
    result = search.find_counterexample(spec)
    if result.witness is not None:
        print(f"witness found at n={result.found_n}:")
        sys.stdout.write(core.to_text(result.witness.pair))
        if args.output:
            core.save(result.witness.pair, args.output)
            print(f"witness written to {args.output}", file=sys.stderr)
        return EXIT_OK
    tag = "exhausted" if result.exhausted else "budget exhausted"
    print(f"no witness up to n={args.max_n} ({tag}, {result.nodes} nodes)")
    return EXIT_FAIL


def _cmd_theorems(args) -> int:
    names = args.only.split(",") if args.only else None
    try:
        result = theorems.run_battery(args.max_n, names=names)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.format == "tsv":
        rows = [("theorem", "checked", "failures")]
        for name in result.passes:
            rows.append((name, result.passes[name] + len(result.failures[name]), len(result.failures[name])))
        sys.stdout.write(_tsv(rows))
    else:
        print(result.to_text())
    return EXIT_OK if result.ok else EXIT_FAIL


# --- wiring ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="skewlat", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check skew lattice axioms on algebra files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("structure", help="Green's relations and D-class order")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("props", help="variety membership flags with witnesses")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("ybe", help="Yang-Baxter solution reports")
    p.add_argument("file")
    p.add_argument("--map", choices=ybe.MAP_KINDS, help="single map kind (default: all)")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_ybe)

    p = sub.add_parser("construct", help="generate algebras (skewlat v1 output)")
    p.add_argument("what", choices=("chain", "rect", "fixed", "ring"))
    p.add_argument("arg", help="chain: sizes 'a,b,...'; rect: 'l,r'; fixed: 3R0|3R1|NC5R|NC5L; ring: 'dim,mod'")
    p.add_argument("-o", "--output", help="output file (ring: output directory)")
    p.add_argument("--ring-kind", choices=("full", "ut"), default="ut")
    p.set_defaults(func=_cmd_construct)

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
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("search", help="find a counterexample over sizes 1..N (exit 1 if none)")
    p.add_argument("--max-n", type=int, required=True)
    search_flags(p)
    p.add_argument("-o", "--output", help="write the witness as a skewlat v1 file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("theorems", help="run the theorem battery over all algebras up to a size")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--only", help="comma-separated theorem names (default: all)")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_theorems)

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.AxiomError as exc:
        print(f"not a skew lattice: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
