#!/usr/bin/env python3
"""Write the benchmark's input files.

    python3 bench/make_inputs.py           # (re)write the files in bench/inputs/
    python3 bench/make_inputs.py --check   # exit 1 unless the files match

- ``<name>.skl``: the algebras the reports workload reads, from skewlat's
  constructions. Building the ring bands of upper-triangular 3x3 matrices
  over Z_2 takes about a minute.
- ``census-1-5.txt``: the battery's algebras, every skew lattice of order
  1..5 up to isomorphism as skewlat's search enumerates them, one skewlat
  v1 text after each ``# order n`` line.

The files hold the algebras unrelabeled. A benchmark run relabels each one
by a permutation drawn from its --seed before the program sees it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
INPUT_DIR = BENCH_DIR / "inputs"


@functools.cache
def _ring_band(c, kind, dim, mod):
    return c.ring_band(c.RingSpec(kind=kind, dim=dim, mod=mod)).emitted


def _ring(c, kind, dim, mod, order, join):
    """The first emitted ring-band algebra of the given order and join."""
    emitted = _ring_band(c, kind, dim, mod)
    return next(S for S, j, _ in emitted if S.n == order and j == join)


# file stem -> how to build it; orders 6 to 16, none of them dominating a round
ALGEBRAS = {
    "chain-2-2-2": lambda c: c.chain((2, 2, 2)),
    "chain-1-3-2": lambda c: c.chain((1, 3, 2)),
    "chain-3-1-2-1": lambda c: c.chain((3, 1, 2, 1)),
    "chain-3-3-3": lambda c: c.chain((3, 3, 3)),
    "rect-2-3": lambda c: c.rectangular(2, 3),
    "rect-3-3": lambda c: c.rectangular(3, 3),
    "rect-2-5": lambda c: c.rectangular(2, 5),
    "rect-4-4": lambda c: c.rectangular(4, 4),
    "product-3R0-3R1": lambda c: c.direct_product(c.fixed("3R0"), c.fixed("3R1")),
    "product-NC5R-chain-2": lambda c: c.direct_product(c.fixed("NC5R"), c.chain((2,))),
    "product-NC5L-chain-1-1": lambda c: c.direct_product(c.fixed("NC5L"), c.chain((1, 1))),
    "product-3R0-rect-2-2": lambda c: c.direct_product(c.fixed("3R0"), c.rectangular(2, 2)),
    "ring-ut3-mod2-quadratic-8": lambda c: _ring(c, "ut", 3, 2, 8, "quadratic"),
    "ring-ut3-mod2-cubic-10": lambda c: _ring(c, "ut", 3, 2, 10, "cubic"),
}


CENSUS_FILE = "census-1-5.txt"


def build() -> dict:
    """File name -> file text, for every input."""
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from skewlat import constructions, core, search

    files = {f"{stem}.skl": core.to_text(make(constructions).pair) for stem, make in ALGEBRAS.items()}
    files[CENSUS_FILE] = "".join(
        f"# order {n}\n" + core.to_text(S.pair)
        for n in range(1, 6)
        for S in search.enumerate_skew_lattices(search.SearchSpec(n=n)).witnesses
    )
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args(argv)
    files = build()
    if args.check:
        present = {p.name for p in INPUT_DIR.iterdir()}
        bad = sorted(
            name
            for name in present | set(files)
            if name not in files or name not in present or (INPUT_DIR / name).read_text(encoding="utf-8") != files[name]
        )
        for name in bad:
            print(f"differs: {name}", file=sys.stderr)
        return 1 if bad else 0
    INPUT_DIR.mkdir(exist_ok=True)
    for name, text in files.items():
        (INPUT_DIR / name).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
