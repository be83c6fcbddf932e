"""Acceptance criteria, one test per criterion.

Each test prints exactly one `[criterion NN] PASS|FAIL - summary` line
(through disabled capture, so the lines always appear in the pytest run).
"""

import random
import time

import pytest

from skewlat import constructions, green, search, terms, theorems, varieties, ybe
from skewlat.core import CayleyPair, validate


@pytest.fixture()
def report(capsys):
    def _report(number: int, ok: bool, summary: str):
        with capsys.disabled():
            print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {summary}")
        assert ok, f"criterion {number}: {summary}"

    return _report


def all_algebras(census5, max_n):
    for n in range(1, max_n + 1):
        yield from census5[n]


def test_criterion_01_named_witnesses(report, threes):
    r0, r1 = threes
    t0 = time.monotonic()
    lib = terms.library()
    # the second strong-solution identity fails on 3R0 at x=0, y=1, z=2
    wit = terms.holds(r0, lib["strong2"])
    env = {"x": 0, "y": 1, "z": 2}
    _, lhs, rhs = terms.holds_at(r0, lib["strong2"], env)
    a = varieties.classify(r0)
    b = varieties.classify(r1)
    ok = (
        wit == env
        and (lhs, rhs) == (2, 1)
        and a["strongly_distributive"]
        and not a["co_strongly_distributive"]
        and b["co_strongly_distributive"]
        and not b["strongly_distributive"]
        and time.monotonic() - t0 < 1.0
    )
    report(1, ok, f"3R0/3R1 witnesses exact (lhs={lhs}, rhs={rhs}, at {wit})")


def test_criterion_02_update_maps_idempotent_solutions(report, census5):
    t0 = time.monotonic()
    checked = 0
    ok = True
    for S in all_algebras(census5, 5):
        for kind in ("update", "lower_update"):
            m = ybe.build_map(S, kind)
            if ybe.braid_check(m) is not None or not ybe.power_class(m).idempotent:
                ok = False
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(2, ok, f"update maps idempotent solutions on {checked} algebras n<=5 ({elapsed:.1f}s)")


def test_criterion_03_family_identity_iff_braid(report, census5):
    mismatches = 0
    checked = 0
    for S in all_algebras(census5, 4):
        for family in ("strong", "left", "right", "weak"):
            identity_ok = True
            lib = terms.library()
            for name in ybe.FAMILY_IDENTITIES[family]:
                if terms.holds(S, lib[name]) is not True:
                    identity_ok = False
                    break
            braid_ok = ybe.braid_check(ybe.build_map(S, family)) is None
            if identity_ok != braid_ok:
                mismatches += 1
            checked += 1
    report(3, mismatches == 0, f"identity<->braid equivalence, {checked} checks n<=4, {mismatches} mismatches")


def test_criterion_04_strong_plus_costrong_cubic(report, census5):
    bad = 0
    hits = 0
    for S in all_algebras(census5, 5):
        r = varieties.classify(S)
        if not (r["strongly_distributive"] and r["co_strongly_distributive"]):
            continue
        hits += 1
        m = ybe.build_map(S, "strong")
        if ybe.braid_check(m) is not None or not ybe.power_class(m).cubic:
            bad += 1
    report(4, bad == 0, f"strong+co-strong => cubic strong solution on {hits} algebras n<=5")


def test_criterion_05_cancellativity_solution_equivalences(report, census5):
    mismatches = 0
    checked = 0
    for S in all_algebras(census5, 4):
        r = varieties.classify(S)
        expected = {
            "left": r["distributive"] and r["left_cancellative"],
            "right": r["distributive"] and r["right_cancellative"],
            "weak": r["distributive"] and r["simply_cancellative"] and r["lower_symmetric"],
        }
        for family, want in expected.items():
            got = ybe.braid_check(ybe.build_map(S, family)) is None
            if got != want:
                mismatches += 1
            checked += 1
    report(5, mismatches == 0, f"variety<->solution equivalences, {checked} checks n<=4, {mismatches} mismatches")


def test_criterion_06_random_chains(report):
    t0 = time.monotonic()
    rng = random.Random(20240817)
    bad = 0
    for _ in range(50):
        sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        S = constructions.chain(sizes)  # chain() validates internally
        r = varieties.classify(S)
        if not (r["distributive"] and r["cancellative"]):
            bad += 1
            continue
        blocks = [frozenset(range(sum(sizes[:i]), sum(sizes[: i + 1]))) for i in range(len(sizes))]
        if sorted(green.green_relations(S)[2].classes, key=min) != blocks:
            bad += 1
        for family in ("left", "right", "weak"):
            if ybe.braid_check(ybe.build_map(S, family)) is not None:
                bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 10
    report(6, ok, f"50 random chains distributive+cancellative+solutions, D-classes the blocks ({elapsed:.1f}s)")


def test_criterion_07_nc5_characterization(report, census5):
    mismatches = 0
    for S in census5[5]:
        free = varieties.nc5_free(S)
        simply = varieties.classify(S)["simply_cancellative"]
        if (free is True) != simply:
            mismatches += 1
    report(7, mismatches == 0, f"simply_cancellative <-> forbidden-subalgebra-free on {len(census5[5])} algebras n=5")


def test_criterion_08_nondegenerate_strong_solutions(report, census5):
    bad = 0
    hits = 0
    for S in all_algebras(census5, 5):
        m = ybe.build_map(S, "strong")
        if ybe.braid_check(m) is not None:
            continue
        left, right = ybe.degeneracy(m)
        if not (left or right):
            continue
        hits += 1
        mt, jt = S.pair.meet, S.pair.join
        if not all(
            mt[x][y] == y and jt[x][y] == x for x in S.elements() for y in S.elements()
        ):
            bad += 1
    report(8, bad == 0, f"nondegenerate strong solutions satisfy x^y=y, xvy=x ({hits} instances n<=5)")


def test_criterion_09_symmetric_triple(report, census5):
    bad = 0
    hits = 0
    for S in all_algebras(census5, 5):
        if not varieties.classify(S)["symmetric"]:
            continue
        hits += 1
        verdicts = {
            f: ybe.braid_check(ybe.build_map(S, f)) is None for f in ("left", "right", "weak")
        }
        if len(set(verdicts.values())) != 1:
            bad += 1
    report(9, bad == 0, f"left/right/weak verdicts coincide on {hits} symmetric algebras n<=5")


def test_criterion_10_ring_corollaries(report):
    t0 = time.monotonic()
    bad = 0
    emitted = 0
    for spec in (
        constructions.RingSpec(kind="ut", dim=2, mod=2),
        constructions.RingSpec(kind="full", dim=2, mod=2),
        constructions.RingSpec(kind="ut", dim=3, mod=2),
        constructions.RingSpec(kind="ut", dim=2, mod=5),
    ):
        for S, _, _ in constructions.ring_band(spec).emitted:
            emitted += 1
            r = varieties.classify(S)
            if not (r["distributive"] and r["cancellative"]):
                bad += 1
                continue
            for family in ("left", "right", "weak"):
                if ybe.braid_check(ybe.build_map(S, family)) is not None:
                    bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and emitted > 0 and elapsed < 30
    report(10, ok, f"{emitted} ring-band algebras pass all checks ({elapsed:.1f}s)")


def test_criterion_11_search_substitute(report, tmp_path):
    spec = search.SearchSpec(
        n=6,
        satisfy=("left_handed", "distributive", "cancellative"),
        falsify=("strong-solution",),
    )
    result = search.find_counterexample(spec)
    none_up_to_6 = result.witness is None and result.exhausted

    # checkpoint/resume round trip on budgeted runs of the satisfy filters
    # (49 witnesses at n=6): resumes chained through checkpoint files until
    # the run is exhausted yield every witness exactly once, in order
    whole = search.SearchSpec(n=6, satisfy=spec.satisfy)
    full = search.enumerate_skew_lattices(whole)
    sub = search.SearchSpec(n=6, satisfy=spec.satisfy, max_nodes=5000)
    witnesses, runs, nodes, resume = [], 0, 0, None
    while True:
        part = search.enumerate_skew_lattices(sub, resume=resume)
        witnesses += part.witnesses
        runs += 1
        nodes += part.nodes
        if part.exhausted:
            break
        search.save_checkpoint(sub, part.checkpoint, tmp_path / "ck.txt")
        resume, _ = search.load_checkpoint(sub, tmp_path / "ck.txt")
    resume_ok = (
        runs > 1
        and len(full.witnesses) == 49
        and [S.pair for S in witnesses] == [S.pair for S in full.witnesses]
        and nodes == full.nodes
    )
    ok = none_up_to_6 and resume_ok
    report(11, ok, f"no left-handed+distributive+cancellative non-strong-solution up to n=6 ({result.nodes} nodes); checkpoint round trip ok={resume_ok} ({runs} runs)")


def test_criterion_12_decomposition_invariants(report, census5):
    bad = 0
    checked = 0
    for S in all_algebras(census5, 5):
        checked += 1
        for name in ("decomposition-invariants", "orders-cohere-with-green"):
            if theorems.THEOREMS[name](S) is not True:
                bad += 1
    report(12, bad == 0, f"decomposition + identity-transfer invariants on {checked} algebras n<=5")
