"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The default verification grid is every signature with p in {2,3},
s in {2,3}, t_1 >= 1, t_s >= 1, and |C| <= 2^16.  Every code gets exact
certificates (group order, closure, character sums for the GH property
and the minimum distance, the coset rank for linearity); codes with
|C| <= 2^12 are also cross-checked by brute force.  Run with -s to see
the per-criterion lines.
"""

import io
import time

import numpy as np
import pytest

from ghcodes.analysis import (
    expected_linear,
    gf_rank,
    gf_span_words,
    is_linear,
    kernel,
    kernel_basis,
    rank,
)
from ghcodes.cli import GridSpec, main, run_grid
from ghcodes.construction import TypeSignature, build
from ghcodes.enumeration import PAryCode, gray_image, order_p_subcode, span
from ghcodes.gray import phi

QUAD_CAP = 2**12
GRID_TIME_BUDGET_S = 120.0

TEXT_2_3_101 = """\
p=2 s=3 alpha=2,1,1 t=1,0,1
1 1 | 2 | 4
0 1 | 1 | 1
"""

TEXT_2_3_201 = """\
p=2 s=3 alpha=4,6,12 t=2,0,1
1 1 1 1 | 2 2 2 2 2 2 | 4 4 4 4 4 4 4 4 4 4 4 4
0 1 0 1 | 0 2 1 1 1 1 | 0 2 4 6 1 1 1 1 1 1 1 1
0 0 1 1 | 1 1 0 1 2 3 | 1 1 1 1 0 1 2 3 4 5 6 7
"""


def report_line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def grid_run():
    """One sweep over the full default grid, shared by several criteria."""
    spec = GridSpec()
    t0 = time.monotonic()
    reports, failed = run_grid(spec, out=io.StringIO())
    elapsed = time.monotonic() - t0
    return spec, reports, failed, elapsed


@pytest.fixture(scope="module")
def small_codes(grid_run):
    """Materialized Gray images and their brute-force kernels for every
    grid code within the quadratic cap."""
    _, reports, _, _ = grid_run
    out = []
    for r in reports:
        if r.size <= QUAD_CAP:
            code = span(build(r.signature))
            gray = gray_image(code)
            out.append((r.signature, code, gray, kernel(gray, cap=QUAD_CAP)))
    return out


def test_criterion_1_fixture_exactness(capsys):
    t0 = time.monotonic()
    main(["construct", "-p", "2", "-s", "3", "-t", "1,0,1"])
    out_a = capsys.readouterr().out
    main(["construct", "-p", "2", "-s", "3", "-t", "2,0,1"])
    out_b = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    ok = out_a == TEXT_2_3_101 and out_b == TEXT_2_3_201 and elapsed < 1.0
    assert report_line(
        "criterion-1 fixture-exactness",
        ok,
        f"both generator matrices byte-exact in {elapsed:.3f}s",
    )


def test_criterion_2_gh_property(grid_run):
    _, reports, _, elapsed = grid_run
    bad = []
    for r in reports:
        expected_d = r.n * (r.signature.p - 1) // r.signature.p
        if not (r.is_gh and r.size == r.signature.p * r.n and r.min_distance == expected_d):
            bad.append(r.signature)
    ok = not bad and len(reports) > 0 and elapsed < GRID_TIME_BUDGET_S
    assert report_line(
        "criterion-2 gh-property",
        ok,
        f"{len(reports)} signatures, {len(bad)} violations, "
        f"grid in {elapsed:.1f}s (budget {GRID_TIME_BUDGET_S:.0f}s)",
    )


def test_criterion_3_linearity_classification(grid_run):
    _, reports, _, _ = grid_run
    bad = [
        r.signature
        for r in reports
        if r.is_linear != expected_linear(r.signature)
        or (r.signature.p == 3 and r.is_linear)
    ]
    assert report_line(
        "criterion-3 linearity-classification",
        not bad and len(reports) > 0,
        f"exact biconditional over {len(reports)} signatures, "
        f"{len(bad)} exceptions",
    )


def test_criterion_4_kernel_law(small_codes):
    checked, bad = 0, []
    for sig, code, _, k in small_codes:
        if expected_linear(sig):
            continue
        checked += 1
        if not k.same_set(gray_image(order_p_subcode(code))):
            bad.append(sig)
    assert report_line(
        "criterion-4 kernel-law",
        checked > 0 and not bad,
        f"{checked} nonlinear codes, kernel = image of the order-p subcode "
        f"in all, {len(bad)} failures",
    )


def test_criterion_5_kernel_basis_dimension(small_codes):
    checked, bad = 0, []
    spot = {}
    for sig, _, gray, k in small_codes:
        if expected_linear(sig):
            continue
        checked += 1
        vecs = kernel_basis(build(sig))
        spanned = PAryCode(sig.p, gray.length, gf_span_words(vecs, sig.p))
        independent = gf_rank(vecs, sig.p) == sig.num_rows
        dim_ok = len(k) == sig.p**sig.num_rows
        if not (independent and dim_ok and spanned.same_set(k)):
            bad.append(sig)
        key = (sig.p, sig.s, sig.ts)
        if key in ((2, 3, (2, 0, 1)), (3, 2, (1, 1))):
            spot[key] = int(np.log(len(k)) / np.log(sig.p) + 0.5)
    ok = (
        checked > 0
        and not bad
        and spot.get((2, 3, (2, 0, 1))) == 3
        and spot.get((3, 2, (1, 1))) == 2
    )
    assert report_line(
        "criterion-5 kernel-basis-dimension",
        ok,
        f"{checked} nonlinear codes, basis spans kernel with dim = sum(t_i); "
        f"spot values {spot}",
    )


def test_criterion_6_gray_map_ground_truth():
    table_ok = [phi(u, 2, 2).tolist() for u in range(4)] == [
        [0, 0], [0, 1], [1, 1], [1, 0],
    ]
    lin_ok = True
    for p, r in ((2, 2), (2, 3), (3, 2), (5, 2)):
        basis = [np.asarray(phi(p**i, p, r), dtype=np.int64) for i in range(r)]
        for u in range(p**r):
            digits, x = [], u
            for _ in range(r):
                x, d = divmod(x, p)
                digits.append(d)
            combo = sum(d * b for d, b in zip(digits, basis)) % p
            if combo.tolist() != phi(u, p, r).tolist():
                lin_ok = False
    assert report_line(
        "criterion-6 gray-map-ground-truth",
        table_ok and lin_ok,
        "four-entry table exact; digit-linearity exhaustive over "
        "(2,2),(2,3),(3,2),(5,2)",
    )


def test_criterion_7_cross_implementation_agreement(small_codes):
    kernel_checked = agree_checked = 0
    bad = []
    for sig, _, gray, k in small_codes:
        agree_checked += 1
        lin_by_kernel = k.same_set(gray)
        lin_by_rank = is_linear(gray) and rank(gray) == sig.code_size_exponent()
        if lin_by_kernel != lin_by_rank:
            bad.append(("rank-vs-kernel", sig))
        if not expected_linear(sig):
            kernel_checked += 1
            vecs = kernel_basis(build(sig))
            spanned = PAryCode(sig.p, gray.length, gf_span_words(vecs, sig.p))
            if not spanned.same_set(k):
                bad.append(("brute-vs-basis", sig))
    assert report_line(
        "criterion-7 cross-implementation-agreement",
        agree_checked > 0 and kernel_checked > 0 and not bad,
        f"brute and basis kernels identical on {kernel_checked} codes; "
        f"rank and kernel linearity agree on {agree_checked} codes; "
        f"{len(bad)} disagreements",
    )
