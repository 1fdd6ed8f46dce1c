"""Values the paper predicts for a type, an independent reference verifier
for small codes, and the check of an ``AnalysisReport`` against both.

Nothing here uses ghcodes' arithmetic: the reference takes only the rows
and block widths of ``build(sig)`` and spans, Gray-maps and checks them
with its own code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Codes up to this size also get the independent reference verification.
REFERENCE_MAX_SIZE = 512


@dataclass(frozen=True)
class Expected:
    """What the paper says about the code of type (t_1, ..., t_s)."""

    size: int
    n: int
    d: int
    log_size: int
    linear: bool
    kernel_dim: int


def expected(p: int, s: int, ts: tuple[int, ...]) -> Expected:
    log_size = sum((s - i) * t for i, t in enumerate(ts))  # t_i weighs s-i+1
    size = p**log_size
    n = size // p
    linear = p == 2 and ts[0] == 1 and all(t == 0 for t in ts[1:-1])
    return Expected(
        size=size,
        n=n,
        d=n * (p - 1) // p,
        log_size=log_size,
        linear=linear,
        kernel_dim=log_size if linear else sum(ts),
    )


@dataclass(frozen=True)
class ReferenceResult:
    """Invariants of the Gray image computed by direct enumeration."""

    size: int
    n: int
    gh: bool
    min_distance: int
    kernel_dim: int | None
    linear: bool
    rank: int


def _span(rows: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """Every combination sum_k c_k row_k with 0 <= c_k < order(row_k)."""
    orders = []
    for row in rows.tolist():
        order = 1
        for x, m in zip(row, mods.tolist()):
            order = max(order, m // math.gcd(x, m))  # orders are powers of p
        orders.append(order)
    coeffs = np.array(list(itertools.product(*(range(o) for o in orders))), dtype=np.int64)
    return (coeffs @ rows.astype(np.int64)) % mods


def _phi_columns(u: np.ndarray, p: int, r: int) -> np.ndarray:
    """phi(u) = u_{r-1} * 1 + (u_0, ..., u_{r-2}) Y for a column u of Z_{p^r},
    Y having all vectors of Z_p^{r-1} as its columns."""
    digits = np.stack([(u // p**j) % p for j in range(r)], axis=1)
    if r == 1:
        return digits
    y = np.array(list(itertools.product(range(p), repeat=r - 1)), dtype=np.int64).T
    return (digits[:, r - 1 : r] + digits[:, : r - 1] @ y) % p


def _gray(words: np.ndarray, p: int, alphas: tuple[int, ...]) -> np.ndarray:
    parts = []
    col = 0
    for r, alpha in enumerate(alphas, start=1):
        for _ in range(alpha):
            parts.append(_phi_columns(words[:, col], p, r))
            col += 1
    return np.concatenate(parts, axis=1)


def _add_mod(a: np.ndarray, b, p: int) -> np.ndarray:
    """(a + b) mod p for uint8 entries already reduced mod p."""
    t = a + b
    t -= (t >= p).view(np.uint8) * np.uint8(p)
    return t


def _log_p(x: int, p: int) -> int | None:
    k = 0
    while p**k < x:
        k += 1
    return k if p**k == x else None


def _rank_mod_p(rows: np.ndarray, p: int) -> int:
    m = rows.astype(np.int64) % p
    rank = 0
    for col in range(m.shape[1]):
        nz = np.flatnonzero(m[rank:, col]) + rank
        if nz.size == 0:
            continue
        m[[rank, nz[0]]] = m[[nz[0], rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), -1, p)) % p
        others = np.flatnonzero(m[:, col])
        others = others[others != rank]
        m[others] = (m[others] - np.outer(m[others, col], m[rank])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def reference(p: int, rows: np.ndarray, alphas: tuple[int, ...]) -> ReferenceResult:
    """Span, Gray-map and check the code generated by ``rows`` from scratch."""
    mods = np.repeat([p**i for i in range(1, len(alphas) + 1)], alphas).astype(np.int64)
    words = _span(rows, mods)
    gray = _gray(words, p, alphas).astype(np.uint8)
    size, n = gray.shape
    members = {row.tobytes() for row in gray}
    plus = [_add_mod(gray, np.uint8(a), p) for a in range(p)]  # plus[a][i] = gray[i] + a
    gh = (
        len(members) == size
        and size == p * n
        and bytes(n) in members
        and all(row.tobytes() in members for row in plus[1])
    )
    min_d = n
    for i in range(size - 1):
        # counts[a, j]: positions where gray[i+1+j] - gray[i] = a
        counts = np.stack(
            [np.count_nonzero(gray[i + 1 :] == plus[a][i], axis=1) for a in range(p)]
        )
        balanced = np.all(counts == n // p, axis=0)
        constant = counts.max(axis=0) == n
        gh = gh and bool(np.all(balanced | constant))
        min_d = min(min_d, int(n - counts[0].max()))
    # x is in the kernel when x + C equals C as a set
    key = np.dtype((np.void, n))
    ordered = np.sort(gray.view(key).ravel()).tobytes()
    in_kernel = sum(
        np.sort(_add_mod(gray, x, p).view(key).ravel()).tobytes() == ordered
        for x in gray
    )
    return ReferenceResult(
        size=size,
        n=n,
        gh=gh,
        min_distance=min_d,
        kernel_dim=_log_p(in_kernel, p),
        linear=in_kernel == size,
        rank=_rank_mod_p(gray, p),
    )


def _against_paper(sig: tuple, source: str, size, n, gh, d, linear, kernel_dim, rank) -> list[str]:
    exp = expected(*sig)
    problems = [
        f"{source} {name} {got}, paper {want}"
        for name, got, want in (
            ("size", size, exp.size),
            ("n", n, exp.n),
            ("is_gh", gh, True),
            ("min_distance", d, exp.d),
            ("is_linear", linear, exp.linear),
            ("kernel_dim", kernel_dim, exp.kernel_dim),
        )
        if got != want
    ]
    # rank = log_p|C| when linear; any nonlinear code has rank above it
    if exp.linear and rank != exp.log_size:
        problems.append(f"{source} rank {rank}, paper {exp.log_size}")
    if not exp.linear and rank <= exp.log_size:
        problems.append(f"{source} rank {rank}, paper > {exp.log_size}")
    return problems


def check_reference(sig: tuple, ref: ReferenceResult) -> list[str]:
    """Disagreements between the reference and the paper's values."""
    return _against_paper(
        sig, "reference", ref.size, ref.n, ref.gh, ref.min_distance, ref.linear,
        ref.kernel_dim, ref.rank,
    )


def check_report(sig: tuple, report, ref: ReferenceResult | None) -> list[str]:
    """Disagreements between a report and the paper (and the reference)."""
    problems = _against_paper(
        sig, "report", report.size, report.n, report.is_gh, report.min_distance,
        report.is_linear, report.kernel_dim, report.rank,
    )
    if ref is not None:
        problems += [
            f"report {name} {got}, reference {want}"
            for name, got, want in (
                ("min_distance", report.min_distance, ref.min_distance),
                ("is_gh", report.is_gh, ref.gh),
                ("is_linear", report.is_linear, ref.linear),
                ("kernel_dim", report.kernel_dim, ref.kernel_dim),
                ("rank", report.rank, ref.rank),
            )
            if got != want
        ]
    if not report.ok:
        failed = [c.name for c in report.checks if not c.passed]
        problems.append("report failed checks: " + ",".join(failed))
    return problems
