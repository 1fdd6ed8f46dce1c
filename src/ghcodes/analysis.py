"""Structural invariants of p-ary codes and the theorem-replay report.

Small codes (|C| <= quad cap) get the full quadratic treatment: exact
minimum distance, exhaustive balanced-difference checks, definitional
kernel, rank by elimination.  One exact pair scan per code serves both
the GH property and the minimum distance: p = 2 XORs bit-packed rows,
p > 2 counts each difference symbol as tiled one-hot float32 products on
narrow rows and with packed per-symbol masks on wide ones.  Larger codes
get exact cardinality and linearity certificates plus sampled pair
checks, so the grid sweep stays desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .construction import GeneratorMatrix, TypeSignature, build
from .enumeration import (
    AdditiveCode,
    PAryCode,
    additive_span_order,
    fold_dtype,
    gray_image,
    order_p_subcode,
    packed_view,
    partial_span,
    span,
)
from .errors import ResourceLimitError
from .gray import gray_rows, mixed_gray, shift_translates_to_all_ones
from .ring import order_of, scalar_mul

DEFAULT_QUAD_CAP = 2**12
DEFAULT_PAIR_TARGET = 100_000


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def hamming_distance(u, v) -> int:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    return int(np.count_nonzero(u != v))


def hamming_weight(u) -> int:
    return int(np.count_nonzero(np.asarray(u)))


def _pack_bits_u64(words: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into uint64 lanes (zero-padded)."""
    pk = np.packbits(words, axis=1)
    pad = (-pk.shape[1]) % 8
    if pad:
        pk = np.pad(pk, ((0, 0), (0, pad)))
    return pk.view(np.uint64)


def _symbol_masks_u64(words: np.ndarray, p: int) -> list[np.ndarray]:
    return [_pack_bits_u64((words == a).astype(np.uint8)) for a in range(p)]


# Bytes of one float32 one-hot right operand in the p > 2 product kernel;
# the left operand, which holds each symbol twice, stays under twice this.
# The kernel holds one left and one right operand and one tile of counts
# at a time, so it never builds the one-hot of a whole code.
_ONEHOT_TILE_BYTES = 1 << 20

# Row width from which p > 2 scans use packed per-symbol masks instead of
# the one-hot products.  A product does about p^2*n flops per pair where
# the masks do p^2*n/64 lane operations plus p^2 numpy calls per row, and
# the product's tiles get fewer rows as n*p grows.  Masks time over
# product time, on a 2-core x86-64 machine: 2.6 at p = 3, n = 729 (a
# whole 2187-word code); 0.66 at p = 11, n = 1331 and 0.31 at p = 7,
# n = 2401 (449-row sampled-path scans).  Exhaustive-path rows have
# n <= 729 under the 4096 quad cap; sampled-path rows with p <= 13 have
# n >= 1331.
_MASK_MIN_WIDTH = 1024


@dataclass
class PairScanResult:
    min_distance: Optional[int]  # None when there are no distinct pairs
    all_balanced_or_constant: bool
    witness: Optional[tuple[int, int]]  # indices of the first offending pair
    pairs: int


def pair_scan(words: np.ndarray, p: int, n: int) -> PairScanResult:
    """Exhaustive scan over distinct row pairs.

    For each pair, classifies the difference as balanced (every symbol
    n/p times), constant, or neither, and tracks the minimum Hamming
    distance.  Rows must be distinct.  The witness is the first offending
    pair (i, j), i < j, in row-major order.

    p = 2 XORs bit-packed rows.  p > 2 counts, for every pair and every
    d, the columns where the difference equals d: as one-hot float32
    products for rows narrower than _MASK_MIN_WIDTH, else with packed
    per-symbol masks.
    """
    m = words.shape[0]
    if m < 2:
        return PairScanResult(None, True, None, 0)
    if p == 2:
        scan = _scan_gf2
    elif n < _MASK_MIN_WIDTH:
        scan = _scan_onehot
    else:
        scan = _scan_masks
    min_d, witness = scan(words, p, n)
    return PairScanResult(min_d, witness is None, witness, m * (m - 1) // 2)


def _scan_gf2(words: np.ndarray, p: int, n: int):
    lam = n // 2
    min_d, witness = n + 1, None
    pk = _pack_bits_u64(words)
    for i in range(words.shape[0] - 1):
        w = np.bitwise_count(pk[i + 1 :] ^ pk[i]).sum(axis=1, dtype=np.int64)
        min_d = min(min_d, int(w.min()))
        bad = (w != lam) & (w != n)
        if witness is None and bad.any():
            witness = (i, i + 1 + int(np.argmax(bad)))
    return min_d, witness


def _scan_masks(words: np.ndarray, p: int, n: int):
    m = words.shape[0]
    lam = n // p
    min_d, witness = n + 1, None
    masks = _symbol_masks_u64(words, p)
    for i in range(m - 1):
        rest = slice(i + 1, m)
        dist = np.zeros(m - i - 1, dtype=np.int64)
        balanced = np.ones(m - i - 1, dtype=bool)
        constant = np.zeros(m - i - 1, dtype=bool)
        for d in range(1, p):
            c_d = np.zeros(m - i - 1, dtype=np.int64)
            for a in range(p):
                x = masks[a][i] & masks[(a - d) % p][rest]
                c_d += np.bitwise_count(x).sum(axis=1, dtype=np.int64)
            dist += c_d
            balanced &= c_d == lam
            constant |= c_d == n
        min_d = min(min_d, int(dist.min()))
        bad = ~(balanced | constant)
        if witness is None and bad.any():
            witness = (i, i + 1 + int(np.argmax(bad)))
    return min_d, witness


def _onehot(block: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Symbol-major float32 one-hot: out[i, a*n + k] = [block[i, k] == symbols[a]]."""
    eq = block[:, None, :] == symbols[:, None]
    return eq.astype(np.float32).reshape(block.shape[0], -1)


def _scan_onehot(words: np.ndarray, p: int, n: int):
    """C_d[i, j] = #{k : w_ik - w_jk = d} as onehot(w_i - d) . onehot(w_j),
    computed tile by tile over row blocks, for j > i only."""
    if n >= 1 << 24:
        raise ValueError("float32 counts are exact only below 2^24")
    m = words.shape[0]
    lam = n // p
    width = n * p
    # The left operand holds symbols 0..p-1 twice over, so that columns
    # d*n .. (d+p)*n of it are onehot(w_i - d): each shift is a strided
    # view that BLAS reads in place.  The symbols are reduced in int64,
    # so nothing wraps however large p is.
    twice = np.arange(2 * p - 1) % p
    # Bounding the rows by 512 also keeps a tile of counts within the budget.
    rows = max(1, _ONEHOT_TILE_BYTES // (4 * max(width, 512)))
    min_d, witness = n + 1, None
    for i0 in range(0, m - 1, rows):
        left = _onehot(words[i0 : i0 + rows], twice)
        first_bad = None  # row-major first offending pair in this row block
        for j0 in range(i0, m, rows):
            right = _onehot(words[j0 : j0 + rows], twice[:p]).T
            shape = (left.shape[0], right.shape[1])
            dist = np.zeros(shape, dtype=np.float32)
            balanced = np.ones(shape, dtype=bool)
            constant = np.zeros(shape, dtype=bool)
            for d in range(1, p):
                c_d = left[:, d * n : d * n + width] @ right
                dist += c_d
                balanced &= c_d == lam
                constant |= c_d == n
            bad = ~(balanced | constant)
            if j0 == i0:  # diagonal tile: keep j > i only
                upper = np.triu(np.ones(shape, dtype=bool), k=1)
                dist[~upper] = n + 1
                bad &= upper
            min_d = min(min_d, int(dist.min()))
            if witness is None and bad.any():
                r, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
                pair = (i0 + int(r), j0 + int(c))
                first_bad = pair if first_bad is None else min(first_bad, pair)
        if witness is None:
            witness = first_bad
    return min_d, witness


def min_distance(c: PAryCode) -> int:
    if len(c) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    return pair_scan(c.words, c.p, c.length).min_distance


# ---------------------------------------------------------------------------
# GH property
# ---------------------------------------------------------------------------

@dataclass
class GHCheckResult:
    ok: bool
    failure: Optional[str] = None
    witness: Optional[tuple[int, int]] = None
    min_distance: Optional[int] = None  # from the pair scan, when it ran

    def __bool__(self) -> bool:
        return self.ok


def is_gh_code(c: PAryCode) -> GHCheckResult:
    """Exact GH test: zero word, |C| = p*n, closure under +1, and every
    pairwise difference constant or balanced.  Quadratic in |C|.  When the
    pair scan runs, its minimum distance rides along on the result."""
    w = c.words
    n, p = c.length, c.p
    if not np.any(np.all(w == 0, axis=1)):
        return GHCheckResult(False, "zero word missing")
    if len(c) != p * n:
        return GHCheckResult(False, f"|C|={len(c)} != p*n={p * n}")
    shifted = PAryCode(p, n, (w.astype(np.uint16) + 1).astype(np.uint8) % p)
    if not shifted.same_set(c):
        return GHCheckResult(False, "not closed under adding the all-one vector")
    scan = pair_scan(w, p, n)
    if not scan.all_balanced_or_constant:
        return GHCheckResult(
            False,
            "difference neither constant nor balanced",
            scan.witness,
            scan.min_distance,
        )
    return GHCheckResult(True, min_distance=scan.min_distance)


# ---------------------------------------------------------------------------
# rank / linearity
# ---------------------------------------------------------------------------

class GFBasis:
    """Incremental row basis over GF(p) with an optional rank ceiling.

    p=2 uses bit-packed uint64 rows; other primes reduce byte rows with
    extended-Euclid pivot inverses.
    """

    def __init__(self, p: int, n: int, stop_above: int | None = None):
        self.p = p
        self.n = n
        self.stop_above = stop_above
        self.rank = 0
        self.exceeded = False
        self._rows: list[np.ndarray] = []
        self._pivots: list = []  # p=2: (lane, bitmask); else: column index

    def add_rows(self, rows: np.ndarray) -> None:
        if self.exceeded:
            return
        if self.p == 2:
            self._add_rows_gf2(_pack_bits_u64(rows))
        else:
            self._add_rows_gfp(rows.astype(np.int16))

    def add_packed_gf2(self, packed: np.ndarray) -> None:
        if not self.exceeded:
            self._add_rows_gf2(packed.copy())

    def _bump(self) -> None:
        self.rank += 1
        if self.stop_above is not None and self.rank > self.stop_above:
            self.exceeded = True

    def _add_rows_gf2(self, r: np.ndarray) -> None:
        for (lane, bit), brow in zip(self._pivots, self._rows):
            sel = (r[:, lane] & bit) != 0
            if sel.any():
                r[sel] ^= brow
        while not self.exceeded:
            nz = r.any(axis=1)
            r = r[nz]
            if r.shape[0] == 0:
                return
            row = r[0].copy()
            lane = int(np.argmax(row != 0))
            x = row[lane]
            bit = x & ((~x) + np.uint64(1))  # lowest set bit
            self._rows.append(row)
            self._pivots.append((lane, bit))
            self._bump()
            sel = (r[:, lane] & bit) != 0
            r[sel] ^= row

    def _add_rows_gfp(self, r: np.ndarray) -> None:
        p = self.p
        for col, brow in zip(self._pivots, self._rows):
            coef = r[:, col]
            sel = coef != 0
            if sel.any():
                r[sel] = (r[sel] - np.outer(coef[sel], brow)) % p
        while not self.exceeded:
            nz = r.any(axis=1)
            r = r[nz]
            if r.shape[0] == 0:
                return
            row = r[0]
            col = int(np.argmax(row != 0))
            inv = pow(int(row[col]), -1, p)
            row = (row * inv) % p
            self._rows.append(row)
            self._pivots.append(col)
            self._bump()
            coef = r[:, col]
            sel = coef != 0
            r[sel] = (r[sel] - np.outer(coef[sel], row)) % p


def gf_rank(rows: np.ndarray, p: int, stop_above: int | None = None) -> int:
    basis = GFBasis(p, rows.shape[1], stop_above)
    for lo in range(0, rows.shape[0], 4096):
        basis.add_rows(rows[lo : lo + 4096])
        if basis.exceeded:
            break
    return basis.rank


def rank(c: PAryCode) -> int:
    """Dimension of the GF(p) span of the codewords."""
    return gf_rank(c.words, c.p)


def _log_p(size: int, p: int) -> Optional[int]:
    k = 0
    while p**k < size:
        k += 1
    return k if p**k == size else None


def is_linear(c: PAryCode) -> bool:
    k = _log_p(len(c), c.p)
    if k is None:
        return False
    return gf_rank(c.words, c.p, stop_above=k) == k


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

class _WordSet:
    """Exact membership for a fixed set of uint8 rows."""

    def __init__(self, words: np.ndarray):
        self._n = words.shape[1]
        buf = np.ascontiguousarray(words).tobytes()
        self._set = frozenset(
            buf[i * self._n : (i + 1) * self._n] for i in range(words.shape[0])
        )

    def contains_all(self, rows: np.ndarray) -> bool:
        buf = np.ascontiguousarray(rows).tobytes()
        n = self._n
        return all(
            buf[i * n : (i + 1) * n] in self._set for i in range(rows.shape[0])
        )

    def membership(self, rows: np.ndarray) -> np.ndarray:
        buf = np.ascontiguousarray(rows).tobytes()
        n = self._n
        return np.fromiter(
            (buf[i * n : (i + 1) * n] in self._set for i in range(rows.shape[0])),
            dtype=bool,
            count=rows.shape[0],
        )


def gf_span_words(vectors: np.ndarray, p: int) -> np.ndarray:
    """All GF(p) combinations of the given rows (deduplicated)."""
    words = np.zeros((1, vectors.shape[1]), dtype=np.uint8)
    for v in vectors:
        pieces = [(words + (c * v.astype(np.uint16)) % p) % p for c in range(p)]
        words = np.vstack(pieces).astype(np.uint8)
    return np.unique(packed_view(words)).view(np.uint8).reshape(-1, vectors.shape[1])


def kernel(
    c: PAryCode,
    cap: int = DEFAULT_QUAD_CAP,
    probes: int = 24,
    seed: int = 0,
) -> PAryCode:
    """Definitional kernel: { x in C : x + C = C }.

    Candidates outside the kernel are discarded by random translation
    probes (each rejection carries an explicit witness); the survivors'
    GF(p) basis is then verified in full, which certifies the whole
    span because the kernel is closed under addition.
    """
    if len(c) > cap:
        raise ResourceLimitError(
            f"|C|={len(c)} exceeds brute-force cap {cap}; use kernel_basis"
        )
    w = c.words
    p, n = c.p, c.length
    if not np.any(np.all(w == 0, axis=1)):
        raise ValueError("kernel requires the zero word in C")
    members = _WordSet(w)
    rng = np.random.default_rng(seed)
    alive = np.ones(len(c), dtype=bool)
    for idx in rng.choice(len(c), size=min(probes, len(c)), replace=False):
        rows = np.flatnonzero(alive)
        sums = (w[rows].astype(np.uint16) + w[idx]) % p
        alive[rows[~members.membership(sums.astype(np.uint8))]] = False
    survivors = w[alive]

    while True:
        dim = gf_rank(survivors, p)
        basis_rows = []
        basis = GFBasis(p, n)
        for row in survivors:
            before = basis.rank
            basis.add_rows(row[None, :])
            if basis.rank > before:
                basis_rows.append(row)
            if basis.rank == dim:
                break
        bad = None
        for row in basis_rows:
            sums = ((w.astype(np.uint16) + row) % p).astype(np.uint8)
            if not members.contains_all(sums):
                bad = row
                break
        if bad is None:
            break
        # rare: a non-kernel word survived every probe; drop it and retry
        survivors = survivors[
            ~np.all(survivors == bad[None, :], axis=1)
        ]
    basis_arr = np.asarray(basis_rows, dtype=np.uint8).reshape(-1, n)
    return PAryCode(p, n, gf_span_words(basis_arr, p))


def expected_linear(sig: TypeSignature) -> bool:
    """The classification the theorem replay compares against: linear only
    for p = 2 with t_1 = 1 and no interior generators."""
    return sig.p == 2 and sig.ts[0] == 1 and all(t == 0 for t in sig.ts[1:-1])


def kernel_basis(a: GeneratorMatrix) -> np.ndarray:
    """Gray images of (order(w_k)/p) * w_k for every generator row.

    Only meaningful when the Gray image is nonlinear; on the linear
    classification the kernel is the whole code and this raises.
    """
    if expected_linear(a.signature):
        raise ValueError("kernel_basis is undefined for linear Gray images")
    p = a.shape.p
    out = []
    for k in range(a.rows.shape[0]):
        w = a.row(k)
        out.append(mixed_gray(scalar_mul(order_of(w) // p, w)))
    return np.asarray(out, dtype=np.uint8)


# ---------------------------------------------------------------------------
# large-code machinery
# ---------------------------------------------------------------------------

def _split_rows(a: GeneratorMatrix, target: int = 4096) -> tuple[list[int], list[int]]:
    """Partition row indices so the inner partial span stays <= target."""
    inner, outer = [], []
    prod = 1
    for k in range(a.rows.shape[0]):
        o = order_of(a.row(k))
        if prod * o <= target:
            inner.append(k)
            prod *= o
        else:
            outer.append(k)
    return inner, outer


class SpanStreamer:
    """Chunked, memory-bounded enumeration and sampling of a span.

    Codewords are inner + outer sums of two disjoint partial spans; this
    covers the code exactly once provided the generator rows are free,
    which the cardinality check certifies separately.
    """

    def __init__(self, a: GeneratorMatrix, target_chunk: int = 4096):
        inner_idx, outer_idx = _split_rows(a, target_chunk)
        self.shape = a.shape
        fold = fold_dtype(a.shape)
        self.inner = partial_span(a, inner_idx).astype(fold, copy=False)
        self.outer = partial_span(a, outer_idx).astype(fold, copy=False)
        self.mods = a.shape.column_moduli().astype(fold)

    @property
    def size(self) -> int:
        return self.inner.shape[0] * self.outer.shape[0]

    def _reduce(self, sums: np.ndarray) -> np.ndarray:
        if self.shape.p == 2:  # power-of-two moduli reduce by masking
            return sums & (self.mods - 1)
        return sums % self.mods

    def chunks(self):
        for b in self.outer:
            yield self._reduce(self.inner + b[None, :])

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        ia = rng.integers(0, self.inner.shape[0], size=m)
        ib = rng.integers(0, self.outer.shape[0], size=m)
        return self._reduce(self.inner[ia] + self.outer[ib])


def sampled_gh_check(
    streamer: SpanStreamer,
    n: int,
    pair_target: int = DEFAULT_PAIR_TARGET,
    rng: np.random.Generator | None = None,
) -> PairScanResult:
    """Balanced-or-constant check over all pairs of a random codeword
    sample large enough to cover at least pair_target distinct pairs."""
    rng = rng or np.random.default_rng(0)
    need = int(math.isqrt(2 * pair_target)) + 2  # smallest m with C(m,2) >= target
    shape = streamer.shape
    m = need
    while True:
        words = streamer.sample(m + m // 4, rng)
        distinct = np.unique(packed_view(words), return_index=True)[1]
        if distinct.size >= need:
            words = words[np.sort(distinct)[:need]]
            break
        m *= 2
        if m > streamer.size:
            # tiny code: fall back to the full enumeration
            words = np.vstack(list(streamer.chunks()))
            words = words[np.sort(np.unique(packed_view(words), return_index=True)[1])]
            break
    gray = gray_rows(words, shape)
    return pair_scan(gray, shape.p, n)


def linearity_certificate(
    a: GeneratorMatrix,
    streamer: SpanStreamer,
    rng: np.random.Generator | None = None,
    sample: int = 512,
) -> tuple[bool, int, bool]:
    """Exact linearity decision for Gray images too large to materialize.

    Returns (is_linear, rank_observed, rank_is_exact).  Rank above
    log_p|C| certifies nonlinearity; a full streamed pass that never
    exceeds it certifies linearity (the span then has exactly |C|
    elements and contains C).
    """
    rng = rng or np.random.default_rng(0)
    sig = a.signature
    e = sig.code_size_exponent()
    n = a.shape.gray_length()
    basis = GFBasis(sig.p, n, stop_above=e)
    basis.add_rows(gray_rows(streamer.sample(sample, rng), a.shape))
    if basis.exceeded:
        return False, basis.rank, False
    for chunk in streamer.chunks():
        basis.add_rows(gray_rows(chunk, a.shape))
        if basis.exceeded:
            return False, basis.rank, False
    return True, basis.rank, True


def all_ones_closure_check(a: GeneratorMatrix) -> bool:
    """Exact closure of the Gray image under +1, without enumeration.

    Verified facts: the first generator row Gray-maps to the all-one
    vector, and adding p^{r-1} to any Z_{p^r} coordinate adds 1 to every
    Gray digit (checked exhaustively on the per-(p, r) tables).  Together
    these give Phi(C) + 1 = Phi(C + w_1) = Phi(C).
    """
    shape = a.shape
    p = shape.p
    first = a.row(0)
    expected_blocks = tuple(
        tuple([p ** (i - 1)] * alpha)
        for i, alpha in enumerate(shape.alphas, start=1)
    )
    if first.blocks != expected_blocks:
        return False
    if not np.all(mixed_gray(first) == 1):
        return False
    return all(shift_translates_to_all_ones(p, r) for r in range(1, shape.s + 1))


# ---------------------------------------------------------------------------
# theorem replay
# ---------------------------------------------------------------------------

@dataclass
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AnalysisReport:
    signature: TypeSignature
    shape: object
    n: int
    size: int
    min_distance: Optional[int]
    min_distance_method: str
    is_gh: bool
    is_linear: bool
    kernel_dim: int
    rank: int
    rank_method: str
    checks: list[CheckEntry] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    kernel_words: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, include_kernel: bool = True) -> dict:
        d = {
            "signature": {
                "p": self.signature.p,
                "s": self.signature.s,
                "t": list(self.signature.ts),
            },
            "shape": {"alpha": list(self.shape.alphas)},
            "n": self.n,
            "size": self.size,
            "min_distance": self.min_distance,
            "min_distance_method": self.min_distance_method,
            "is_gh": self.is_gh,
            "is_linear": self.is_linear,
            "kernel_dim": self.kernel_dim,
            "rank": self.rank,
            "rank_method": self.rank_method,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "skipped": list(self.skipped),
            "ok": self.ok,
        }
        if include_kernel and self.kernel_words is not None:
            d["kernel"] = sorted(
                "".join(str(int(x)) for x in row) for row in self.kernel_words
            )
        return d

    def to_table(self) -> str:
        sig = ",".join(str(t) for t in self.signature.ts)
        lines = [
            f"{'signature':<16} p={self.signature.p} s={self.signature.s} t={sig}",
            f"{'alpha':<16} {','.join(str(a) for a in self.shape.alphas)}",
            f"{'n':<16} {self.n}",
            f"{'size':<16} {self.size}",
            f"{'min_distance':<16} {self.min_distance} ({self.min_distance_method})",
            f"{'is_gh':<16} {self.is_gh}",
            f"{'is_linear':<16} {self.is_linear}",
            f"{'kernel_dim':<16} {self.kernel_dim}",
            f"{'rank':<16} {self.rank} ({self.rank_method})",
        ]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"{'check':<16} {mark:<5} {c.name}  {c.detail}")
        for name in self.skipped:
            lines.append(f"{'check':<16} SKIP  {name}")
        return "\n".join(lines)


def verify_theorems(
    sig: TypeSignature,
    quad_cap: int = DEFAULT_QUAD_CAP,
    pair_target: int = DEFAULT_PAIR_TARGET,
    kernel_mode: str = "auto",
    seed: int = 7,
    cap: int | None = None,
) -> AnalysisReport:
    """Build, span, Gray-map, and compare every claimed invariant against
    an independently computed value.  Nothing is assumed from the
    classification: both sides of each statement are computed."""
    if kernel_mode not in ("auto", "brute", "basis"):
        raise ValueError(f"unknown kernel mode {kernel_mode!r}")
    a = build(sig, cap=cap)
    shape = a.shape
    p = sig.p
    n = shape.gray_length()
    e = sig.code_size_exponent()
    size = sig.code_size()
    exp_lin = expected_linear(sig)
    checks: list[CheckEntry] = []
    skipped: list[str] = []
    rng = np.random.default_rng(seed)

    group_order = additive_span_order(a)
    checks.append(
        CheckEntry(
            "cardinality",
            group_order == size,
            f"group order {group_order}, signature predicts {size}",
        )
    )
    checks.append(
        CheckEntry("size_pn", size == p * n, f"|C|={size}, p*n={p * n}")
    )
    checks.append(
        CheckEntry(
            "gray_length",
            n == size // p,
            f"n={n}, |C|/p={size // p}",
        )
    )

    expected_d = n * (p - 1) // p
    kernel_words = None

    if size <= quad_cap:
        code = span(a, cap=max(size, quad_cap))
        gray = gray_image(code)
        gh = is_gh_code(gray)
        checks.append(
            CheckEntry("gh_property", gh.ok, gh.failure or "all pair differences ok")
        )
        # is_gh_code stops before its scan on a failed precondition
        d = gh.min_distance if gh.min_distance is not None else min_distance(gray)
        checks.append(
            CheckEntry(
                "min_distance", d == expected_d, f"d={d}, n(p-1)/p={expected_d}"
            )
        )
        r = rank(gray)
        lin_rank = r == e
        kern = None
        lin_kernel = None
        if kernel_mode in ("auto", "brute"):
            kern = kernel(gray, cap=quad_cap, seed=seed)
            lin_kernel = len(kern) == len(gray)
            kernel_words = kern.words
        if kernel_mode == "auto":
            checks.append(
                CheckEntry(
                    "linearity_cross_check",
                    lin_rank == lin_kernel,
                    f"rank says {lin_rank}, kernel says {lin_kernel}",
                )
            )
        lin = lin_rank
        checks.append(
            CheckEntry(
                "linearity_classification",
                lin == exp_lin,
                f"computed {lin}, classification says {exp_lin}",
            )
        )
        if lin:
            kdim = e
            if kern is not None:
                checks.append(
                    CheckEntry(
                        "kernel_equals_code",
                        kern.same_set(gray),
                        "linear code must be its own kernel",
                    )
                )
        else:
            basis_vecs = kernel_basis(a)
            basis_span = PAryCode(p, n, gf_span_words(basis_vecs, p))
            basis_dim = gf_rank(basis_vecs, p)
            checks.append(
                CheckEntry(
                    "kernel_basis_independent",
                    basis_dim == sig.num_rows,
                    f"rank of Phi(Q) = {basis_dim}, rows = {sig.num_rows}",
                )
            )
            if kernel_mode == "basis":
                kern_for_dim = basis_span
                kernel_words = basis_span.words
            else:
                kern_for_dim = kern
                phi_hp = gray_image(order_p_subcode(code))
                checks.append(
                    CheckEntry(
                        "kernel_theorem",
                        kern.same_set(PAryCode(p, n, phi_hp.words)),
                        f"|K|={len(kern)}, |Phi(H_p)|={len(phi_hp)}",
                    )
                )
                checks.append(
                    CheckEntry(
                        "kernel_basis_span",
                        basis_span.same_set(kern),
                        f"|span Phi(Q)|={len(basis_span)}, |K|={len(kern)}",
                    )
                )
            kdim = _log_p(len(kern_for_dim), p)
            checks.append(
                CheckEntry(
                    "kernel_dimension",
                    kdim == sig.num_rows,
                    f"dim K = {kdim}, t_1+...+t_s = {sig.num_rows}",
                )
            )
        return AnalysisReport(
            sig, shape, n, size, d, "exhaustive", gh.ok, lin, kdim, r, "exact",
            checks, skipped, kernel_words,
        )

    # large code: sampled pair checks plus exact certificates
    streamer = SpanStreamer(a)
    closure = all_ones_closure_check(a)
    checks.append(
        CheckEntry(
            "closure_all_ones",
            closure,
            "first row Gray-maps to 1 and per-block shift identities hold",
        )
    )
    scan = sampled_gh_check(streamer, n, pair_target, rng)
    checks.append(
        CheckEntry(
            "balanced_differences",
            scan.all_balanced_or_constant,
            f"{scan.pairs} sampled pairs, zero violations"
            if scan.all_balanced_or_constant
            else f"violation at sampled pair {scan.witness}",
        )
    )
    checks.append(
        CheckEntry(
            "min_distance",
            scan.min_distance == expected_d,
            f"sampled d={scan.min_distance}, n(p-1)/p={expected_d}",
        )
    )
    gh_ok = closure and scan.all_balanced_or_constant
    lin, r, r_exact = linearity_certificate(a, streamer, rng)
    checks.append(
        CheckEntry(
            "linearity_classification",
            lin == exp_lin,
            f"computed {lin}, classification says {exp_lin}",
        )
    )
    skipped.append("kernel_theorem (|C| above brute-force cap)")
    if lin:
        kdim = e
    else:
        basis_vecs = kernel_basis(a)
        basis_dim = gf_rank(basis_vecs, p)
        checks.append(
            CheckEntry(
                "kernel_basis_independent",
                basis_dim == sig.num_rows,
                f"rank of Phi(Q) = {basis_dim}, rows = {sig.num_rows}",
            )
        )
        kdim = basis_dim
    return AnalysisReport(
        sig, shape, n, size, scan.min_distance, "sampled", gh_ok, lin, kdim,
        r, "exact" if r_exact else "lower-bound", checks, skipped, None,
    )
