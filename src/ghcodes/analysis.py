"""Structural invariants of p-ary codes and the theorem-replay report.

Every code gets the same exact checks, none of which enumerates it: the
group order by elimination, the GH property and the minimum distance from
character sums over the coefficient group (every codeword's Gray
composition at once), and the rank of the Gray image from the coset
decomposition C = R + H_p.  Codes within the quad cap (|C| <= 4096 by
default) are also enumerated and cross-checked by brute force: one exact
pair scan per code, which counts each difference symbol by tiled float32
products (a +-1 Gram matrix for p = 2, one-hot products for p > 2), rank
by elimination over every codeword, and the definitional kernel, found
without any elimination: each candidate is either verified, when its
translate of C lies in C, or ruled out with every other candidate its
witness excludes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .construction import GeneratorMatrix, TypeSignature, build
from .enumeration import (
    PAryCode,
    additive_span_order,
    gray_image,
    order_p_subcode,
    packed_view,
    partial_span,
    span,
)
from .errors import IntegrityError, ResourceLimitError
from .gray import composition_lemma_holds, gray_rows
from .ring import CodeShape, row_orders

DEFAULT_QUAD_CAP = 2**12


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def hamming_distance(u, v) -> int:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    return int(np.count_nonzero(u != v))


def _pack_bits_u64(words: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into uint64 lanes (zero-padded)."""
    pk = np.packbits(words, axis=1)
    pad = (-pk.shape[1]) % 8
    if pad:
        pk = np.pad(pk, ((0, 0), (0, pad)))
    return pk.view(np.uint64)


# Bytes of one float32 right operand in the product scan: n signs for
# p = 2, n*p one-hot entries for p > 2.  The p > 2 left operand, which
# holds each symbol twice, stays under twice this.  The scan holds one
# left and one right operand and one tile of counts at a time, so it never
# encodes a whole code.
_ONEHOT_TILE_BYTES = 1 << 20


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

    The counts C_d[i, j] = #{k : w_ik - w_jk = d}, d = 1..p-1, come from
    tiled float32 products: for p = 2 the Gram matrix of the signs
    1 - 2w, whose entry s_i . s_j is n - 2 C_1; for p > 2 products of
    one-hot rows.
    """
    m = words.shape[0]
    if m < 2:
        return PairScanResult(None, True, None, 0)
    min_d, witness = _scan_products(words, p, n)
    return PairScanResult(min_d, witness is None, witness, m * (m - 1) // 2)


def _encode(block: np.ndarray, p: int, left: bool) -> np.ndarray:
    """Float32 operand of a row block: the signs 1 - 2w for p = 2; for
    p > 2 the symbol-major one-hot out[i, a*n + k] = [block[i, k] == a],
    over the symbols 0..p-1 twice on the left (see _scan_products)."""
    if p == 2:
        return 1 - 2 * block.astype(np.float32)
    # reduced in int64, so nothing wraps however large p is
    symbols = np.arange(2 * p - 1 if left else p) % p
    eq = block[:, None, :] == symbols[:, None]
    return eq.astype(np.float32).reshape(block.shape[0], -1)


def _scan_products(words: np.ndarray, p: int, n: int):
    """Every C_d[i, j] for j > i, tile by tile over row blocks."""
    # counts and |s_i . s_j| are at most n
    if n >= 1 << 24:
        raise ValueError("float32 counts are exact only below 2^24")
    m = words.shape[0]
    lam = n // p
    width = n if p == 2 else n * p
    # Bounding the rows by 512 also keeps a tile of counts within the budget.
    rows = max(1, _ONEHOT_TILE_BYTES // (4 * max(width, 512)))
    min_d, witness = n + 1, None
    for i0 in range(0, m - 1, rows):
        left = _encode(words[i0 : i0 + rows], p, left=True)
        first_bad = None  # row-major first offending pair in this row block
        for j0 in range(i0, m, rows):
            right = _encode(words[j0 : j0 + rows], p, left=False).T
            shape = (left.shape[0], right.shape[1])
            dist = np.zeros(shape, dtype=np.float32)
            balanced = np.ones(shape, dtype=bool)
            constant = np.zeros(shape, dtype=bool)
            # For p > 2, columns d*n .. (d+p)*n of the left operand are
            # onehot(w_i - d): each shift is a strided view that BLAS reads
            # in place.  For p = 2, s_i . s_j = n - 2 C_1.
            if p == 2:
                counts = [(n - left @ right) / 2]
            else:
                counts = (left[:, d * n : (d + p) * n] @ right for d in range(1, p))
            for c_d in counts:
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
    shifted = PAryCode(p, n, _translate(w, np.ones(n, dtype=np.uint8), p))
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


@dataclass
class GHCertificate:
    """The pairwise part of the GH property, for every codeword at once."""

    ok: bool  # every nonzero codeword's Gray image is balanced or constant
    min_distance: Optional[int]  # None for a one-word code
    witness: Optional[tuple[int, ...]]  # coefficients of the first offender


def _exact_counts(x: np.ndarray) -> np.ndarray:
    counts = np.rint(x.real)
    off = float(np.abs(x - counts).max(initial=0.0))
    if off > 0.25:
        raise IntegrityError(f"character sum lies {off:.3g} from an integer count")
    return counts.astype(np.int64)


# Largest product of consecutive axes that _group_dft applies as one dense
# Kronecker matrix; a lone axis above it goes through np.fft.fft.
_DFT_CHUNK = 128


def _dft_matrix(o: int) -> np.ndarray:
    return np.exp(-2j * np.pi * (np.outer(np.arange(o), np.arange(o)) % o) / o)


def _group_dft(x: np.ndarray) -> np.ndarray:
    """np.fft.fftn(x), for the many tiny axes of a coefficient group.

    Chunks of consecutive axes, taken from the last, are each one matmul
    by the Kronecker product of their DFT matrices; transposing the result
    moves the chunk to the front, so the axes are back in order at the end.
    """
    out, rest = x.astype(complex), list(x.shape)
    while rest:
        o = rest.pop()
        if o > _DFT_CHUNK:
            flat = np.fft.fft(out.reshape(-1, o), axis=1)
        else:
            f = _dft_matrix(o)
            while rest and len(f) * rest[-1] <= _DFT_CHUNK:
                o = rest.pop()  # f becomes the Kronecker product F_o x f
                f = (_dft_matrix(o)[:, None, :, None] * f[:, None, :]).reshape(o * len(f), -1)
            flat = out.reshape(-1, len(f)) @ f.T
        out = np.ascontiguousarray(flat.T)
    return out.reshape(x.shape)


def character_sum_check(rows: np.ndarray, shape: CodeShape) -> GHCertificate:
    """Exact GH verdict and minimum distance of the Gray image of the span
    of free rows, without enumerating the span.

    Codeword a = (a_k) in G = prod Z_{o_k} is sum a_k w_k.  Since
    phi(u) - phi(v) has the composition of phi(u - v), the image is GH iff
    every nonzero codeword's Gray image is balanced or constant, and d is
    their least weight.  A Z_{p^i} entry Gray-maps to the constant v when
    it equals p^{i-1} v and to a balanced block otherwise.  With y_j in G,
    y_kj = w_kj * o_k / p^i, and S = conj(_group_dft(histogram of y_j)),
    S(a) = sum_j zeta_{p^i}^{c_j(a)} over the block's columns, and

        #{j : c_j(a) = p^{i-1} v} = p^-i sum_{m in Z_{p^i}} zeta_p^{-mv} S(m a).

    S(m a) for every a is one take at the flat index of m a.  The rows must
    be free (|G| = |span|), which the caller certifies.
    """
    p = shape.p
    rows = np.asarray(rows, dtype=np.int64)
    o = row_orders(rows, shape)
    axes = tuple(int(x) for x in o)
    size = int(np.prod(o))
    comp = np.zeros((p, size), dtype=np.int64)  # Gray symbol counts per codeword
    pos = 0
    for i, alpha in enumerate(shape.alphas, start=1):
        block = rows[:, pos : pos + alpha]
        pos += alpha
        if alpha == 0:
            continue
        if not composition_lemma_holds(p, i):
            raise IntegrityError(f"composition lemma fails on the ({p}, {i}) table")
        q = p**i
        y = (block * o[:, None] // q) % o[:, None]
        hist = np.bincount(np.ravel_multi_index(tuple(y), axes), minlength=size)
        chars = np.conj(_group_dft(hist.reshape(axes))).ravel()
        # by_residue[t] = sum of S(m a) over the m = t mod p
        by_residue = np.zeros((p, size), dtype=complex)
        for m in range(q):
            flat, stride = np.zeros(1, dtype=np.int64), 1
            for x in reversed(axes):  # last axis first, so numpy's inner loop is long
                flat = (((m * np.arange(x)) % x * stride)[:, None] + flat).ravel()
                stride *= x
            by_residue[m % p] += chars.take(flat)
        const = _exact_counts(_dft_matrix(p) @ by_residue / q)
        comp += p ** (i - 1) * const
        if i >= 2:
            comp += p ** (i - 2) * (alpha - const.sum(axis=0))
    n = shape.gray_length()
    balanced = np.all(comp[1:] == n // p, axis=0)
    constant = np.any(comp[1:] == n, axis=0)
    bad = ~(balanced | constant)
    bad[0] = False  # the zero codeword
    witness = None
    if bad.any():
        witness = tuple(int(x) for x in np.unravel_index(int(np.argmax(bad)), axes))
    d = int((n - comp[0, 1:]).min()) if size > 1 else None
    return GHCertificate(witness is None, d, witness)


def all_ones_closure_check(a: GeneratorMatrix) -> bool:
    """Exact closure of the Gray image under +1, without enumeration.

    Verified facts: the first generator row is p^{r-1} in every Z_{p^r}
    coordinate and Gray-maps to the all-one vector, and every per-(p, r)
    table is digit-linear (composition_lemma_holds).  Adding p^{r-1} adds
    one to the top digit only, so digit-linearity gives phi(u + p^{r-1}) =
    phi(u) + phi(p^{r-1}) = phi(u) + 1, and Phi(C) + 1 = Phi(C + w_1) =
    Phi(C).
    """
    shape = a.shape
    first = a.rows[0]
    if not np.array_equal(first, shape.column_moduli() // shape.p):
        return False
    if not np.all(gray_rows(first[None, :], shape) == 1):
        return False
    return all(composition_lemma_holds(shape.p, r) for r in range(1, shape.s + 1))


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
            # products of two reduced entries must not wrap
            wide = (self.p - 1) ** 2 > np.iinfo(np.int16).max
            self._add_rows_gfp(rows.astype(np.int64 if wide else np.int16))

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


def coset_rank(rows: np.ndarray, shape: CodeShape) -> int:
    """Rank of the Gray image of the span of the rows, enumerating only
    coset representatives.

    With a_k = r_k + (o_k/p) b_k, C = R + H_p, where R takes 0 <= r_k <
    o_k/p and H_p is spanned by the (o_k/p) w_k.  Adding an order-p word
    changes only top p-ary digits, without carry, so digit-linearity gives
    Phi(r + h) = Phi(r) + Phi(h), and span Phi(C) is spanned by Phi(R) and
    the Phi((o_k/p) w_k).
    """
    rows = np.asarray(rows, dtype=np.int64)
    basis = GFBasis(shape.p, shape.gray_length())
    basis.add_rows(gray_rows(_order_p_generators(rows, shape), shape))
    reps = partial_span(rows, shape, row_orders(rows, shape) // shape.p)
    for lo in range(0, reps.shape[0], 4096):
        basis.add_rows(gray_rows(reps[lo : lo + 4096], shape))
    return basis.rank


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

def _contains(sorted_keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Membership of each uint8 row among the words whose sorted packed
    view is sorted_keys."""
    at = np.searchsorted(sorted_keys, packed_view(rows))
    found = sorted_keys[np.minimum(at, sorted_keys.size - 1)]
    # comparing bytes is faster than comparing the opaque scalars
    return np.all(found.view(np.uint8).reshape(rows.shape) == rows, axis=1)


def gf_span_words(vectors: np.ndarray, p: int) -> np.ndarray:
    """All GF(p) combinations of the given rows (deduplicated)."""
    words = np.zeros((1, vectors.shape[1]), dtype=np.uint8)
    for v in vectors:
        pieces = [(words + (c * v.astype(np.uint16)) % p) % p for c in range(p)]
        words = np.vstack(pieces).astype(np.uint8)
    return np.unique(packed_view(words)).view(np.uint8).reshape(-1, vectors.shape[1])


def _translate(words: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """words + x mod p, row by row, as uint8.  A sum s below 2p reduces to
    min(s, s - p), because s - p wraps around when s < p."""
    s = np.add(words, x, dtype=np.uint8 if p <= 128 else np.uint16)
    return np.minimum(s, s - p).astype(np.uint8, copy=False)


def kernel(c: PAryCode, cap: int = DEFAULT_QUAD_CAP, seed: int = 0) -> PAryCode:
    """Definitional kernel: { x in C : x + C = C }.

    Every nonzero word is a candidate, tried in an order drawn from seed,
    and each candidate x still alive is decided by one membership pass
    over x + C.  If x + C lies in C, the verified span grows by x, and
    every word of it stops being a candidate.  Otherwise the first c with
    x + c outside C is a witness, and it rules out every candidate a with
    a + c outside C: x among them, and never a kernel word, since a in K
    and c in C give a + c in C.  When no candidate is left, the kernel is
    exactly the verified span, whatever the seed.
    """
    if len(c) > cap:
        raise ResourceLimitError(
            f"|C|={len(c)} exceeds brute-force cap {cap}; use kernel_basis"
        )
    w = c.words
    p, n = c.p, c.length
    alive = np.any(w != 0, axis=1)
    if alive.all():
        raise ValueError("kernel requires the zero word in C")
    members = c.sorted_packed()
    kern = np.zeros((1, n), dtype=np.uint8)  # sorted by packed_view
    for x in np.random.default_rng(seed).permutation(len(c)):
        if not alive[x]:
            continue
        inside = _contains(members, _translate(w, w[x], p))
        cand = np.flatnonzero(alive)
        if inside.all():
            # x, still a candidate, lies outside the verified span S, so
            # the new span is the disjoint union of the S + c x, c < p
            pieces = [kern]
            for _ in range(p - 1):
                pieces.append(_translate(pieces[-1], w[x], p))
            kern = np.sort(packed_view(np.vstack(pieces))).view(np.uint8).reshape(-1, n)
            drop = _contains(packed_view(kern), w[cand])
        else:
            witness = w[int(np.argmin(inside))]
            drop = ~_contains(members, _translate(w[cand], witness, p))
        alive[cand[drop]] = False
    return PAryCode(p, n, kern)


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
    return gray_rows(_order_p_generators(a.rows, a.shape), a.shape)


def _order_p_generators(rows: np.ndarray, shape: CodeShape) -> np.ndarray:
    """(o_k/p) * w_k for every row w_k of order o_k: generators of H_p."""
    o = row_orders(rows, shape)
    return (rows * (o // shape.p)[:, None]) % shape.column_moduli()


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
    seed: int = 7,
    cap: int | None = None,
) -> AnalysisReport:
    """Build the code and compare every claimed invariant against an
    independently computed value.  Nothing is assumed from the
    classification: both sides of each statement are computed.

    Every code gets the exact certificates; codes of at most quad_cap
    words are also enumerated and cross-checked by brute force, and seed
    sets the order in which the brute-force kernel tries its candidates.
    """
    a = build(sig, cap=cap)
    shape = a.shape
    p = sig.p
    n = shape.gray_length()
    e = sig.code_size_exponent()
    size = sig.code_size()
    exp_lin = expected_linear(sig)
    checks: list[CheckEntry] = []
    skipped: list[str] = []

    def check(name: str, passed, detail: str) -> None:
        checks.append(CheckEntry(name, bool(passed), detail))

    group_order = additive_span_order(a)
    free = group_order == size
    check(
        "cardinality", free, f"group order {group_order}, signature predicts {size}"
    )
    check("size_pn", size == p * n, f"|C|={size}, p*n={p * n}")
    check("gray_length", n == size // p, f"n={n}, |C|/p={size // p}")
    closure = all_ones_closure_check(a)
    check(
        "closure_all_ones",
        closure,
        "first row Gray-maps to 1 and per-block shift identities hold",
    )

    # the certificate needs free rows, which the cardinality check certifies
    if not free:
        cert = GHCertificate(False, None, None)
        detail = "rows not free; character sums skipped"
    else:
        cert = character_sum_check(a.rows, shape)
        detail = (
            "every nonzero codeword balanced or constant (character sums)"
            if cert.ok
            else f"codeword with coefficients {cert.witness} neither balanced "
            "nor constant"
        )
    check("gh_property", cert.ok, detail)
    d = cert.min_distance
    expected_d = n * (p - 1) // p
    check("min_distance", d == expected_d, f"d={d}, n(p-1)/p={expected_d}")
    is_gh = cert.ok and closure and size == p * n

    r = coset_rank(a.rows, shape)
    lin = p**r == group_order
    check(
        "linearity_classification",
        lin == exp_lin,
        f"computed {lin}, classification says {exp_lin}",
    )
    kdim = e
    if not lin:
        basis_vecs = kernel_basis(a)
        kdim = gf_rank(basis_vecs, p)
        check(
            "kernel_basis_independent",
            kdim == sig.num_rows,
            f"rank of Phi(Q) = {kdim}, rows = {sig.num_rows}",
        )

    if size > quad_cap:
        skipped.append("kernel_theorem (|C| above brute-force cap)")
        return AnalysisReport(
            sig, shape, n, size, d, "character-sum", is_gh, lin, kdim, r, "exact",
            checks, skipped, None,
        )

    # brute-force cross-checks on the enumerated code
    code = span(a, cap=max(size, quad_cap))
    gray = gray_image(code)
    gh = is_gh_code(gray)
    # is_gh_code stops before its scan on a failed precondition
    scan_d = gh.min_distance if gh.min_distance is not None else min_distance(gray)
    check(
        "gh_cross_check",
        gh.ok == is_gh and scan_d == d,
        f"pair scan: GH {gh.ok}, d={scan_d}"
        + (f" ({gh.failure}, witness {gh.witness})" if gh.failure else "")
        + f"; certificates: GH {is_gh}, d={d}",
    )
    brute_r = rank(gray)
    check(
        "rank_cross_check", brute_r == r, f"elimination over C: {brute_r}, coset: {r}"
    )
    kern = kernel(gray, cap=quad_cap, seed=seed)
    lin_kernel = len(kern) == len(gray)
    check(
        "linearity_cross_check",
        lin == lin_kernel,
        f"rank says {lin}, kernel says {lin_kernel}",
    )
    if lin:
        check(
            "kernel_equals_code",
            kern.same_set(gray),
            "linear code must be its own kernel",
        )
    else:
        phi_hp = gray_image(order_p_subcode(code))
        check(
            "kernel_theorem",
            kern.same_set(PAryCode(p, n, phi_hp.words)),
            f"|K|={len(kern)}, |Phi(H_p)|={len(phi_hp)}",
        )
        basis_span = PAryCode(p, n, gf_span_words(basis_vecs, p))
        check(
            "kernel_basis_span",
            basis_span.same_set(kern),
            f"|span Phi(Q)|={len(basis_span)}, |K|={len(kern)}",
        )
        kdim = _log_p(len(kern), p)
        check(
            "kernel_dimension",
            kdim == sig.num_rows,
            f"dim K = {kdim}, t_1+...+t_s = {sig.num_rows}",
        )
    return AnalysisReport(
        sig, shape, n, size, d, "exhaustive", is_gh, lin, kdim, r, "exact",
        checks, skipped, kern.words,
    )
