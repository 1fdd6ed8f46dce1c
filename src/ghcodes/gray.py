"""The generalized Carlet Gray map.

phi maps Z_{p^r} to Z_p^{p^{r-1}} via a constant vector plus a row-vector
product with the matrix whose columns are all of Z_p^{r-1} in ascending
order.  gray_rows applies the block-wise map on the mixed alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .ring import CodeShape, MixedVector, check_prime

# p^{r-1} columns per Y matrix; beyond this the memoized tables get silly.
DEFAULT_Y_CAP = 2**16


@dataclass(frozen=True)
class YMatrix:
    p: int
    r: int
    entries: np.ndarray  # (r-1) x p^{r-1}, read-only

    def __post_init__(self):
        self.entries.setflags(write=False)


def _check_pr(p: int, r: int):
    check_prime(p)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")


@lru_cache(maxsize=None)
def y_matrix(p: int, r: int, cap: int = DEFAULT_Y_CAP) -> YMatrix:
    """Matrix whose columns are the p-ary expansions of 0..p^{r-1}-1.

    Least significant digit sits in the first row; for r=1 the matrix is
    empty (0 x 1).
    """
    _check_pr(p, r)
    ncols = p ** (r - 1)
    if ncols > cap:
        raise ResourceLimitError(f"p^(r-1)={ncols} exceeds cap {cap}")
    cols = np.arange(ncols, dtype=np.int64)
    rows = [(cols // p**i) % p for i in range(r - 1)]
    entries = (
        np.vstack(rows).astype(np.uint8)
        if rows
        else np.zeros((0, ncols), dtype=np.uint8)
    )
    return YMatrix(p, r, entries)


@lru_cache(maxsize=None)
def phi_table(p: int, r: int) -> np.ndarray:
    """All p^r Gray images as a (p^r, p^{r-1}) array, row u = phi(u)."""
    _check_pr(p, r)
    y = y_matrix(p, r).entries.astype(np.int64)
    us = np.arange(p**r, dtype=np.int64)
    digits = np.stack([(us // p**i) % p for i in range(r)], axis=1)
    table = (digits[:, -1:] + digits[:, : r - 1] @ y) % p
    if r == 1:
        table = us[:, None] % p
    table = table.astype(np.uint8)
    table.setflags(write=False)
    return table


def phi(u: int, p: int, r: int) -> np.ndarray:
    """Gray image of u in Z_{p^r}; for r=1 this is the identity map."""
    _check_pr(p, r)
    if not 0 <= u < p**r:
        raise ValueError(f"u={u} out of range [0, {p}^{r})")
    return phi_table(p, r)[u].copy()


def phi_extended(v, p: int, r: int) -> np.ndarray:
    """Coordinate-wise extension of phi; concatenates images in order."""
    v = np.asarray(v, dtype=np.int64)
    if v.size and (v.min() < 0 or v.max() >= p**r):
        raise ValueError(f"entries out of range [0, {p}^{r})")
    if v.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return phi_table(p, r)[v].reshape(-1)


@lru_cache(maxsize=None)
def _padded_phi_table(p: int, r: int) -> tuple[np.ndarray, int, int]:
    """phi table with rows padded to a power-of-two byte width and viewed
    as one unsigned scalar per row, so Gray mapping a block is a single
    scalar gather."""
    t = phi_table(p, r)
    length = t.shape[1]
    pad = 1
    while pad < length:
        pad *= 2
    if pad > 8:
        return t, length, 0  # too wide for a scalar lane; gather rows directly
    padded = np.zeros((t.shape[0], pad), dtype=np.uint8)
    padded[:, :length] = t
    scalars = padded.view(np.dtype(f"u{pad}")).reshape(-1)
    scalars.setflags(write=False)
    return scalars, length, pad


def gray_rows(words: np.ndarray, shape: CodeShape) -> np.ndarray:
    """The mixed-alphabet Gray map of every row of a (m, total_width) array
    of flat words: block 1 verbatim, block i through phi_i."""
    words = np.asarray(words)
    m = words.shape[0]
    out = np.empty((m, shape.gray_length()), dtype=np.uint8)
    pos = opos = 0
    for i, a in enumerate(shape.alphas, start=1):
        block = words[:, pos : pos + a]
        pos += a
        if a == 0:
            continue
        length = a * shape.p ** (i - 1)
        dest = out[:, opos : opos + length]
        opos += length
        if i == 1:
            dest[:] = block
            continue
        table, seg, pad = _padded_phi_table(shape.p, i)
        idx = block if block.dtype == np.intp else block.astype(np.intp)
        if pad == 0:
            dest[:] = table[idx].reshape(m, length)
        else:
            gathered = table[idx].view(np.uint8).reshape(m, a, pad)
            dest[:] = gathered[:, :, :seg].reshape(m, length)
    return out


def mixed_gray(v: MixedVector) -> np.ndarray:
    """Gray image of one mixed-alphabet vector."""
    return gray_rows(v.to_flat()[None, :], v.shape)[0]


@lru_cache(maxsize=None)
def composition_lemma_holds(p: int, r: int) -> bool:
    """Check, exhaustively on the (p, r) table, the two facts from which
    phi(u) - phi(v) has the symbol composition of phi(u - v):

    - digit-linearity, phi(u) = sum_i u_i phi(p^i) mod p, so that
      phi(u) - phi(v) = phi(x) for x the digit-wise difference of u and v;
    - phi(x) is the constant x_{r-1} when p^{r-1} divides x, and balanced
      otherwise.  x and u - v are divisible by p^{r-1} together, and then
      they are equal.
    """
    q, top = p**r, p ** (r - 1)
    t = phi_table(p, r).astype(np.int64)
    xs = np.arange(q)
    digits = np.stack([(xs // p**i) % p for i in range(r)], axis=1)
    if not np.array_equal(t, (digits @ t[p ** np.arange(r)]) % p):
        return False
    comp = np.bincount((xs[:, None] * p + t).ravel(), minlength=q * p).reshape(q, p)
    expected = np.full((q, p), t.shape[1] // p)
    const = xs % top == 0
    expected[const] = 0
    expected[const, xs[const] // top] = t.shape[1]
    return bool(np.array_equal(comp, expected))
