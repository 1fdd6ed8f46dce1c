"""Enumeration of additive codes, their Gray images, and the order-p subcode.

Codes are stored as 2-D integer arrays, one word per row in the flat
block layout; set semantics go through a canonical sorted byte view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .construction import GeneratorMatrix, size_cap
from .errors import IntegrityError, ResourceLimitError
from .gray import gray_rows
from .ring import CodeShape, MixedVector, row_orders


def packed_view(words: np.ndarray) -> np.ndarray:
    """View rows as opaque fixed-width byte scalars, for sorting/sets."""
    w = np.ascontiguousarray(words)
    if w.shape[1] == 0:
        w = np.zeros((w.shape[0], 1), dtype=np.uint8)
    return w.view(np.dtype((np.void, w.dtype.itemsize * w.shape[1]))).reshape(-1)


def distinct_count(words: np.ndarray) -> int:
    return np.unique(packed_view(words)).size


@dataclass(frozen=True)
class AdditiveCode:
    shape: CodeShape
    words: np.ndarray  # |C| x total_width

    def __post_init__(self):
        self.words.setflags(write=False)

    def __len__(self) -> int:
        return self.words.shape[0]

    def __contains__(self, v: MixedVector) -> bool:
        flat = v.to_flat().astype(self.words.dtype)
        return bool(np.any(np.all(self.words == flat[None, :], axis=1)))

    def iter_vectors(self) -> Iterator[MixedVector]:
        for row in self.words:
            yield MixedVector.from_flat(self.shape, row)


@dataclass(frozen=True)
class PAryCode:
    p: int
    length: int
    words: np.ndarray  # |C| x length, uint8

    def __post_init__(self):
        self.words.setflags(write=False)
        if self.words.shape[1] != self.length:
            raise ValueError("word array does not match declared length")

    def __len__(self) -> int:
        return self.words.shape[0]

    def sorted_packed(self) -> np.ndarray:
        return np.sort(packed_view(self.words))

    def same_set(self, other: "PAryCode") -> bool:
        return (
            self.p == other.p
            and self.length == other.length
            and len(self) == len(other)
            and bool(np.array_equal(self.sorted_packed(), other.sorted_packed()))
        )


def _word_dtype(shape: CodeShape) -> np.dtype:
    return np.dtype(np.uint8 if shape.p**shape.s <= 255 else np.int64)


def fold_dtype(shape: CodeShape) -> np.dtype:
    """dtype for adding two reduced entries (each below p^s) before the
    reduction: the narrowest of uint8, uint16 and int64 the sum fits in."""
    top = 2 * (shape.p**shape.s - 1)
    if top <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    return np.dtype(np.uint16 if top <= np.iinfo(np.uint16).max else np.int64)


def partial_span(rows: np.ndarray, shape: CodeShape, counts) -> np.ndarray:
    """All sums of c_k * row_k with 0 <= c_k < counts[k], by folding.

    With counts the row orders this enumerates the span of free rows; the
    first row's coefficient varies fastest.
    """
    mods = shape.column_moduli()
    fold = fold_dtype(shape)
    mods_fold = mods.astype(fold)
    words = np.zeros((1, shape.total_width), dtype=fold)
    for row, count in zip(np.asarray(rows, dtype=np.int64), counts):
        pieces = []
        for c in range(int(count)):
            mult = ((c * row) % mods).astype(fold)
            pieces.append((words + mult[None, :]) % mods_fold)
        words = np.vstack(pieces)
    return words.astype(_word_dtype(shape), copy=False)


def span(a: GeneratorMatrix, cap: int | None = None) -> AdditiveCode:
    """The additive code generated by the matrix rows.

    Raises IntegrityError if the enumeration collides, i.e. the row
    coefficient ranges do not parametrize the group freely.
    """
    cap = size_cap() if cap is None else cap
    predicted = a.signature.code_size()
    if predicted > cap:
        raise ResourceLimitError(
            f"span would have {predicted} codewords, cap {cap}"
        )
    words = partial_span(a.rows, a.shape, row_orders(a.rows, a.shape))
    if words.shape[0] != predicted:
        raise IntegrityError("coefficient enumeration does not match signature")
    if distinct_count(words) != predicted:
        raise IntegrityError(
            f"span collision: expected {predicted} distinct codewords"
        )
    return AdditiveCode(a.shape, words)


def additive_span_order(a: GeneratorMatrix) -> int:
    """Exact order of the group generated by the rows, without enumeration.

    The mixed alphabet embeds into Z_{p^s}^w by scaling block i entries by
    p^{s-i}.  A valuation-pivoted echelon form over Z_{p^s}, on one int64
    matrix, then splits off one cyclic summand per pivot: gcd(x, p^s) =
    p^v(x), p^s for a zero entry, finds the row-major first entry of least
    valuation v, whose row adds a summand of order p^{s-v}, and one
    broadcast clears its column in every other row.  Uses neither span
    nor GFBasis.
    """
    shape = a.shape
    ps = shape.p**shape.s
    # the broadcast products reach (p^s - 1)^2
    if (ps - 1) ** 2 > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"p^s = {ps} is too large for an int64 echelon")
    work = np.asarray(a.rows, dtype=np.int64) * (ps // shape.column_moduli()) % ps
    order = 1
    while work.shape[0]:
        pows = np.gcd(work, ps)  # p^valuation, p^s for a zero entry
        r, c = divmod(int(np.argmin(pows)), work.shape[1])
        pv = int(pows[r, c])
        if pv == ps:
            break
        # scale the pivot entry to p^v itself
        pivot = work[r] * pow(int(work[r, c]) // pv, -1, ps) % ps
        order *= ps // pv
        work = np.delete(work, r, axis=0)
        work = (work - (work[:, c] // pv)[:, None] * pivot) % ps
    return order


def gray_image(c: AdditiveCode, chunk: int = 4096) -> PAryCode:
    """Gray map image of every codeword; asserts injectivity."""
    n = c.shape.gray_length()
    out = np.empty((len(c), n), dtype=np.uint8)
    for lo in range(0, len(c), chunk):
        out[lo : lo + chunk] = gray_rows(c.words[lo : lo + chunk], c.shape)
    if distinct_count(out) != len(c):
        raise IntegrityError("Gray map collision on this code")
    return PAryCode(c.shape.p, n, out)


def order_p_subcode(c: AdditiveCode) -> AdditiveCode:
    """Subcode of all words of order at most p.

    A word has order <= p exactly when each Z_{p^i} entry is divisible by
    p^{i-1}.
    """
    p = c.shape.p
    # p^{i-1} per column; below p^s, so it fits the words' own dtype and
    # the test needs no int64 copy of the code
    divisors = (c.shape.column_moduli() // p).astype(c.words.dtype)
    mask = np.all(c.words % divisors[None, :] == 0, axis=1)
    return AdditiveCode(c.shape, c.words[mask])
