"""Recursive construction of the generator matrices A_p^{t_1,...,t_s}.

The base matrix has two rows; each extension step appends one row of order
p^{s-i+1} and widens every block.  The addition order is fixed: all order
p^s rows first, then order p^{s-1}, and so on down to order p.  build() is
the only public way to reach a general signature, so the order cannot be
violated from outside.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .ring import CodeShape, MixedVector, check_prime, row_orders

DEFAULT_SIZE_CAP = 2**22

_ENV_CAP = "GHCODES_MAX_SIZE"


def size_cap(default: int = DEFAULT_SIZE_CAP) -> int:
    """Active code-size cap; the GHCODES_MAX_SIZE env var overrides it."""
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{_ENV_CAP} must be positive, got {raw!r}")
    return cap


@dataclass(frozen=True)
class TypeSignature:
    """The abelian type (t_1,...,t_s): t_i generators of order p^{s-i+1}."""

    p: int
    s: int
    ts: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if self.s < 2:
            raise ValueError(f"s must be >= 2, got {self.s}")
        object.__setattr__(self, "ts", tuple(int(t) for t in self.ts))
        if len(self.ts) != self.s:
            raise ValueError(f"expected {self.s} entries, got {len(self.ts)}")
        if any(t < 0 for t in self.ts):
            raise ValueError("t_i must be non-negative")
        if self.ts[0] < 1 or self.ts[-1] < 1:
            raise ValueError("t_1 >= 1 and t_s >= 1 are required")

    @property
    def num_rows(self) -> int:
        return sum(self.ts)

    def code_size_exponent(self) -> int:
        return sum((self.s - i) * t for i, t in enumerate(self.ts))

    def code_size(self) -> int:
        return self.p**self.code_size_exponent()

    def row_orders(self) -> list[int]:
        """Multiset of row orders implied by the signature."""
        out = []
        for i, t in enumerate(self.ts, start=1):
            out.extend([self.p ** (self.s - i + 1)] * t)
        return out


@dataclass(frozen=True)
class GeneratorMatrix:
    shape: CodeShape
    rows: np.ndarray  # num_rows x total_width, flat block layout, int64
    signature: TypeSignature

    def __post_init__(self):
        self.rows.setflags(write=False)
        if self.rows.shape != (self.signature.num_rows, self.shape.total_width):
            raise ValueError("row array does not match signature/shape")

    def row(self, k: int) -> MixedVector:
        return MixedVector.from_flat(self.shape, self.rows[k])

    def row_vectors(self) -> list[MixedVector]:
        return [self.row(k) for k in range(self.rows.shape[0])]

    def block(self, i: int) -> np.ndarray:
        """Columns of the Z_{p^i} block, 1-based."""
        start = sum(self.shape.alphas[: i - 1])
        return self.rows[:, start : start + self.shape.alphas[i - 1]]


def base_matrix(p: int, s: int) -> GeneratorMatrix:
    """The 2-row starting matrix with signature (1, 0, ..., 0, 1)."""
    sig = TypeSignature(p, s, (1,) + (0,) * (s - 2) + (1,))
    alphas = (p,) + (p - 1,) * (s - 1)
    shape = CodeShape(p, s, alphas)
    blocks_top = [np.full(p, 1, dtype=np.int64)]
    blocks_bot = [np.arange(p, dtype=np.int64)]
    for i in range(2, s + 1):
        blocks_top.append(np.full(p - 1, p ** (i - 1), dtype=np.int64))
        blocks_bot.append(np.arange(1, p, dtype=np.int64))
    rows = np.vstack([np.concatenate(blocks_top), np.concatenate(blocks_bot)])
    return GeneratorMatrix(shape, rows, sig)


def _m_matrix(p: int, j: int, num_rows: int) -> np.ndarray:
    """Columns are all tuples in {p^j} x {0, p, ..., p(p^j - 1)}^{num_rows-1}.

    Tuples are enumerated in ascending mixed-radix order with the last
    coordinate varying fastest.
    """
    choices = [p * m for m in range(p**j)]
    cols = [
        (p**j,) + tail
        for tail in itertools.product(choices, repeat=num_rows - 1)
    ]
    return np.array(cols, dtype=np.int64).T


def _tile_with_counter(block: np.ndarray, values) -> np.ndarray:
    """Repeat block once per value, appending that constant as a new row."""
    values = list(values)
    ncols = block.shape[1]
    tiled = np.tile(block, (1, len(values)))
    new = np.repeat(np.asarray(values, dtype=np.int64), ncols)
    return np.vstack([tiled, new[None, :]])


def extend_with_row(a: GeneratorMatrix, i: int, cap: int | None = None) -> GeneratorMatrix:
    """Append one row of order p^{s-i+1}, widening every block."""
    sig = a.signature
    p, s = sig.p, sig.s
    if not 1 <= i <= s:
        raise ValueError(f"i must be in 1..{s}, got {i}")
    new_ts = tuple(t + (1 if k == i - 1 else 0) for k, t in enumerate(sig.ts))
    new_sig = TypeSignature(p, s, new_ts)
    cap = size_cap() if cap is None else cap
    if new_sig.code_size() > cap:
        raise ResourceLimitError(
            f"signature {new_ts} spans {new_sig.code_size()} codewords, cap {cap}"
        )

    num_rows = a.rows.shape[0]
    new_blocks = [None] * s
    new_blocks[0] = _tile_with_counter(a.block(1), range(p))
    if i < s:
        for j in range(1, s - i + 1):
            m_part = _tile_with_counter(_m_matrix(p, j, num_rows), range(1, p))
            a_part = _tile_with_counter(a.block(j + 1), range(p ** (j + 1)))
            new_blocks[j] = np.hstack([m_part, a_part])
    if i > 1:
        for k in range(1, i):
            block_idx = s - i + k + 1
            values = [p**k * m for m in range(p ** (s - i + 1))]
            new_blocks[block_idx - 1] = _tile_with_counter(
                a.block(block_idx), values
            )

    alphas = tuple(b.shape[1] for b in new_blocks)
    shape = CodeShape(p, s, alphas)
    rows = np.hstack(new_blocks)
    out = GeneratorMatrix(shape, rows, new_sig)
    assert row_orders(rows[num_rows:], shape)[0] == p ** (s - i + 1)
    return out


def build(sig: TypeSignature, cap: int | None = None) -> GeneratorMatrix:
    """Build A_p^{t_1,...,t_s} by the mandated extension order."""
    cap = size_cap() if cap is None else cap
    if sig.code_size() > cap:
        raise ResourceLimitError(
            f"signature {sig.ts} spans {sig.code_size()} codewords, cap {cap}"
        )
    a = base_matrix(sig.p, sig.s)
    for _ in range(sig.ts[0] - 1):
        a = extend_with_row(a, 1, cap=cap)
    for i in range(2, sig.s):
        for _ in range(sig.ts[i - 1]):
            a = extend_with_row(a, i, cap=cap)
    for _ in range(sig.ts[-1] - 1):
        a = extend_with_row(a, sig.s, cap=cap)
    assert a.signature == sig
    assert sorted(row_orders(a.rows, a.shape).tolist()) == sorted(sig.row_orders())
    return a


def to_text(a: GeneratorMatrix) -> str:
    """Matrix text format; round-trips byte-identically through parse_text."""
    header = "p={} s={} alpha={} t={}".format(
        a.shape.p,
        a.shape.s,
        ",".join(str(x) for x in a.shape.alphas),
        ",".join(str(t) for t in a.signature.ts),
    )
    lines = [header]
    offsets = np.cumsum((0,) + a.shape.alphas)
    for row in a.rows:
        parts = [
            " ".join(str(int(x)) for x in row[offsets[i] : offsets[i + 1]])
            for i in range(a.shape.s)
        ]
        lines.append(" | ".join(parts))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> GeneratorMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix document")
    fields = dict(item.split("=", 1) for item in lines[0].split())
    p = int(fields["p"])
    s = int(fields["s"])
    alphas = tuple(int(x) for x in fields["alpha"].split(","))
    ts = tuple(int(x) for x in fields["t"].split(","))
    shape = CodeShape(p, s, alphas)
    sig = TypeSignature(p, s, ts)
    rows = []
    for ln in lines[1:]:
        blocks = [b.split() for b in ln.split("|")]
        if len(blocks) != s or tuple(len(b) for b in blocks) != alphas:
            raise ValueError(f"row does not match alpha={alphas}: {ln!r}")
        rows.append([int(x) for b in blocks for x in b])
    rows = np.asarray(rows, dtype=np.int64)
    mods = shape.column_moduli()
    if rows.size and (rows.min() < 0 or np.any(rows >= mods[None, :])):
        raise ValueError("matrix entries out of range for their blocks")
    return GeneratorMatrix(shape, rows, sig)
