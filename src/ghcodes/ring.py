"""Exact arithmetic over the mixed alphabet Z_p^a1 x Z_{p^2}^a2 x ... x Z_{p^s}^as.

Vectors are stored block-wise, block i holding entries reduced modulo p^i.
Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_prime(p: int) -> None:
    """Admissible base primes: phi tables and Gray images hold one symbol
    per uint8, so p must not exceed 255."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")
    if p > 255:
        raise ValueError(f"p={p} exceeds 255, the largest symbol a byte holds")


def p_ary_expansion(u: int, p: int, r: int) -> list[int]:
    """Digits [u_0, ..., u_{r-1}] with u = sum u_i * p^i, least significant first."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0 <= u < p**r:
        raise ValueError(f"u={u} out of range [0, {p}^{r})")
    digits = []
    for _ in range(r):
        u, d = divmod(u, p)
        digits.append(d)
    return digits


def from_expansion(digits: list[int], p: int) -> int:
    """Inverse of p_ary_expansion; empty digit lists give 0."""
    u = 0
    for i, d in enumerate(digits):
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range [0, {p})")
        u += d * p**i
    return u


@dataclass(frozen=True)
class CodeShape:
    """The tuple (p, s, alphas) describing Z_p^a1 x ... x Z_{p^s}^as."""

    p: int
    s: int
    alphas: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        if len(self.alphas) != self.s:
            raise ValueError(f"expected {self.s} block widths, got {len(self.alphas)}")
        if any(a < 0 for a in self.alphas):
            raise ValueError("block widths must be non-negative")
        if not any(self.alphas):
            raise ValueError("at least one block width must be positive")

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p**i for i in range(1, self.s + 1))

    @property
    def total_width(self) -> int:
        return sum(self.alphas)

    def gray_length(self) -> int:
        """Length n = a1 + p*a2 + ... + p^{s-1}*as of the Gray image."""
        return sum(a * self.p**i for i, a in enumerate(self.alphas))

    def column_moduli(self) -> np.ndarray:
        """Per-column modulus for the flat (concatenated-blocks) layout."""
        return np.repeat(np.asarray(self.moduli, dtype=np.int64), self.alphas)


@dataclass(frozen=True)
class MixedVector:
    """One element of the mixed product group, entries reduced per block."""

    shape: CodeShape
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.blocks) != self.shape.s:
            raise ValueError("wrong number of blocks")
        for i, (block, m, a) in enumerate(
            zip(self.blocks, self.shape.moduli, self.shape.alphas), start=1
        ):
            if len(block) != a:
                raise ValueError(f"block {i} must have {a} entries, got {len(block)}")
            if any(not 0 <= x < m for x in block):
                raise ValueError(f"block {i} entries must lie in [0, {m})")

    @classmethod
    def make(cls, shape: CodeShape, blocks) -> "MixedVector":
        """Build a vector, reducing each block modulo its modulus."""
        reduced = tuple(
            tuple(int(x) % m for x in block)
            for block, m in zip(blocks, shape.moduli)
        )
        return cls(shape, reduced)

    @classmethod
    def zero(cls, shape: CodeShape) -> "MixedVector":
        return cls(shape, tuple((0,) * a for a in shape.alphas))

    @classmethod
    def from_flat(cls, shape: CodeShape, flat) -> "MixedVector":
        flat = list(flat)
        if len(flat) != shape.total_width:
            raise ValueError("flat vector has wrong width")
        blocks, pos = [], 0
        for a in shape.alphas:
            blocks.append(flat[pos : pos + a])
            pos += a
        return cls.make(shape, blocks)

    def to_flat(self) -> np.ndarray:
        return np.asarray([x for block in self.blocks for x in block], dtype=np.int64)

    def is_zero(self) -> bool:
        return all(x == 0 for block in self.blocks for x in block)


def add(u: MixedVector, v: MixedVector) -> MixedVector:
    if u.shape != v.shape:
        raise ValueError("cannot add vectors of different shapes")
    return MixedVector(
        u.shape,
        tuple(
            tuple((x + y) % m for x, y in zip(bu, bv))
            for bu, bv, m in zip(u.blocks, v.blocks, u.shape.moduli)
        ),
    )


def scalar_mul(m: int, v: MixedVector) -> MixedVector:
    if m < 0:
        raise ValueError("scalar must be non-negative")
    return MixedVector(
        v.shape,
        tuple(
            tuple((m * x) % mod for x in block)
            for block, mod in zip(v.blocks, v.shape.moduli)
        ),
    )


def order_of(v: MixedVector) -> int:
    """Smallest m >= 1 with m*v = 0; the lcm of the per-entry orders.

    An entry x in Z_{p^i} has order p^i / gcd(x, p^i), so the result is
    always a power of p dividing p^s.
    """
    result = 1
    for block, mod in zip(v.blocks, v.shape.moduli):
        for x in block:
            result = math.lcm(result, mod // math.gcd(x, mod))
    return result


def row_orders(rows: np.ndarray, shape: CodeShape) -> np.ndarray:
    """order_of for every row of a flat (m, total_width) array.

    The per-entry orders are powers of p, so their lcm is their maximum.
    """
    mods = shape.column_moduli()
    return (mods // np.gcd(np.asarray(rows, dtype=np.int64), mods)).max(axis=1)
