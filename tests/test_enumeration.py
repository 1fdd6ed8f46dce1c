"""Spanning additive codes, Gray images, and the order-p subcode."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes.construction import TypeSignature, base_matrix, build
from ghcodes.enumeration import (
    AdditiveCode,
    additive_span_order,
    distinct_count,
    gray_image,
    order_p_subcode,
    partial_span,
    span,
)
from ghcodes.errors import ResourceLimitError
from ghcodes.ring import CodeShape, MixedVector, add, order_of, row_orders


def test_span_sizes():
    assert len(span(build(TypeSignature(2, 3, (1, 0, 1))))) == 16
    assert len(span(build(TypeSignature(2, 3, (2, 0, 1))))) == 128
    assert len(span(build(TypeSignature(3, 2, (1, 1))))) == 27


def test_span_contains_zero_and_is_closed():
    code = span(build(TypeSignature(2, 3, (1, 0, 1))))
    shape = code.shape
    assert MixedVector.zero(shape) in code
    vectors = list(code.iter_vectors())
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, v = rng.integers(0, len(vectors), size=2)
        assert add(vectors[u], vectors[v]) in code


def test_span_no_duplicates():
    code = span(build(TypeSignature(3, 2, (2, 1))))
    assert distinct_count(code.words) == len(code)


def reference_span(a) -> set:
    """Every coefficient combination of the rows, in plain int64 arithmetic."""
    rows = a.rows.astype(np.int64)
    mods = a.shape.column_moduli().astype(np.int64)
    orders = [int(np.max(mods // np.gcd(row, mods))) for row in rows]
    out = set()
    for coeffs in itertools.product(*(range(o) for o in orders)):
        word = np.zeros(rows.shape[1], dtype=np.int64)
        for c, row in zip(coeffs, rows):
            word = (word + c * row) % mods
        out.add(tuple(word.tolist()))
    return out


@pytest.mark.parametrize(
    "sig",
    [TypeSignature(13, 2, (1, 1)), TypeSignature(3, 5, (1, 0, 0, 0, 1))],
)
def test_span_near_byte_edge_matches_int64_reference(sig):
    # 128 <= p^s <= 255: words are stored in uint8, but two reduced
    # entries can sum past 255 before the reduction
    a = build(sig)
    code = span(a)
    assert code.words.dtype == np.uint8
    assert {tuple(w) for w in code.words.tolist()} == reference_span(a)


def test_span_resource_cap():
    with pytest.raises(ResourceLimitError):
        span(build(TypeSignature(2, 2, (1, 10))), cap=64)


@pytest.mark.parametrize(
    "sig",
    [
        TypeSignature(2, 3, (1, 0, 1)),
        TypeSignature(2, 3, (2, 1, 1)),
        TypeSignature(3, 2, (1, 2)),
        TypeSignature(2, 2, (2, 3)),
        TypeSignature(3, 3, (1, 0, 1)),
    ],
)
def test_algebraic_order_matches_enumeration(sig):
    a = build(sig)
    assert additive_span_order(a) == sig.code_size() == len(span(a))


def enumerated_order(rows, shape) -> int:
    """Group order by enumerating every coefficient combination: an
    independent reference for the echelon."""
    return distinct_count(partial_span(rows, shape, row_orders(rows, shape)))


@st.composite
def row_sets(draw):
    """Arbitrary rows over a small shape, zero, repeated and dependent rows
    included, each kept while there are at most 4096 coefficient
    combinations."""
    p = draw(st.sampled_from([2, 3, 5]))
    s = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(any))
    shape = CodeShape(p, s, alphas)
    mods = shape.column_moduli()
    rows = np.zeros((0, shape.total_width), dtype=np.int64)
    for _ in range(draw(st.integers(1, 6))):
        if len(rows) and draw(st.booleans()):  # a multiple of a sum of two rows
            picks = draw(st.lists(st.sampled_from(range(len(rows))), min_size=2, max_size=2))
            row = draw(st.integers(0, p**s)) * rows[picks].sum(axis=0) % mods
        else:
            row = np.array([draw(st.integers(0, int(m) - 1)) for m in mods])
        trial = np.vstack([rows, row])
        if np.prod(row_orders(trial, shape)) <= 4096:
            rows = trial
    return rows, shape


@settings(max_examples=150, deadline=None)
@given(row_sets())
def test_additive_span_order_matches_enumeration(rows_shape):
    rows, shape = rows_shape
    stand_in = SimpleNamespace(rows=rows, shape=shape)
    assert additive_span_order(stand_in) == enumerated_order(rows, shape)


@pytest.mark.parametrize(
    "p, s, alphas, rows",
    [
        # p^s = 169 and 243: uint8 words, int64 echelon
        (13, 2, (1, 2), [[1, 13, 5], [0, 26, 13], [12, 0, 0]]),
        (13, 2, (0, 2), [[13, 1], [26, 2], [0, 13]]),
        (3, 5, (1, 0, 0, 0, 2), [[1, 81, 5], [0, 162, 27], [2, 9, 0]]),
        (3, 5, (0, 0, 0, 1, 1), [[3, 9], [54, 162], [0, 0]]),
        # the largest admissible prime, s = 1
        (251, 1, (2,), [[1, 250], [250, 1]]),
        (251, 1, (3,), [[1, 2, 3], [0, 0, 0]]),
    ],
)
def test_additive_span_order_at_dtype_edges(p, s, alphas, rows):
    shape = CodeShape(p, s, alphas)
    rows = np.array(rows, dtype=np.int64)
    stand_in = SimpleNamespace(rows=rows, shape=shape)
    assert additive_span_order(stand_in) == enumerated_order(rows, shape)


class _Unreadable:
    def __array__(self, *args, **kwargs):
        raise AssertionError("rows read before the overflow guard")


def test_additive_span_order_refuses_int64_overflow():
    # (251^4 - 1)^2 > 2^63: the broadcast products would wrap
    shape = CodeShape(251, 4, (0, 0, 0, 1))
    with pytest.raises(ResourceLimitError):
        additive_span_order(SimpleNamespace(rows=_Unreadable(), shape=shape))
    # 3^19 is the largest power of 3 whose square fits, 3^20 the first not
    top = (0,) * 18 + (1,)
    ok = SimpleNamespace(rows=np.ones((1, 1), np.int64), shape=CodeShape(3, 19, top))
    assert additive_span_order(ok) == 3**19
    with pytest.raises(ResourceLimitError):
        additive_span_order(
            SimpleNamespace(rows=_Unreadable(), shape=CodeShape(3, 20, top + (0,)))
        )


def test_gray_image_sizes_and_length():
    code = span(build(TypeSignature(2, 3, (1, 0, 1))))
    gray = gray_image(code)
    assert (len(gray), gray.length, gray.p) == (16, 8, 2)
    code = span(build(TypeSignature(3, 2, (1, 1))))
    gray = gray_image(code)
    assert (len(gray), gray.length, gray.p) == (27, 9, 3)


def test_gray_image_of_zero_code():
    shape = base_matrix(2, 3).shape
    zero = AdditiveCode(shape, np.zeros((1, shape.total_width), dtype=np.uint8))
    img = gray_image(zero)
    assert img.words.tolist() == [[0] * shape.gray_length()]


def test_order_p_subcode_sizes():
    code = span(build(TypeSignature(2, 3, (2, 0, 1))))
    sub = order_p_subcode(code)
    assert len(sub) == 8
    assert all(order_of(v) <= 2 for v in sub.iter_vectors())
    code = span(build(TypeSignature(3, 2, (1, 1))))
    sub = order_p_subcode(code)
    assert len(sub) == 9
    assert all(order_of(v) <= 3 for v in sub.iter_vectors())


def test_order_p_subcode_idempotent_fixed_point():
    code = span(build(TypeSignature(2, 3, (2, 0, 1))))
    sub = order_p_subcode(code)
    again = order_p_subcode(sub)
    assert np.array_equal(np.sort(sub.words, axis=0), np.sort(again.words, axis=0))
    # a code in which every word already has order <= p maps to itself
    assert len(order_p_subcode(sub)) == len(sub)
