"""The recursive generator-matrix construction and its text format."""

import numpy as np
import pytest

from ghcodes.construction import (
    TypeSignature,
    base_matrix,
    build,
    extend_with_row,
    parse_text,
    to_text,
)
from ghcodes.errors import ResourceLimitError
from ghcodes.cli import GridSpec
from ghcodes.ring import order_of, row_orders

# Hand-checked worked examples; the text dumps below must match
# byte-for-byte, column order included.
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


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def test_signature_guards():
    with pytest.raises(ValueError):
        TypeSignature(4, 2, (1, 1))  # p not prime
    with pytest.raises(ValueError):
        TypeSignature(2, 1, (1,))  # s too small
    with pytest.raises(ValueError):
        TypeSignature(2, 2, (0, 1))  # t_1 >= 1
    with pytest.raises(ValueError):
        TypeSignature(2, 2, (1, 0))  # t_s >= 1
    with pytest.raises(ValueError):
        TypeSignature(2, 3, (1, -1, 1))


def test_signature_size_and_orders():
    sig = TypeSignature(2, 3, (2, 0, 1))
    assert sig.code_size_exponent() == 7
    assert sig.code_size() == 128
    assert sorted(sig.row_orders()) == [2, 8, 8]
    sig = TypeSignature(3, 2, (1, 1))
    assert sig.code_size() == 27
    assert sorted(sig.row_orders()) == [3, 9]


# ---------------------------------------------------------------------------
# base matrix
# ---------------------------------------------------------------------------

def test_base_matrix_2_3():
    a = base_matrix(2, 3)
    assert to_text(a) == TEXT_2_3_101
    assert a.shape.alphas == (2, 1, 1)


def test_base_matrix_3_2():
    a = base_matrix(3, 2)
    assert a.rows.tolist() == [[1, 1, 1, 3, 3], [0, 1, 2, 1, 2]]
    assert [order_of(w) for w in a.row_vectors()] == [3, 9]
    assert a.shape.alphas == (3, 2)


def test_base_matrix_2_2():
    a = base_matrix(2, 2)
    assert a.rows.tolist() == [[1, 1, 2], [0, 1, 1]]
    assert [order_of(w) for w in a.row_vectors()] == [2, 4]


# ---------------------------------------------------------------------------
# extension steps
# ---------------------------------------------------------------------------

def test_extend_i1_reproduces_three_row_fixture():
    a = extend_with_row(base_matrix(2, 3), 1)
    assert to_text(a) == TEXT_2_3_201


def test_extend_i2_block_layout():
    """One i=2 step on the 3-row matrix: the order-4 tuple columns come
    first in block 2 and the appended counter in block 3 runs 0,2,4,6."""
    a3 = extend_with_row(base_matrix(2, 3), 1)
    a = extend_with_row(a3, 2)
    assert a.signature.ts == (2, 1, 1)
    # block 2 starts with the tuple columns {2} x {0,2}^2, last coord fastest
    lead = a.block(2)[:, :4].T.tolist()
    expected = [[2, b, c, 1] for b in (0, 2) for c in (0, 2)]
    assert lead == expected
    # block 3 is the old block tiled with counter 0,2,4,6
    old_w = a3.shape.alphas[2]
    blk3_new_row = a.block(3)[-1]
    assert blk3_new_row[: 4 * old_w].tolist() == sum(
        ([v] * old_w for v in (0, 2, 4, 6)), []
    )
    assert order_of(a.row(3)) == 4


def test_extend_is_duplicates_every_block():
    a = extend_with_row(base_matrix(2, 3), 3)
    assert a.signature.ts == (1, 0, 2)
    assert a.shape.alphas == (4, 2, 2)
    base = base_matrix(2, 3)
    for i, reps in ((1, 2), (2, 2), (3, 2)):
        old = base.block(i)
        assert np.array_equal(a.block(i)[:2], np.tile(old, (1, reps)))
    # appended row: constant per copy in each block
    assert a.rows[-1].tolist() == [0, 0, 1, 1, 0, 2, 0, 4]
    assert order_of(a.row(2)) == 2


def test_extend_bad_index():
    with pytest.raises(ValueError):
        extend_with_row(base_matrix(2, 3), 0)
    with pytest.raises(ValueError):
        extend_with_row(base_matrix(2, 3), 4)


def test_extend_resource_cap():
    with pytest.raises(ResourceLimitError):
        extend_with_row(base_matrix(2, 3), 1, cap=16)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_depth_zero_is_base():
    a = build(TypeSignature(2, 3, (1, 0, 1)))
    assert to_text(a) == to_text(base_matrix(2, 3))


def test_build_matches_single_extension():
    assert to_text(build(TypeSignature(2, 3, (2, 0, 1)))) == TEXT_2_3_201


@pytest.mark.parametrize(
    "sig",
    [
        TypeSignature(2, 3, (2, 1, 1)),
        TypeSignature(2, 2, (2, 2)),
        TypeSignature(3, 2, (1, 2)),
        TypeSignature(3, 3, (1, 1, 1)),
        TypeSignature(2, 3, (1, 0, 2)),
    ],
)
def test_build_row_order_multiset(sig):
    a = build(sig)
    got = sorted(order_of(w) for w in a.row_vectors())
    assert got == sorted(sig.row_orders())
    # Gray length n = |C| / p
    assert a.shape.gray_length() == sig.code_size() // sig.p


def test_build_deterministic():
    sig = TypeSignature(2, 3, (2, 1, 1))
    assert to_text(build(sig)) == to_text(build(sig))


def test_build_resource_cap():
    with pytest.raises(ResourceLimitError):
        build(TypeSignature(2, 2, (1, 30)), cap=2**16)


def test_shape_of_examples():
    assert build(TypeSignature(2, 3, (1, 0, 1))).shape.alphas == (2, 1, 1)
    assert build(TypeSignature(2, 3, (2, 0, 1))).shape.alphas == (4, 6, 12)
    assert build(TypeSignature(3, 2, (1, 1))).shape.alphas == (3, 2)


def test_row_orders_match_order_of_on_the_grid():
    for sig in GridSpec().signatures():
        a = build(sig)
        expected = [order_of(w) for w in a.row_vectors()]
        assert row_orders(a.rows, a.shape).tolist() == expected


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sig",
    [
        TypeSignature(2, 3, (1, 0, 1)),
        TypeSignature(2, 3, (2, 1, 1)),
        TypeSignature(3, 2, (2, 1)),
    ],
)
def test_text_round_trip(sig):
    a = build(sig)
    text = to_text(a)
    b = parse_text(text)
    assert to_text(b) == text
    assert np.array_equal(a.rows, b.rows)
    assert a.shape == b.shape and a.signature == b.signature


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_text("")
    with pytest.raises(ValueError):
        parse_text("p=2 s=2 alpha=2,1 t=1,1\n1 1 | 9\n0 1 | 1\n")
    with pytest.raises(ValueError):
        parse_text("p=2 s=2 alpha=2,1 t=1,1\n1 1 1 | 2\n")
