"""The generalized Gray map: defining tables, injectivity, digit-linearity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes import gray
from ghcodes.errors import ResourceLimitError
from ghcodes.gray import (
    composition_lemma_holds,
    gray_rows,
    mixed_gray,
    phi,
    phi_extended,
    phi_table,
    y_matrix,
)
from ghcodes.ring import CodeShape, MixedVector


def reference_phi(u, p, r):
    """Independent evaluation of the defining formula, pure Python."""
    digits = []
    x = u
    for _ in range(r):
        x, d = divmod(x, p)
        digits.append(d)
    out = []
    for j in range(p ** (r - 1)):
        col, acc = j, digits[r - 1]
        for i in range(r - 1):
            col, c = divmod(col, p)
            acc += digits[i] * c
        out.append(acc % p)
    return out


# ---------------------------------------------------------------------------
# Y matrices
# ---------------------------------------------------------------------------

def test_y_matrix_small():
    assert y_matrix(2, 2).entries.tolist() == [[0, 1]]
    assert y_matrix(2, 3).entries.tolist() == [[0, 1, 0, 1], [0, 0, 1, 1]]
    assert y_matrix(3, 2).entries.tolist() == [[0, 1, 2]]
    assert y_matrix(5, 1).entries.shape == (0, 1)


def test_y_matrix_cap():
    with pytest.raises(ResourceLimitError):
        y_matrix(2, 30)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def test_phi_2_2_table():
    assert phi(0, 2, 2).tolist() == [0, 0]
    assert phi(1, 2, 2).tolist() == [0, 1]
    assert phi(2, 2, 2).tolist() == [1, 1]
    assert phi(3, 2, 2).tolist() == [1, 0]


def test_phi_r1_identity():
    assert phi(2, 3, 1).tolist() == [2]
    for p in (2, 3, 5):
        for u in range(p):
            assert phi(u, p, 1).tolist() == [u]


def test_phi_2_3_values():
    assert phi(1, 2, 3).tolist() == [0, 1, 0, 1]
    assert phi(2, 2, 3).tolist() == [0, 0, 1, 1]
    assert phi(4, 2, 3).tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_phi_matches_reference(p, r):
    for u in range(p**r):
        assert phi(u, p, r).tolist() == reference_phi(u, p, r)


def test_primes_above_255_are_rejected():
    # phi tables hold one symbol per byte; 251 is the largest prime that fits
    assert phi(300, 251, 2).tolist() == reference_phi(300, 251, 2)
    with pytest.raises(ValueError):
        phi(300, 257, 2)
    with pytest.raises(ValueError):
        CodeShape(257, 2, (1, 1))


def test_phi_out_of_range():
    with pytest.raises(ValueError):
        phi(8, 2, 3)
    with pytest.raises(ValueError):
        phi(-1, 2, 2)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 8), (3, 2), (3, 4), (5, 3)])
def test_phi_injective_exhaustive(p, r):
    images = {tuple(phi(u, p, r)) for u in range(p**r)}
    assert len(images) == p**r


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_digit_linearity_exhaustive(p, r):
    """sum_i l_i * phi(p^i) = phi(sum_i l_i p^i) over Z_p, all coefficient tuples."""
    basis = [np.asarray(phi(p**i, p, r), dtype=np.int64) for i in range(r)]
    for u in range(p**r):
        digits, x = [], u
        for _ in range(r):
            x, d = divmod(x, p)
            digits.append(d)
        combo = sum(d * b for d, b in zip(digits, basis)) % p
        assert combo.tolist() == phi(u, p, r).tolist()


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_shift_translates_to_all_ones(p, r):
    """phi(u + p^{r-1}) = phi(u) + 1 for every u, on the table itself."""
    t = phi_table(p, r).astype(np.int64)
    shifted = t[(np.arange(p**r) + p ** (r - 1)) % p**r]
    assert np.array_equal(shifted, (t + 1) % p)


def composition(word, p):
    return [int(np.count_nonzero(np.asarray(word) == v)) for v in range(p)]


@pytest.mark.parametrize(
    "p,r",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)],
)
def test_composition_lemma_exhaustive(p, r):
    """phi(u) - phi(v) has the symbol composition of phi(u - v), for every
    pair, by the reference formula; and the table check agrees."""
    q = p**r
    images = [np.asarray(reference_phi(u, p, r)) for u in range(q)]
    for u in range(q):
        for v in range(q):
            assert composition((images[u] - images[v]) % p, p) == composition(
                images[(u - v) % q], p
            )
    assert composition_lemma_holds(p, r)


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (3, 5), (13, 2)])
def test_composition_lemma_check_rejects_broken_tables(monkeypatch, p, r):
    assert composition_lemma_holds(p, r)
    table = gray.phi_table(p, r).copy()
    table[1, 0] = (table[1, 0] + 1) % p  # one symbol of phi(1)
    monkeypatch.setattr(gray, "phi_table", lambda p_, r_: table)
    assert not composition_lemma_holds.__wrapped__(p, r)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def test_phi_extended_examples():
    assert phi_extended([2, 1], 2, 2).tolist() == [1, 1, 0, 1]
    assert phi_extended([], 3, 2).tolist() == []
    assert phi_extended([4], 2, 3).tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        phi_extended([4], 2, 2)


def test_mixed_gray_examples():
    shape = CodeShape(2, 3, (2, 1, 1))
    assert shape.gray_length() == 8
    z = MixedVector.zero(shape)
    assert mixed_gray(z).tolist() == [0] * 8
    v = MixedVector.make(shape, [[1, 1], [2], [4]])
    assert mixed_gray(v).tolist() == [1, 1, 1, 1, 1, 1, 1, 1]
    w = MixedVector.make(shape, [[0, 1], [1], [1]])
    assert mixed_gray(w).tolist() == [0, 1, 0, 1, 0, 1, 0, 1]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [CodeShape(2, 3, (2, 1, 1)), CodeShape(3, 2, (3, 2)), CodeShape(2, 2, (4, 3))]
    ),
    st.data(),
)
def test_gray_rows_matches_mixed_gray(shape, data):
    m = data.draw(st.integers(1, 6))
    rows = []
    for _ in range(m):
        blocks = [
            [data.draw(st.integers(0, shape.p**i - 1)) for _ in range(a)]
            for i, a in enumerate(shape.alphas, start=1)
        ]
        rows.append(MixedVector.make(shape, blocks))
    flat = np.asarray([v.to_flat() for v in rows])
    batched = gray_rows(flat, shape)
    assert batched.shape == (m, shape.gray_length())
    for img, v in zip(batched, rows):
        expected = list(v.blocks[0])
        for i, block in enumerate(v.blocks[1:], start=2):
            for u in block:
                expected += reference_phi(u, shape.p, i)
        assert img.tolist() == mixed_gray(v).tolist() == expected
