"""Structural invariants: distances, GH property, kernel, rank, replay."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghcodes import analysis
from ghcodes.cli import GridSpec
from ghcodes.construction import TypeSignature, build
from ghcodes.enumeration import (
    PAryCode,
    additive_span_order,
    gray_image,
    order_p_subcode,
    partial_span,
    span,
)
from ghcodes.errors import IntegrityError, ResourceLimitError
from ghcodes.gray import gray_rows
from ghcodes.ring import CodeShape, row_orders
from ghcodes.analysis import (
    DEFAULT_QUAD_CAP,
    GFBasis,
    character_sum_check,
    coset_rank,
    expected_linear,
    gf_rank,
    hamming_distance,
    is_gh_code,
    is_linear,
    kernel,
    kernel_basis,
    gf_span_words,
    min_distance,
    pair_scan,
    rank,
    verify_theorems,
)


def reference_kernel(code: PAryCode) -> set:
    """Definitional kernel by the O(|C|^2) double loop, independent of the
    witness-driven implementation."""
    words = {tuple(w) for w in code.words.tolist()}
    out = set()
    for x in words:
        xs = np.asarray(x)
        if all(tuple((xs + np.asarray(c)) % code.p) in words for c in words):
            out.add(x)
    return out


def gray_of(sig):
    return gray_image(span(build(sig)))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_hamming_distance_basic():
    assert hamming_distance((0, 0, 0), (0, 0, 0)) == 0
    assert hamming_distance((0, 1, 2), (0, 2, 2)) == 1
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_hamming_distance_is_weight_of_difference():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        u = rng.integers(0, p, size=20)
        v = rng.integers(0, p, size=20)
        assert hamming_distance(u, v) == int(np.count_nonzero((u - v) % p))


def test_min_distance_examples():
    assert min_distance(PAryCode(2, 3, np.array([[0, 0, 0], [1, 1, 1]], dtype=np.uint8))) == 3
    assert min_distance(gray_of(TypeSignature(2, 3, (1, 0, 1)))) == 4
    assert min_distance(gray_of(TypeSignature(3, 2, (1, 1)))) == 6
    with pytest.raises(ValueError):
        min_distance(PAryCode(2, 3, np.zeros((1, 3), dtype=np.uint8)))


# ---------------------------------------------------------------------------
# pair scan
# ---------------------------------------------------------------------------

def reference_pair_scan(words: np.ndarray, p: int):
    """Plain loop over every pair i < j, counting the symbols of the
    difference: (min distance, all ok, first offending pair, pairs)."""
    rows = words.tolist()
    n = len(rows[0])
    lam = n // p
    min_d, witness, pairs = None, None, 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            counts = [0] * p
            for a, b in zip(rows[i], rows[j]):
                counts[(a - b) % p] += 1
            pairs += 1
            d = n - counts[0]
            min_d = d if min_d is None else min(min_d, d)
            balanced = all(c == lam for c in counts[1:])
            constant = any(c == n for c in counts[1:])
            if witness is None and not (balanced or constant):
                witness = (i, j)
    return min_d, witness is None, witness, pairs


def scan_inputs(p: int, wide: bool, seed: int):
    """Distinct rows, narrow or at least 1024 wide: a subset of a GH code,
    the same with three rows perturbed, and random rows."""
    rng = np.random.default_rng(seed)
    gh = gray_of(TypeSignature(p, 2, (1, 3 if p == 2 else 1))).words
    gh = gh[rng.permutation(gh.shape[0])[:20]]
    if wide:  # repeating the columns keeps every difference's composition
        gh = np.tile(gh, (1, -(-1024 // gh.shape[1])))
    perturbed = gh.copy()
    for r in (4, 9, 15):
        k = int(rng.integers(gh.shape[1]))
        perturbed[r, k] = (perturbed[r, k] + 1) % p
    noise = rng.integers(0, p, size=(12, gh.shape[1]), dtype=np.uint8)
    out = [gh, perturbed, noise]
    for w in out:
        assert np.unique(w, axis=0).shape[0] == w.shape[0]
    return out


def check_scan(words: np.ndarray, p: int):
    got = pair_scan(words, p, words.shape[1])
    expected = reference_pair_scan(words, p)
    assert (got.min_distance, got.all_balanced_or_constant, got.witness, got.pairs) == expected
    return got


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_pair_scan_matches_reference(p, wide):
    for seed in range(2):
        gh, perturbed, noise = scan_inputs(p, wide, seed)
        assert check_scan(gh, p).all_balanced_or_constant
        assert not check_scan(perturbed, p).all_balanced_or_constant
        check_scan(noise, p)


@pytest.mark.parametrize("tile_rows", [1, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_pair_scan_tile_edges(monkeypatch, p, tile_rows):
    # narrow rows, so the product scan runs in many small tiles
    monkeypatch.setattr(analysis, "_ONEHOT_TILE_BYTES", tile_rows * 4 * 512)
    for seed in range(2):
        for words in scan_inputs(p, False, seed):
            check_scan(words, p)


def test_pair_scan_product_kernel_refuses_inexact_widths():
    # float32 sums of 0/1 and +-1 terms are exact only below 2^24
    for p in (2, 3):
        with pytest.raises(ValueError):
            analysis._scan_products(np.zeros((2, 3), dtype=np.uint8), p, 1 << 24)


def test_pair_scan_witness_is_row_major_across_tiles(monkeypatch):
    # With 3-row tiles, the offending pair (2, 3) lies in an earlier column
    # tile than (1, 6), which comes first in row-major order.
    ternary = np.array(
        [
            [0, 0, 0, 0, 0, 0], [2, 1, 0, 2, 0, 1], [1, 2, 1, 2, 0, 0],
            [1, 0, 1, 2, 0, 2], [2, 0, 2, 0, 1, 1], [1, 0, 0, 2, 1, 2],
            [1, 1, 2, 2, 0, 0], [1, 0, 1, 0, 2, 2], [2, 0, 1, 1, 2, 0],
        ],
        dtype=np.uint8,
    )
    # The same layout for the sign Gram matrix.  Rows 3 and 6 are words of
    # the first-order Reed-Muller code of length 8 with two bits flipped,
    # the others are words of it, and (2, 3) is at distance 6.
    binary = np.array(
        [
            [0, 0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1, 0],
            [1, 0, 0, 1, 1, 0, 0, 1], [1, 1, 1, 1, 0, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0, 0, 0],
            [0, 1, 0, 1, 1, 1, 1, 1],
        ],
        dtype=np.uint8,
    )
    assert hamming_distance(binary[2], binary[3]) == 6
    monkeypatch.setattr(analysis, "_ONEHOT_TILE_BYTES", 3 * 4 * 512)
    assert check_scan(ternary, 3).witness == (1, 6)
    assert check_scan(binary, 2).witness == (1, 6)


def test_verify_theorems_scans_each_code_once(monkeypatch):
    sig = TypeSignature(3, 2, (1, 2))
    gray = gray_of(sig)
    calls = []

    def counting_scan(words, p, n):
        calls.append(words.shape)
        return pair_scan(words, p, n)

    monkeypatch.setattr(analysis, "pair_scan", counting_scan)
    r = verify_theorems(sig)
    assert calls == [gray.words.shape]
    assert r.ok and r.min_distance_method == "exhaustive"
    assert r.min_distance == reference_pair_scan(gray.words, 3)[0] == 18


# ---------------------------------------------------------------------------
# GH property
# ---------------------------------------------------------------------------

def test_is_gh_code_cardinality_failure():
    words = np.array(
        [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8
    )
    result = is_gh_code(PAryCode(2, 3, words))
    assert not result
    assert "|C|" in result.failure


@pytest.mark.parametrize("p", [3, 131])  # uint8 and uint16 sums in the +1 shift
def test_is_gh_code_closure_failure(p):
    # the 2p words (a, b), b < 2, hold zero, but (0, 1) + 1 = (1, 2) is not one
    words = np.array([[a, b] for b in (0, 1) for a in range(p)], dtype=np.uint8)
    result = is_gh_code(PAryCode(p, 2, words))
    assert not result and "all-one" in result.failure


def test_is_gh_code_length4_hadamard():
    words = np.array(
        [
            [0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1],
            [0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    assert is_gh_code(PAryCode(2, 4, words))


def test_is_gh_code_unbalanced_difference_witness():
    # contains 0 and is closed under +1 but (0,0,0,1) is neither constant
    # nor balanced against zero
    words = np.array(
        [
            [0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0],
            [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    result = is_gh_code(PAryCode(2, 4, words))
    assert not result
    assert result.witness is not None
    assert result.min_distance == 1


@pytest.mark.parametrize(
    "sig",
    [
        TypeSignature(2, 3, (1, 0, 1)),
        TypeSignature(2, 3, (2, 0, 1)),
        TypeSignature(3, 2, (1, 1)),
        TypeSignature(3, 3, (1, 0, 1)),
    ],
)
def test_constructed_codes_are_gh(sig):
    gray = gray_of(sig)
    assert is_gh_code(gray)
    assert min_distance(gray) == gray.length * (sig.p - 1) // sig.p


# ---------------------------------------------------------------------------
# certificates: character sums and the coset rank
# ---------------------------------------------------------------------------

CERTIFIED_SIGNATURES = list(GridSpec(max_size=DEFAULT_QUAD_CAP).signatures()) + [
    TypeSignature(5, 2, (1, 1)),
    TypeSignature(7, 2, (1, 1)),
    TypeSignature(11, 2, (1, 1)),
    TypeSignature(13, 2, (1, 1)),
    TypeSignature(5, 3, (1, 0, 1)),
    TypeSignature(3, 5, (1, 0, 0, 0, 1)),
]


@pytest.mark.parametrize(
    "sig", CERTIFIED_SIGNATURES, ids=lambda g: f"{g.p}-{g.s}-{'.'.join(map(str, g.ts))}"
)
def test_certificates_match_brute_force(sig):
    a = build(sig)
    gray = gray_of(sig)
    scan = pair_scan(gray.words, sig.p, gray.length)
    cert = character_sum_check(a.rows, a.shape)
    assert cert.ok == scan.all_balanced_or_constant
    assert cert.min_distance == scan.min_distance
    assert coset_rank(a.rows, a.shape) == rank(gray)


@st.composite
def free_row_sets(draw):
    """A small shape and rows over it, kept one by one while they stay free
    (group order = product of the row orders)."""
    p = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(any))
    shape = CodeShape(p, s, alphas)
    mods = shape.column_moduli()
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = np.array([draw(st.integers(0, int(m) - 1)) for m in mods], dtype=np.int64)
        trial = np.array(rows + [row])
        orders = row_orders(trial, shape)
        order = additive_span_order(SimpleNamespace(rows=trial, shape=shape))
        if orders.min() > 1 and order == orders.prod() <= 729:
            rows.append(row)
    if not rows:  # the first row was zero: use the shape's first unit vector
        rows.append((np.arange(shape.total_width) == 0).astype(np.int64))
    return np.array(rows), shape


@settings(max_examples=80, deadline=None)
@given(free_row_sets())
def test_certificates_match_brute_force_on_free_rows(rows_shape):
    rows, shape = rows_shape
    words = gray_rows(partial_span(rows, shape, row_orders(rows, shape)), shape)
    scan = pair_scan(words, shape.p, shape.gray_length())
    cert = character_sum_check(rows, shape)
    assert cert.ok == scan.all_balanced_or_constant
    assert cert.min_distance == scan.min_distance
    assert coset_rank(rows, shape) == gf_rank(words, shape.p)


def test_character_sum_check_names_a_witness():
    # Z_3^2 with unit rows: only (1, 1) and (2, 2) are constant, and the
    # first other nonzero codeword, coefficients (0, 1), is the witness
    cert = character_sum_check(np.eye(2, dtype=np.int64), CodeShape(3, 1, (2,)))
    assert (cert.ok, cert.min_distance, cert.witness) == (False, 1, (0, 1))


def test_character_sum_check_rounds_and_guards_counts(monkeypatch):
    a = build(TypeSignature(3, 2, (1, 2)))
    exact = character_sum_check(a.rows, a.shape)
    dft = analysis._group_dft
    monkeypatch.setattr(analysis, "_group_dft", lambda x: dft(x) + 0.1)
    assert character_sum_check(a.rows, a.shape) == exact
    monkeypatch.setattr(analysis, "_group_dft", lambda x: dft(x) + 0.4)
    with pytest.raises(IntegrityError):
        character_sum_check(a.rows, a.shape)


@pytest.mark.parametrize(
    "axes",
    [
        (2,) * 12,
        (8, 4, 4, 2, 2, 2),
        (2, 64, 2),  # a chunk of exactly 128 between two others
        (128, 2),  # 2 * 128 > 128: the 128 axis is a chunk on its own
        (2, 128),
        (256, 2),  # a lone axis above the chunk size
        (9, 9, 3, 3, 3),
        (81, 3),
        (243,),
        (25, 5, 5, 5),
        (125, 5),
        (49, 7, 7),
        (121, 11),
        (11, 11, 11),
        (169,),  # 13^2 > 128: np.fft.fft
        (13, 169, 13),
        (1,),
    ],
    ids=lambda axes: "x".join(map(str, axes)),
)
def test_group_dft_matches_fftn(axes):
    rng = np.random.default_rng(sum(axes))
    size = int(np.prod(axes))
    hist = np.bincount(rng.integers(0, size, 3 * size), minlength=size).reshape(axes)
    np.testing.assert_allclose(analysis._group_dft(hist), np.fft.fftn(hist), rtol=0, atol=1e-9)


def test_character_sum_check_needs_the_composition_lemma(monkeypatch):
    a = build(TypeSignature(2, 3, (1, 0, 1)))
    monkeypatch.setattr(analysis, "composition_lemma_holds", lambda p, r: r != 2)
    with pytest.raises(IntegrityError):
        character_sum_check(a.rows, a.shape)


# ---------------------------------------------------------------------------
# rank and linearity
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert rank(PAryCode(2, 4, np.zeros((1, 4), dtype=np.uint8))) == 0
    lin = gray_of(TypeSignature(2, 3, (1, 0, 1)))
    assert rank(lin) == 4 and is_linear(lin)
    tern = gray_of(TypeSignature(3, 2, (1, 1)))
    assert rank(tern) > 3 and not is_linear(tern)


def test_gf_rank_matches_numpy_gf2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(0, 2, size=(12, 9)).astype(np.uint8)
        # reference: brute-force span size
        spanned = gf_span_words(m, 2)
        assert 2 ** gf_rank(m, 2) == spanned.shape[0]


def test_gf_rank_early_exit():
    rng = np.random.default_rng(4)
    m = rng.integers(0, 3, size=(40, 30)).astype(np.uint8)
    full = gf_rank(m, 3)
    assert gf_rank(m, 3, stop_above=5) >= min(full, 6)


def test_gf_rank_large_prime_products_do_not_wrap():
    # 190 * 190 overflows int16; the rows are dependent since 190 = -1 mod 191
    assert gf_rank(np.array([[1, 190], [190, 1]], dtype=np.uint8), 191) == 1
    assert gf_rank(np.array([[1, 190], [189, 1]], dtype=np.uint8), 191) == 2


def test_gfbasis_incremental_matches_batch():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, size=(50, 17)).astype(np.uint8)
    basis = GFBasis(2, 17)
    for lo in range(0, 50, 7):
        basis.add_rows(rows[lo : lo + 7])
    assert basis.rank == gf_rank(rows, 2)


def test_is_linear_non_power_size():
    words = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    assert not is_linear(PAryCode(2, 2, words))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_of_linear_code_is_code():
    gray = gray_of(TypeSignature(2, 3, (1, 0, 1)))
    k = kernel(gray)
    assert k.same_set(gray)


@pytest.mark.parametrize(
    "sig,ksize",
    [
        (TypeSignature(3, 2, (1, 1)), 9),
        (TypeSignature(2, 3, (1, 1, 1)), 8),
        (TypeSignature(2, 3, (2, 0, 1)), 8),
    ],
)
def test_kernel_sizes_match_reference(sig, ksize):
    gray = gray_of(sig)
    k = kernel(gray, seed=11)
    assert len(k) == ksize
    assert {tuple(w) for w in k.words.tolist()} == reference_kernel(gray)


@st.composite
def coset_unions(draw):
    """C = span(V) + S over Z_p^n for a few random vectors V and a random
    word set S holding zero, so that span(V) lies in the kernel."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    word = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    vecs = np.array(draw(st.lists(word, min_size=1, max_size=2)), dtype=np.uint8)
    extra = np.array(draw(st.lists(word, min_size=1, max_size=5)), dtype=np.uint8)
    shifts = np.vstack([np.zeros((1, n), dtype=np.uint8), extra])
    sub = gf_span_words(vecs, p)
    words = (sub[:, None, :].astype(np.int64) + shifts[None, :, :]) % p
    words = np.unique(words.reshape(-1, n).astype(np.uint8), axis=0)
    return PAryCode(p, n, words)


@settings(max_examples=80, deadline=None)
@given(coset_unions(), st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_on_word_sets(code, seed):
    ref = reference_kernel(code)
    # a nonzero kernel word is settled only by a verified candidate, and a
    # word outside the kernel only by a witness: make both happen
    assume(1 < len(ref) < len(code))
    k = kernel(code, seed=seed)
    assert {tuple(w) for w in k.words.tolist()} == ref
    assert k.same_set(kernel(code, seed=0))


def test_kernel_of_word_set_over_a_prime_above_128():
    # C = span(v) + {0, u} has kernel span(v).  Every nonzero multiple of
    # v = (1, ..., p-1) has an entry p-1, so each x + x sums past 255.
    p = 131
    sub = gf_span_words(np.arange(1, p, dtype=np.uint8)[None, :], p)
    u = (np.arange(p - 1) == 0).astype(np.int64)
    words = np.vstack([sub, (sub + u) % p]).astype(np.uint8)
    code = PAryCode(p, p - 1, words)
    k = kernel(code)
    assert len(k) == p
    assert {tuple(w) for w in k.words.tolist()} == reference_kernel(code)


def test_kernel_requires_zero_word():
    words = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        kernel(PAryCode(2, 2, words))


def test_kernel_cap():
    gray = gray_of(TypeSignature(2, 3, (2, 0, 1)))
    with pytest.raises(ResourceLimitError):
        kernel(gray, cap=64)


def test_kernel_equals_gray_of_low_order_subcode():
    for sig in (TypeSignature(3, 2, (1, 1)), TypeSignature(2, 3, (2, 0, 1))):
        code = span(build(sig))
        gray = gray_image(code)
        k = kernel(gray)
        assert k.same_set(gray_image(order_p_subcode(code)))


def test_kernel_basis_span_and_independence():
    for sig in (TypeSignature(3, 2, (1, 1)), TypeSignature(2, 3, (2, 0, 1))):
        a = build(sig)
        vecs = kernel_basis(a)
        assert gf_rank(vecs, sig.p) == sig.num_rows
        spanned = PAryCode(sig.p, vecs.shape[1], gf_span_words(vecs, sig.p))
        assert spanned.same_set(kernel(gray_of(sig)))


def test_kernel_basis_rejects_linear():
    with pytest.raises(ValueError):
        kernel_basis(build(TypeSignature(2, 3, (1, 0, 1))))


# ---------------------------------------------------------------------------
# classification and replay
# ---------------------------------------------------------------------------

def test_expected_linear_classification():
    assert expected_linear(TypeSignature(2, 3, (1, 0, 1)))
    assert expected_linear(TypeSignature(2, 2, (1, 5)))
    assert not expected_linear(TypeSignature(2, 3, (2, 0, 1)))
    assert not expected_linear(TypeSignature(2, 3, (1, 1, 1)))
    assert not expected_linear(TypeSignature(3, 2, (1, 1)))


def test_verify_theorems_linear_example():
    r = verify_theorems(TypeSignature(2, 3, (1, 0, 1)))
    assert r.ok and r.is_gh and r.is_linear
    assert (r.size, r.n, r.min_distance) == (16, 8, 4)
    assert r.kernel_dim == 4 and r.rank == 4


def test_verify_theorems_nonlinear_examples():
    r = verify_theorems(TypeSignature(2, 3, (2, 0, 1)))
    assert r.ok and r.is_gh and not r.is_linear and r.kernel_dim == 3
    r = verify_theorems(TypeSignature(3, 2, (1, 1)))
    assert r.ok and not r.is_linear
    assert (r.kernel_dim, r.min_distance) == (2, 6)


def test_verify_theorems_byte_edge_signature():
    # p^s = 243: two reduced entries can sum past 255 in the uint8 span
    r = verify_theorems(TypeSignature(3, 5, (1, 0, 0, 0, 1)))
    assert r.ok and r.min_distance == 162


def test_verify_theorems_large_code_path():
    r = verify_theorems(TypeSignature(3, 2, (1, 6)), quad_cap=2**12)
    assert r.size == 3**8 and r.min_distance_method == "character-sum"
    assert r.rank_method == "exact"
    assert r.ok and not r.is_linear and r.kernel_dim == 7
    assert any("kernel_theorem" in s for s in r.skipped)


def test_report_serialization_stable():
    r = verify_theorems(TypeSignature(3, 2, (1, 1)))
    d = r.to_json_dict()
    for key in (
        "signature", "shape", "n", "size", "min_distance", "is_gh",
        "is_linear", "kernel_dim", "rank", "checks", "ok",
    ):
        assert key in d
    assert d["ok"] is True
    table = r.to_table()
    assert "kernel_dim" in table and "PASS" in table
