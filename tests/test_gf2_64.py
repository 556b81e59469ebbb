"""Tests for GF(2^64) arithmetic — the paper's axplusb substrate."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ff.gf2_64 import (
    IRREDUCIBLE_POLY,
    MASK64,
    WIDE_TABLE_MIN_VALUES,
    Gf2AffineMap,
    _basis_products,
    gf2_axplusb,
    gf2_inv,
    gf2_mul,
    gf2_pow,
    gf2_xtime,
    to_signed,
    to_unsigned,
)

uint64s = st.integers(min_value=0, max_value=MASK64)
nonzero_uint64s = st.integers(min_value=1, max_value=MASK64)


def c_reference_axplusb(a: int, x: int, b: int) -> int:
    """Literal transcription of the paper's C UDF (Figure 7)."""
    r = 0
    a &= MASK64
    x &= MASK64
    while x:
        if x & 1:
            r ^= a
        x = (x >> 1) & 0x7FFFFFFFFFFFFFFF
        if a & (1 << 63):
            a = ((a << 1) ^ 0x1B) & MASK64
        else:
            a = (a << 1) & MASK64
    return (r ^ b) & MASK64


def test_irreducible_polynomial_matches_paper():
    # x^64 + x^4 + x^3 + x + 1 has low word 0b11011 = 0x1b.
    assert IRREDUCIBLE_POLY == 0x1B


@given(uint64s, uint64s, uint64s)
def test_matches_transcribed_c_reference(a, x, b):
    assert gf2_axplusb(a, x, b) == c_reference_axplusb(a, x, b)


def test_multiplicative_identity():
    for x in (0, 1, 2, 0xDEADBEEF, MASK64):
        assert gf2_mul(1, x) == x
        assert gf2_mul(x, 1) == x


def test_zero_annihilates():
    assert gf2_mul(0, 12345) == 0
    assert gf2_mul(12345, 0) == 0


@given(uint64s, uint64s)
def test_multiplication_commutes(a, b):
    assert gf2_mul(a, b) == gf2_mul(b, a)


@given(uint64s, uint64s, uint64s)
def test_multiplication_associates(a, b, c):
    assert gf2_mul(gf2_mul(a, b), c) == gf2_mul(a, gf2_mul(b, c))


@given(uint64s, uint64s, uint64s)
def test_distributes_over_xor(a, b, c):
    assert gf2_mul(a, b ^ c) == gf2_mul(a, b) ^ gf2_mul(a, c)


def test_xtime_is_multiplication_by_two():
    for a in (1, 5, 1 << 63, 0xFFFFFFFFFFFFFFFF):
        assert gf2_xtime(a) == gf2_mul(2, a)


@given(nonzero_uint64s)
def test_inverse_is_two_sided(a):
    inv = gf2_inv(a)
    assert gf2_mul(a, inv) == 1
    assert gf2_mul(inv, a) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf2_inv(0)


def test_pow_small_cases():
    assert gf2_pow(7, 0) == 1
    assert gf2_pow(7, 1) == 7
    assert gf2_pow(7, 2) == gf2_mul(7, 7)
    assert gf2_pow(7, 3) == gf2_mul(7, gf2_mul(7, 7))


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        gf2_pow(3, -1)


def test_field_order():
    # a^(2^64 - 1) == 1 for any non-zero a (Lagrange).
    for a in (2, 3, 0x123456789ABCDEF):
        assert gf2_pow(a, (1 << 64) - 1) == 1


@given(nonzero_uint64s, uint64s)
def test_affine_map_vector_matches_scalar(a, b):
    mapping = Gf2AffineMap(a, b)
    xs = np.array([0, 1, 2, 3, 1 << 32, MASK64], dtype=np.uint64)
    vector = mapping.apply(xs)
    for i, x in enumerate(xs.tolist()):
        assert int(vector[i]) == mapping.apply_scalar(x)


@given(nonzero_uint64s, uint64s)
def test_affine_map_inverse_roundtrip(a, b):
    mapping = Gf2AffineMap(a, b)
    xs = np.arange(64, dtype=np.uint64) * np.uint64(0x123456789)
    assert np.array_equal(mapping.inverse().apply(mapping.apply(xs)), xs)


def test_affine_map_is_injective_on_sample():
    mapping = Gf2AffineMap(0xABCDEF0123456789, 42)
    xs = np.arange(10_000, dtype=np.uint64)
    assert len(set(mapping.apply(xs).tolist())) == 10_000


@pytest.mark.parametrize("a,b", [(3, 7), (0xABCDEF0123456789, MASK64),
                                 (1 << 63, 0)])
def test_affine_map_large_batches_match_small_ones(a, b):
    """From ``WIDE_TABLE_MIN_VALUES`` values a batch goes through the
    16-bit tables; below it through the byte tables.  Same bits."""
    mapping = Gf2AffineMap(a, b)
    n = WIDE_TABLE_MIN_VALUES
    xs = np.random.default_rng(a % 1000).integers(
        0, 1 << 64, size=n, dtype=np.uint64)
    xs[:4] = [0, 1, 0xFFFF, MASK64]
    large = mapping.apply(xs)
    assert mapping._wide_tables is not None
    small = np.concatenate([mapping.apply(xs[:n // 2]),
                            mapping.apply(xs[n // 2:])])
    assert np.array_equal(large, small)
    for i in (0, 1, 2, 3, n - 1):
        assert int(large[i]) == mapping.apply_scalar(int(xs[i]))
    # Signed storage and other shapes take the same route.
    assert np.array_equal(mapping.apply(xs.view(np.int64)), large)
    assert np.array_equal(mapping.apply(xs.reshape(256, -1)),
                          large.reshape(256, -1))
    assert np.array_equal(mapping.apply(np.repeat(xs, 2)[::2]), large)


class _CountingRows:
    """The wide tables, recording which lane's table a batch reads."""

    def __init__(self, rows):
        self.rows = rows
        self.read: list[int] = []

    def __getitem__(self, lane):
        self.read.append(lane)
        return self.rows[lane]


@pytest.mark.parametrize("high_lanes, read", [
    (0, [0, 1]),            # ids below 2^32: two gathers
    (1 << 63, [0, 1, 3]),   # one value reaches the top lane
    (MASK64, [0, 1, 2, 3]),
])
def test_affine_map_skips_lanes_zero_in_every_value(high_lanes, read):
    """A 16-bit lane that is zero in every value adds nothing: the wide
    path skips its gather and still matches the byte tables and the
    scalar reference."""
    mapping = Gf2AffineMap(0xABCDEF0123456789, 0x1234)
    n = WIDE_TABLE_MIN_VALUES
    xs = np.random.default_rng(5).integers(0, 1 << 32, size=n,
                                           dtype=np.uint64)
    xs[:3] = [0, 0xFFFFFFFF, high_lanes]
    mapping.apply(xs)  # builds the wide tables
    rows = mapping._wide_tables = _CountingRows(mapping._wide_tables)
    large = mapping.apply(xs)
    assert rows.read == read
    small = np.concatenate([mapping.apply(xs[:n // 2]),
                            mapping.apply(xs[n // 2:])])
    assert rows.read == read  # the byte tables served the halves
    assert np.array_equal(large, small)
    for i in (0, 1, 2, 3, n - 1):
        assert int(large[i]) == mapping.apply_scalar(int(xs[i]))


def test_affine_map_top_lane_alone_matches_scalar():
    """Values whose only non-zero 16-bit lane is the top one: the wide
    path skips the three low lanes, so its one gather fills the reused
    buffer — nothing a skipped lane left in it may reach the result."""
    mapping = Gf2AffineMap(0xABCDEF0123456789, 0x1234)
    n = WIDE_TABLE_MIN_VALUES
    xs = np.random.default_rng(11).integers(1, 1 << 16, size=n,
                                            dtype=np.uint64) << np.uint64(48)
    xs[:3] = [1 << 48, 0xFFFF << 48, 1 << 63]
    large = mapping.apply(xs)
    assert mapping._wide_tables is not None
    small = np.concatenate([mapping.apply(xs[:n // 2]),
                            mapping.apply(xs[n // 2:])])
    assert np.array_equal(large, small)
    for i in (*range(64), n - 1):
        assert int(large[i]) == mapping.apply_scalar(int(xs[i]))


@pytest.fixture(scope="module")
def boundary_batch():
    """A map, 2^16 values (every lane width set somewhere, zero and the
    top bit among them) and the scalar reference image of each."""
    mapping = Gf2AffineMap(0xF0E1D2C3B4A59687, 0x0123456789ABCDEF)
    xs = np.random.default_rng(17).integers(
        0, 1 << 64, size=WIDE_TABLE_MIN_VALUES, dtype=np.uint64)
    xs[:6] = [0, 1, 0xFF, 0xFFFF, 1 << 63, MASK64]
    xs[7:1000:3] >>= np.uint64(40)  # short ids: high lanes zero
    return mapping, xs, [mapping.apply_scalar(x) for x in xs.tolist()]


@pytest.mark.parametrize("n", [0, 1, 7, 1000, WIDE_TABLE_MIN_VALUES - 1,
                               WIDE_TABLE_MIN_VALUES])
def test_affine_map_matches_scalar_on_either_side_of_the_wide_path(
        boundary_batch, n):
    """Both lane widths — bytes below ``WIDE_TABLE_MIN_VALUES`` values,
    16 bits from it — give the scalar reference's bits, for unsigned
    input, its signed int64 view and a non-contiguous view."""
    mapping, xs, reference = boundary_batch
    xs = xs[:n].copy()
    for form in (xs, xs.view(np.int64), np.repeat(xs, 2)[::2]):
        image = mapping.apply(form)
        assert image.dtype == np.uint64 and image.shape == (n,)
        assert image.tolist() == reference[:n]


@pytest.mark.parametrize("a", [1, 0x1B, 1 << 63, MASK64,
                               *np.random.default_rng(3).integers(
                                   1, 1 << 64, size=4,
                                   dtype=np.uint64).tolist()])
def test_basis_products_are_repeated_xtime(a):
    expected, value = [], a
    for _ in range(64):
        expected.append(value)
        value = gf2_xtime(value)
    assert _basis_products(a) == expected


def test_affine_map_rejects_zero_a():
    with pytest.raises(ValueError):
        Gf2AffineMap(0, 1)


def test_affine_map_accepts_int64_input():
    mapping = Gf2AffineMap(3, 7)
    signed = np.array([-1, -2, 5], dtype=np.int64)
    out = mapping.apply(signed)
    assert int(out[2]) == mapping.apply_scalar(5)
    assert int(out[0]) == mapping.apply_scalar(MASK64)


@given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
def test_signed_unsigned_roundtrip(x):
    assert to_signed(to_unsigned(x)) == x


@given(uint64s)
def test_unsigned_signed_roundtrip(x):
    assert to_unsigned(to_signed(x)) == x
