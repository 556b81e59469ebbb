"""Arithmetic over the finite field GF(2^64).

This is the field the paper's "finite fields method" uses for randomising
vertex IDs (Section V-C).  Elements are 64-bit integers interpreted as
polynomials over GF(2); multiplication is carry-less polynomial
multiplication reduced modulo the irreducible polynomial

    x^64 + x^4 + x^3 + x + 1        (low word 0x1b)

which is the exact polynomial used by the paper's C user-defined function
``axplusb`` (Appendix A, Figure 7).

Two call styles are provided:

* scalar functions on Python ints (``gf2_mul``, ``gf2_axplusb``, ...), which
  mirror the C code bit-for-bit and serve as the reference implementation;
* a vectorised evaluator (:class:`Gf2AffineMap`) that applies
  ``h(x) = A*x + B`` to whole numpy arrays using 8-bit table lookups.  This
  is what the SQL engine's ``axplusb`` UDF uses so that a contraction round
  over millions of edges stays fast.

All values are canonically represented as *unsigned* 64-bit integers
(``0 <= value < 2**64``).  Helpers convert to/from the signed int64 view
used for database storage.
"""

from __future__ import annotations

import numpy as np

#: Low bits of the irreducible reduction polynomial x^64 + x^4 + x^3 + x + 1.
IRREDUCIBLE_POLY = 0x1B

#: Mask selecting 64 bits.
MASK64 = (1 << 64) - 1

#: Batch size from which :meth:`Gf2AffineMap.apply` builds (once per map,
#: under a millisecond) and uses its 65 536-entry tables; smaller batches
#: would not win the build back.
WIDE_TABLE_MIN_VALUES = 1 << 16


def to_unsigned(value: int) -> int:
    """Map a signed or unsigned 64-bit integer to its unsigned residue."""
    return value & MASK64


def to_signed(value: int) -> int:
    """Map an unsigned 64-bit integer to the equivalent signed int64."""
    value &= MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def gf2_xtime(a: int) -> int:
    """Multiply ``a`` by x (i.e. shift left) and reduce modulo the polynomial."""
    a = to_unsigned(a)
    if a >> 63:
        return ((a << 1) ^ IRREDUCIBLE_POLY) & MASK64
    return (a << 1) & MASK64


def gf2_mul(a: int, x: int) -> int:
    """Carry-less product ``a * x`` in GF(2^64).

    This is the shift-and-add loop of the paper's C function, Figure 7.
    """
    a = to_unsigned(a)
    x = to_unsigned(x)
    result = 0
    while x:
        if x & 1:
            result ^= a
        x >>= 1
        # gf2_xtime inlined: a call per bit would cost more than the loop.
        a = ((a << 1) ^ IRREDUCIBLE_POLY) & MASK64 if a >> 63 else a << 1
    return result


def gf2_axplusb(a: int, x: int, b: int) -> int:
    """Affine map ``a*x + b`` over GF(2^64) (addition is XOR)."""
    return gf2_mul(a, x) ^ to_unsigned(b)


def gf2_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to a non-negative integer power by square-and-multiply."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = 1
    base = to_unsigned(a)
    while exponent:
        if exponent & 1:
            result = gf2_mul(result, base)
        base = gf2_mul(base, base)
        exponent >>= 1
    return result


def gf2_inv(a: int) -> int:
    """Multiplicative inverse in GF(2^64).

    Uses Fermat's little theorem for the field of order q = 2^64:
    ``a^(q-2)`` is the inverse of any non-zero ``a``.
    """
    a = to_unsigned(a)
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^64)")
    return gf2_pow(a, (1 << 64) - 2)


def _basis_products(a: int) -> list[int]:
    """Return ``a * x^k`` for ``k = 0..63`` (the row basis of multiplication)."""
    products = []
    value = to_unsigned(a)
    for _ in range(64):
        products.append(value)
        value = ((value << 1) ^ IRREDUCIBLE_POLY) & MASK64 if value >> 63 \
            else value << 1
    return products


class Gf2AffineMap:
    """Vectorised evaluator for ``h(x) = A*x + B`` over GF(2^64).

    Multiplication by a constant ``A`` is GF(2)-linear in ``x``, so the map
    decomposes into one 256-entry lookup table per byte of ``x``:

        A * x = XOR over bytes j of  T_j[ byte_j(x) ]

    Building the 8 tables costs a few thousand scalar operations once per
    contraction round; applying the map is then 8 ``np.take`` gathers plus
    XORs per batch, which is what makes the finite-fields method practical
    in a Python-hosted engine.  The first :meth:`apply` with a value to
    map builds the tables: a contraction's composition map often sees none.
    """

    def __init__(self, a: int, b: int):
        a = to_unsigned(a)
        if a == 0:
            raise ValueError("A must be non-zero so that h is a bijection")
        self.a = a
        self.b = to_unsigned(b)
        self._tables: np.ndarray | None = None
        self._wide_tables: np.ndarray | None = None

    def _byte_tables(self) -> np.ndarray:
        if self._tables is None:
            # basis[2j + h, bit] = a * x^(8j + 4h + bit).  The 16 nibble
            # spans double together (entries with bit b set are those without
            # it, XOR that bit's value); byte j's table is its high span XOR
            # its low span, broadcast (37 against 52 us doubling bytes).
            basis = np.array(_basis_products(self.a),
                             dtype=np.uint64).reshape(16, 4)
            spans = np.zeros((16, 16), dtype=np.uint64)
            for bit in range(4):
                stride = 1 << bit
                np.bitwise_xor(spans[:, :stride], basis[:, bit, None],
                               out=spans[:, stride: 2 * stride])
            self._tables = (spans[1::2, :, None] ^ spans[0::2, None, :]) \
                .reshape(8, 256)
        return self._tables

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply ``h`` to an array of unsigned 64-bit integers."""
        x = np.ascontiguousarray(x, dtype=np.uint64)
        result = np.full(x.shape, np.uint64(self.b), dtype=np.uint64)
        if x.size == 0:
            return result
        if x.size >= WIDE_TABLE_MIN_VALUES:
            # Four gathers per value instead of eight: 36.8 -> 17.5 ns/row.
            tables, bits = self._wide_tables, 16
            if tables is None:
                # T16_j[hi << 8 | lo] = T_2j[lo] ^ T_2j+1[hi]
                byte = self._byte_tables()
                tables = self._wide_tables = (
                    byte[1::2, :, None] ^ byte[0::2, None, :]
                ).reshape(4, 1 << 16)
        else:
            tables, bits = self._byte_tables(), 8
        # Little-endian layout puts lane j's bits in column j.  A lane that
        # is zero in every value adds T_j[0] = 0: skip it (ids below 2^32
        # take half the gathers).
        # Every lane is gathered into one reused buffer, not a fresh array
        # per lane.  ``mode="clip"`` never clips — a lane addresses all of
        # its table — but spares ``np.take`` the bounds-checked copy it
        # makes into ``out`` otherwise (500k values: 9.3 ms fresh, 22.5
        # checked, 5.6 clipped).
        lanes = x.astype("<u8", copy=False).view(f"<u{bits // 8}") \
            .reshape(-1, 64 // bits)
        occupied = int(np.bitwise_or.reduce(x, axis=None))
        flat = result.reshape(-1)
        gathered = np.empty_like(flat)
        for j in range(64 // bits):
            if occupied >> (bits * j) & ((1 << bits) - 1):
                np.take(tables[j], lanes[:, j], out=gathered, mode="clip")
                flat ^= gathered
        return result

    def apply_scalar(self, x: int) -> int:
        """Apply ``h`` to a single integer (reference path, for testing)."""
        return gf2_axplusb(self.a, x, self.b)

    def inverse(self) -> "Gf2AffineMap":
        """Return the inverse affine map ``h^-1(y) = A^-1 * (y + B)``."""
        a_inv = gf2_inv(self.a)
        return Gf2AffineMap(a_inv, gf2_mul(a_inv, self.b))
