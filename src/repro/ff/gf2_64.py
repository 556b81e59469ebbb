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
        a = gf2_xtime(a)
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
        value = gf2_xtime(value)
    return products


class Gf2AffineMap:
    """Vectorised evaluator for ``h(x) = A*x + B`` over GF(2^64).

    Multiplication by a constant ``A`` is GF(2)-linear in ``x``, so the map
    decomposes into one 256-entry lookup table per byte of ``x``:

        A * x = XOR over bytes j of  T_j[ byte_j(x) ]

    Building the 8 tables costs a few thousand scalar operations once per
    contraction round; applying the map is then 8 ``np.take`` gathers plus
    XORs per batch, which is what makes the finite-fields method practical
    in a Python-hosted engine.
    """

    def __init__(self, a: int, b: int):
        a = to_unsigned(a)
        if a == 0:
            raise ValueError("A must be non-zero so that h is a bijection")
        self.a = a
        self.b = to_unsigned(b)
        # basis[j, bit] = a * x^(8j + bit): byte j's table is the XOR of the
        # basis values its index bits select, so all eight tables double
        # together — entries with bit ``b`` set are the entries without it,
        # XOR that bit's value.
        basis = np.array(_basis_products(a), dtype=np.uint64).reshape(8, 8)
        tables = np.zeros((8, 256), dtype=np.uint64)
        for bit in range(8):
            stride = 1 << bit
            tables[:, stride: 2 * stride] = \
                tables[:, :stride] ^ basis[:, bit, None]
        self._tables = tables
        self._wide_tables: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply ``h`` to an array of unsigned 64-bit integers."""
        x = np.ascontiguousarray(x, dtype=np.uint64)
        result = np.full(x.shape, np.uint64(self.b), dtype=np.uint64)
        if x.size >= WIDE_TABLE_MIN_VALUES:
            # Four gathers per value instead of eight: 36.8 -> 17.5 ns/row.
            wide = self._wide_tables
            if wide is None:
                # T16_j[hi << 8 | lo] = T_2j[lo] ^ T_2j+1[hi]
                wide = self._wide_tables = (
                    self._tables[1::2, :, None] ^ self._tables[0::2, None, :]
                ).reshape(4, 1 << 16)
            # Little-endian layout puts bits 16j..16j+15 in column j.  A
            # lane that is zero in every value adds T16_j[0] = 0: skip it
            # (ids below 2^32 take two gathers).
            # Every lane is gathered into one reused buffer, not a fresh
            # array per lane.  ``mode="clip"`` never clips — a 16-bit lane
            # addresses all of its table — but spares ``np.take`` the
            # bounds-checked copy it makes into ``out`` otherwise
            # (500k values: 9.3 ms fresh, 22.5 checked, 5.6 clipped).
            words = x.astype("<u8", copy=False).view("<u2").reshape(-1, 4)
            occupied = int(np.bitwise_or.reduce(x, axis=None))
            flat = result.reshape(-1)
            gathered = np.empty_like(flat)
            for j in range(4):
                if occupied >> (16 * j) & 0xFFFF:
                    np.take(wide[j], words[:, j], out=gathered, mode="clip")
                    flat ^= gathered
            return result
        for j in range(8):
            byte = (x >> np.uint64(8 * j)).astype(np.uint8)
            result ^= self._tables[j][byte]
        return result

    def apply_scalar(self, x: int) -> int:
        """Apply ``h`` to a single integer (reference path, for testing)."""
        return gf2_axplusb(self.a, x, self.b)

    def inverse(self) -> "Gf2AffineMap":
        """Return the inverse affine map ``h^-1(y) = A^-1 * (y + B)``."""
        a_inv = gf2_inv(self.a)
        return Gf2AffineMap(a_inv, gf2_mul(a_inv, self.b))
