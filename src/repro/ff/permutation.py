"""Vertex-ID randomisation methods (Section V-C of the paper).

Randomised Contraction needs, at every contraction round, a fresh random (or
pseudo-random) ordering of the current vertex IDs.  The paper describes
three practical ways of getting one, all reproduced here:

``random reals``
    Draw one uniform real per vertex and order vertices by it.  This gives
    *full randomisation* (a uniform permutation) and hence the stronger
    Appendix-B contraction bound, but the random table must be shipped to
    every node of the cluster.  In SQL this is a *table strategy*: the round
    function exists only as a per-vertex table that queries join against.

``encryption``
    Encrypt vertex IDs with Blowfish under a fresh random key.  A bijection
    by construction; only the key crosses the network.  A *pointwise
    strategy*: usable as a scalar SQL expression.

``finite fields``
    ``h_i(w) = A_i*w + B_i`` over GF(2^64) (or GF(p) in an SQL-only
    setting), with ``A_i != 0`` drawn per round.  Also pointwise, much
    cheaper than encryption, and — unlike encryption — *affine*, which is
    what lets the fast Figure-4 variant collapse the stack of per-round
    relabellings into a single accumulated ``(A, B)`` pair.

An ``identity`` method (no randomisation) is included to reproduce the
worst-case demonstrations of Figure 2 and Section IV.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blowfish import Blowfish
from .gf2_64 import (
    MASK64,
    Gf2AffineMap,
    gf2_axplusb,
    gf2_mul,
    to_signed,
    to_unsigned,
)
from .gfp import MERSENNE_31, GfpAffineMap

#: Strategy tag: the round function can be evaluated pointwise as an SQL
#: scalar expression.
POINTWISE = "pointwise"
#: Strategy tag: the round function only exists as a materialised per-vertex
#: random table that queries must join against.
TABLE = "table"


@dataclass(frozen=True)
class AffineField:
    """The handful of field operations Figure 4 needs for key accumulation.

    The fast variant composes per-round affine maps back-to-front:
    ``(A, B) <- (A*alpha, A*beta + B)``.  Only multiplication and addition
    in the underlying field are required.
    """

    name: str
    mul: Callable[[int, int], int]
    add: Callable[[int, int], int]
    one: int
    zero: int


GF2_64_FIELD = AffineField(
    name="GF(2^64)",
    mul=gf2_mul,
    add=lambda a, b: (a ^ b) & MASK64,
    one=1,
    zero=0,
)


def gfp_field(p: int) -> AffineField:
    """Return the :class:`AffineField` view of GF(p)."""
    return AffineField(
        name=f"GF({p})",
        mul=lambda a, b: (a * b) % p,
        add=lambda a, b: (a + b) % p,
        one=1,
        zero=0,
    )


class RoundFunction(ABC):
    """One round's bijection ``h_i`` over the vertex-ID domain."""

    #: ``POINTWISE`` or ``TABLE``.
    strategy: str

    @abstractmethod
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``h_i`` on an array of vertex IDs."""

    @abstractmethod
    def apply_scalar(self, x: int) -> int | float:
        """Evaluate ``h_i`` on one vertex ID (reference path)."""


class PointwiseRound(RoundFunction):
    """A round function usable as a scalar SQL expression."""

    strategy = POINTWISE

    @abstractmethod
    def sql_expr(self, column: str) -> str:
        """Render ``h_i(column)`` as an SQL expression string."""

    #: Set for affine rounds: the (a, b) pair and its field, enabling the
    #: Figure-4 key-stack accumulation.  ``None`` for non-affine rounds
    #: (encryption), which must use the Figure-3 composition instead.
    affine: Optional[tuple[int, int, AffineField]] = None


class FiniteFieldRound(PointwiseRound):
    """``h(x) = A*x + B`` over GF(2^64); the paper's headline method."""

    def __init__(self, a: int, b: int):
        self.a = to_unsigned(a)
        self.b = to_unsigned(b)
        if self.a == 0:
            raise ValueError("A must be non-zero so that h is a bijection")
        self.affine = (self.a, self.b, GF2_64_FIELD)
        #: Built on first :meth:`apply`: the SQL driver evaluates ``h``
        #: through the ``axplusb`` UDF and never asks the round itself.
        self._map: Optional[Gf2AffineMap] = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self._map is None:
            self._map = Gf2AffineMap(self.a, self.b)
        return self._map.apply(x)

    def apply_scalar(self, x: int) -> int:
        return gf2_axplusb(self.a, x, self.b)

    def sql_expr(self, column: str) -> str:
        return f"axplusb({to_signed(self.a)}, {column}, {to_signed(self.b)})"


class PrimeFieldRound(PointwiseRound):
    """``h(x) = (A*x + B) mod p``; the SQL-only finite-field alternative."""

    def __init__(self, a: int, b: int, p: int):
        self._map = GfpAffineMap(a, b, p)
        self.a = self._map.a
        self.b = self._map.b
        self.p = p
        self.affine = (self.a, self.b, gfp_field(p))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._map.apply(x)

    def apply_scalar(self, x: int) -> int:
        return self._map.apply_scalar(x)

    def sql_expr(self, column: str) -> str:
        return f"axbmodp({self.a}, {column}, {self.b}, {self.p})"


class EncryptionRound(PointwiseRound):
    """``h(x) = Blowfish_k(x)``; pseudo-random but not affine."""

    def __init__(self, key: int):
        self.key = key & MASK64
        self._cipher = Blowfish.from_round_key(self.key)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._cipher.encrypt_vector(x)

    def apply_scalar(self, x: int) -> int:
        return self._cipher.encrypt_block(to_unsigned(x))

    def sql_expr(self, column: str) -> str:
        return f"blowfish({to_signed(self.key)}, {column})"


class IdentityRound(PointwiseRound):
    """``h(x) = x``; deliberately defeats randomisation for worst-case demos."""

    def __init__(self) -> None:
        self.affine = (1, 0, GF2_64_FIELD)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x, dtype=np.uint64)

    def apply_scalar(self, x: int) -> int:
        return to_unsigned(x)

    def sql_expr(self, column: str) -> str:
        return column


class RandomRealsRound(RoundFunction):
    """Uniform random reals per vertex: full randomisation, table strategy.

    The round function is realised lazily: :meth:`values_for` draws the
    random reals for the vertex set of the current contraction round, which
    is exactly the table the SQL implementation materialises and joins
    against.  Scalar/array ``apply`` memoise draws so repeated queries see a
    consistent function, mirroring a materialised database table.
    """

    strategy = TABLE

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._memo: dict[int, float] = {}

    def values_for(self, vertices: np.ndarray) -> np.ndarray:
        """Draw (and memoise) uniform [0, 1) reals for the given vertices."""
        vertices = np.ascontiguousarray(vertices, dtype=np.int64)
        values = np.empty(vertices.shape[0], dtype=np.float64)
        for i, v in enumerate(vertices.tolist()):
            if v not in self._memo:
                self._memo[v] = float(self._rng.random())
            values[i] = self._memo[v]
        return values

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.values_for(np.asarray(x).astype(np.int64))

    def apply_scalar(self, x: int) -> float:
        return float(self.values_for(np.array([x], dtype=np.int64))[0])


class RandomisationMethod(ABC):
    """Factory for per-round vertex-ID randomisation functions."""

    #: Human-readable method name, used in reports and ablation tables.
    name: str
    #: ``POINTWISE`` or ``TABLE``; decides which SQL formulation RC uses.
    strategy: str

    @abstractmethod
    def new_round(self, rng: random.Random) -> RoundFunction:
        """Draw the randomness for one contraction round."""


class FiniteFieldMethod(RandomisationMethod):
    """GF(2^64) affine maps — the paper's recommended method."""

    name = "finite-fields"
    strategy = POINTWISE

    def new_round(self, rng: random.Random) -> FiniteFieldRound:
        a = 0
        while a == 0:
            a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        return FiniteFieldRound(a, b)

    def affine_sql(self, a: int, b: int, column: str) -> str:
        """SQL for an accumulated affine pair (Figure 4's key stack)."""
        return f"axplusb({to_signed(a)}, {column}, {to_signed(b)})"


class PrimeFieldMethod(RandomisationMethod):
    """GF(p) affine maps — the SQL-only variant (vertex IDs must be < p)."""

    name = "prime-field"
    strategy = POINTWISE

    def __init__(self, p: int = MERSENNE_31):
        self.p = p

    def new_round(self, rng: random.Random) -> PrimeFieldRound:
        a = rng.randrange(1, self.p)
        b = rng.randrange(0, self.p)
        return PrimeFieldRound(a, b, self.p)

    def affine_sql(self, a: int, b: int, column: str) -> str:
        """SQL for an accumulated affine pair (Figure 4's key stack)."""
        return f"axbmodp({a % self.p}, {column}, {b % self.p}, {self.p})"


class EncryptionMethod(RandomisationMethod):
    """Blowfish encryption of vertex IDs under a fresh key per round."""

    name = "encryption"
    strategy = POINTWISE

    def new_round(self, rng: random.Random) -> EncryptionRound:
        return EncryptionRound(rng.getrandbits(64))


class RandomRealsMethod(RandomisationMethod):
    """One uniform random real per vertex per round (full randomisation)."""

    name = "random-reals"
    strategy = TABLE

    def new_round(self, rng: random.Random) -> RandomRealsRound:
        return RandomRealsRound(rng.getrandbits(63))


class IdentityMethod(RandomisationMethod):
    """No randomisation at all; exists to exhibit the worst cases."""

    name = "identity"
    strategy = POINTWISE

    def new_round(self, rng: random.Random) -> IdentityRound:
        return IdentityRound()

    def affine_sql(self, a: int, b: int, column: str) -> str:
        """Identity rounds are (1, 0) over GF(2^64); any accumulation of
        them stays (1, 0), so this is always the identity expression."""
        return f"axplusb({to_signed(a)}, {column}, {to_signed(b)})"


_METHODS: dict[str, Callable[[], RandomisationMethod]] = {
    "finite-fields": FiniteFieldMethod,
    "prime-field": PrimeFieldMethod,
    "encryption": EncryptionMethod,
    "random-reals": RandomRealsMethod,
    "identity": IdentityMethod,
}


def get_method(name: str) -> RandomisationMethod:
    """Look up a randomisation method by its registry name."""
    try:
        factory = _METHODS[name]
    except KeyError:
        known = ", ".join(sorted(_METHODS))
        raise ValueError(f"unknown randomisation method {name!r}; known: {known}")
    return factory()


def method_names() -> list[str]:
    """Names of all registered randomisation methods."""
    return sorted(_METHODS)
