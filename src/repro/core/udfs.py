"""User-defined SQL functions backing the randomisation methods.

The paper loads a C function ``axplusb`` into HAWQ (Appendix A, Figure 7)
to evaluate GF(2^64) affine maps inside queries.  This module registers the
equivalent (numpy-vectorised) functions with our engine:

* ``axplusb(A, x, B)``  — GF(2^64) affine map, the paper's UDF;
* ``axbmodp(A, x, B, p)`` — the GF(p) "SQL-only" alternative;
* ``blowfish(key, x)``  — the encryption method's pseudo-random bijection.

Constant arguments arrive once per query as Python scalars, so per-constant
preparation (the GF(2^64) byte tables, the Blowfish key schedule) is cached
across calls exactly like a C UDF would keep state per prepared statement.

All three are registered ``immutable=True`` — each is a function of its
arguments alone — so over an edge column the engine evaluates them once
per distinct vertex id rather than once per edge row: over the
dictionary of an encoded column (every round's edge columns are), not
again for the group keys of the same statement or a later call over the
same vertex set, and not at all over zero rows (see
:mod:`repro.sqlengine.functions`).  Column arguments arrive as int64 and
are reinterpreted as uint64 in place, without a copy.
"""

from __future__ import annotations

import numpy as np

from ..ff.blowfish import Blowfish
from ..ff.gf2_64 import Gf2AffineMap, to_unsigned
from ..ff.gfp import GfpAffineMap
from ..sqlengine import Database
from ..sqlengine.errors import ExecutionError

#: Registered-function names, for introspection/tests.
UDF_NAMES = ("axplusb", "axbmodp", "blowfish")


def _as_uint64(x) -> np.ndarray:
    if np.isscalar(x) or not isinstance(x, np.ndarray):
        x = np.array([x])
    x = np.ascontiguousarray(x)
    # Same bits, no copy: ``astype`` copies across dtypes even when asked not to.
    return x.view(np.uint64) if x.dtype == np.int64 \
        else x.astype(np.uint64, copy=False)


def register_udfs(db: Database) -> None:
    """Install axplusb/axbmodp/blowfish into a database (idempotent)."""
    gf2_cache: dict[tuple[int, int], Gf2AffineMap] = {}
    gfp_cache: dict[tuple[int, int, int], GfpAffineMap] = {}
    cipher_cache: dict[int, Blowfish] = {}

    def axplusb(a, x, b):
        key = (to_unsigned(int(a)), to_unsigned(int(b)))
        if key[0] == 0:
            raise ExecutionError("axplusb requires A != 0 (h must be a bijection)")
        mapping = gf2_cache.get(key)
        if mapping is None:
            mapping = Gf2AffineMap(key[0], key[1])
            if len(gf2_cache) > 64:
                gf2_cache.clear()
            gf2_cache[key] = mapping
        return mapping.apply(_as_uint64(x)).view(np.int64)

    def axbmodp(a, x, b, p):
        key = (int(a), int(b), int(p))
        mapping = gfp_cache.get(key)
        if mapping is None:
            mapping = GfpAffineMap(*key)
            if len(gfp_cache) > 64:
                gfp_cache.clear()
            gfp_cache[key] = mapping
        return mapping.apply(_as_uint64(x)).view(np.int64)

    def blowfish(key, x):
        key_int = to_unsigned(int(key))
        cipher = cipher_cache.get(key_int)
        if cipher is None:
            cipher = Blowfish.from_round_key(key_int)
            if len(cipher_cache) > 64:
                cipher_cache.clear()
            cipher_cache[key_int] = cipher
        return cipher.encrypt_vector(_as_uint64(x)).view(np.int64)

    # Each is a bijection of its column argument for fixed constants: the
    # engine may evaluate it once per distinct vertex id, not per edge row.
    db.create_function("axplusb", axplusb, immutable=True)
    db.create_function("axbmodp", axbmodp, immutable=True)
    db.create_function("blowfish", blowfish, immutable=True)
