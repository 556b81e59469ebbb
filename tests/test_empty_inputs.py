"""Empty/degenerate-input audit across every fast path.

The termination condition of every reproduced algorithm ("repeat until the
edge table is empty") makes the final round's queries run over zero rows,
and randomised inputs can produce all-NULL key columns.  Every kernel and
every fused pipeline must survive both without crashing and, where a
reference exists, without diverging from it.
"""

import numpy as np
import pytest

from repro.sqlengine.operators import (
    build_key_index,
    distinct_rows,
    group_rows,
    join_indices,
    left_join_indices,
    packed_distinct,
    packed_keys,
    pad_left_outer,
)
from repro.sqlengine.types import Column

from .join_reference import merge_join_indices

EMPTY = Column(np.empty(0, dtype=np.int64), "int64")
FILLED = Column(np.array([1, 2, 3], dtype=np.int64), "int64")
ALL_NULL = Column(np.array([5, 6], dtype=np.int64), "int64",
                  np.array([True, True]))


def test_key_index_over_empty_and_all_null_columns(db):
    index = build_key_index(np.empty(0, dtype=np.int64))
    assert index.n_rows == 0 and index.is_unique and index.is_sorted
    assert index.min_value is None and index.max_value is None
    db.execute("create table z (v int64, w int64)")
    assert db.table("z").index_for("v")[0] is not None
    db.execute("create table nn (v int64)")
    db.execute("insert into nn values (null), (null)")
    assert db.table("nn").index_for("v")[0] is None  # NULL-bearing


DEGENERATE = [
    (EMPTY, FILLED), (FILLED, EMPTY), (EMPTY, EMPTY),
    (ALL_NULL, FILLED), (FILLED, ALL_NULL), (ALL_NULL, ALL_NULL),
]


@pytest.mark.parametrize("left,right", DEGENERATE)
def test_join_kernels_agree_on_degenerate_inputs(left, right):
    expected = merge_join_indices([left], [right])
    index = build_key_index(right.values) if right.mask is None else None
    for got in (
        join_indices([left], [right]),
        join_indices([left], [right], right_index=index),
    ):
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


@pytest.mark.parametrize("left,right", DEGENERATE)
def test_left_join_kernels_on_degenerate_inputs(left, right):
    """Every probe row survives a left join once, NULL-keyed or not, and
    an empty probe side leaves nothing to pad."""
    expected = pad_left_outer(*merge_join_indices([left], [right]),
                              len(left))
    index = build_key_index(right.values) if right.mask is None else None
    for got in (
        left_join_indices([left], [right]),
        left_join_indices([left], [right], right_index=index),
    ):
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert sorted(got[0].tolist()) == list(range(len(left)))


def test_distinct_and_group_kernels_on_degenerate_inputs():
    assert distinct_rows([]) == []
    assert [len(col) for col in distinct_rows([EMPTY])] == [0]
    assert [len(col) for col in distinct_rows([EMPTY, EMPTY])] == [0, 0]
    # NULLs compare equal.
    assert [col.to_list() for col in distinct_rows([ALL_NULL])] == [[None]]
    nothing = np.empty(0, dtype=np.int64)
    # A WHERE that kept no row of a block, and a chain of no block.
    keys = packed_keys([FILLED, FILLED])
    for blocks in ([([FILLED, FILLED], nothing)], []):
        distinct, kept = packed_distinct(keys, len(FILLED), blocks)
        assert [len(col) for col in distinct] == [0, 0] and kept == 0
    order, starts = group_rows([EMPTY])
    assert order.shape[0] == 0 and starts.shape[0] == 0


@pytest.mark.parametrize("n_columns", (1, 2, 3))
def test_distinct_kernel_on_zero_one_and_two_rows(n_columns):
    """The packed branch at its smallest, int64's extremes included (a
    pair of them overflows a word: the grouped branch)."""
    def kept(*rows):
        columns = [Column(np.array(rows, dtype=np.int64) - c, "int64")
                   for c in range(n_columns)]
        distinct = distinct_rows(columns)
        return [col.to_list() for col in distinct][0]

    assert kept() == []
    assert kept(-(2 ** 63) + 2) == [-(2 ** 63) + 2]
    assert kept(7, 7) == [7]
    assert kept(7, -7) == [-7, 7]
    assert kept(2 ** 63 - 1, -(2 ** 63) + 2, 2 ** 63 - 1) == \
        [-(2 ** 63) + 2, 2 ** 63 - 1]


def test_sql_pipelines_over_empty_and_all_null_tables(db):
    db.execute("create table z (v int64, w int64)")  # zero rows
    db.execute("create table nn (v int64, w int64)")
    db.execute("insert into nn values (null, 1), (null, 2)")
    db.execute("create table f (v int64, w int64)")
    db.execute("insert into f values (1, 10), (2, 20)")
    assert db.execute("select f.v, z.w from f, z where f.v = z.v").rows() == []
    assert db.execute("select f.v from f, nn where f.v = nn.v").rows() == []
    assert db.execute(
        "select distinct f.v, z.w from f, z where f.v = z.v").rows() == []
    assert db.execute(
        "select f.v, count(*) c from f, z where f.v = z.v group by f.v"
    ).rows() == []
    assert db.execute("select v, count(*) c from z group by v").rows() == []
    assert db.execute("select distinct v from nn").rows() == [(None,)]
    assert db.execute("select count(*) c, min(v) lo, sum(w) s from z") \
        .rows() == [(0, None, None)]
    assert db.execute(
        "select f.v, z.w from f left outer join z on (f.v = z.v)"
    ).rows() == [(1, None), (2, None)]
    assert db.execute(
        "select z.v, f.w from z left outer join f on (z.v = f.v)"
    ).rows() == []
    assert db.execute("insert into f select v, w from z").rowcount == 0
