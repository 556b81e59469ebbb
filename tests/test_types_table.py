"""Unit tests for the column container, table storage and catalog."""

import numpy as np
import pytest

from repro.sqlengine import CatalogError, Column, Database, ExecutionError
from repro.sqlengine.table import Catalog, Table
from repro.sqlengine.types import BOOL, FLOAT64, INT64, TEXT, sql_type_of_value


def test_column_type_inference():
    assert Column.from_values(np.array([1, 2])).sql_type == INT64
    assert Column.from_values(np.array([1.5])).sql_type == FLOAT64
    assert Column.from_values(np.array([True])).sql_type == BOOL
    assert Column.from_values(np.array(["x"], dtype=object)).sql_type == TEXT


def test_sql_type_of_value():
    assert sql_type_of_value(1) == INT64
    assert sql_type_of_value(1.5) == FLOAT64
    assert sql_type_of_value(True) == BOOL
    assert sql_type_of_value("s") == TEXT
    with pytest.raises(ExecutionError):
        sql_type_of_value(object())


def test_constant_and_nulls():
    c = Column.constant(7, 3)
    assert c.to_list() == [7, 7, 7]
    n = Column.nulls(2)
    assert n.to_list() == [None, None]


def test_all_false_mask_is_normalised_away():
    c = Column(np.array([1, 2]), INT64, np.array([False, False]))
    assert c.mask is None


def test_take_and_filter_carry_masks():
    c = Column(np.array([1, 2, 3]), INT64, np.array([False, True, False]))
    taken = c.take(np.array([2, 1]))
    assert taken.to_list() == [3, None]
    kept = c.take(np.flatnonzero(np.array([True, True, False])))
    assert kept.to_list() == [1, None]


def test_byte_size_accounting():
    ints = Column.from_values(np.arange(10, dtype=np.int64))
    assert ints.byte_size() == 80
    masked = Column(np.arange(10, dtype=np.int64), INT64,
                    np.array([True] + [False] * 9))
    assert masked.byte_size() == 90  # 8 per value + 1 per mask entry
    text = Column.from_values(np.array(["ab", "c"], dtype=object))
    assert text.byte_size() == 3 + 2


def test_concat_promotes_int_to_float():
    a = Column.from_values(np.array([1, 2]))
    b = Column.from_values(np.array([1.5]))
    merged = Column.concat([a, b])
    assert merged.sql_type == FLOAT64
    assert merged.to_list() == [1.0, 2.0, 1.5]


def test_concat_incompatible_types_rejected():
    a = Column.from_values(np.array([1]))
    b = Column.from_values(np.array(["x"], dtype=object))
    with pytest.raises(ExecutionError):
        Column.concat([a, b])


def test_table_validates_columns():
    with pytest.raises(ExecutionError, match="at least one column"):
        Table("t", {})
    with pytest.raises(ExecutionError, match="ragged"):
        Table("t", {
            "a": Column.from_values(np.array([1])),
            "b": Column.from_values(np.array([1, 2])),
        })
    with pytest.raises(CatalogError, match="distribution column"):
        Table("t", {"a": Column.from_values(np.array([1]))},
              distribution_column="nope")


def test_table_append_invalidates_size_cache():
    table = Table("t", {"a": Column.from_values(np.array([1, 2]))})
    before = table.byte_size()
    added = table.append({"a": Column.from_values(np.array([3]))})
    assert added == 8
    assert table.byte_size() == before + 8
    assert table.n_rows == 3


def test_table_append_requires_matching_columns():
    table = Table("t", {"a": Column.from_values(np.array([1]))})
    with pytest.raises(ExecutionError, match="do not match"):
        table.append({"b": Column.from_values(np.array([1]))})


def test_catalog_roundtrip():
    catalog = Catalog()
    table = Table("t", {"a": Column.from_values(np.array([1]))})
    catalog.put(table)
    assert "t" in catalog
    assert catalog.get("T") is table  # case-insensitive
    catalog.rename("t", "u")
    assert "u" in catalog and "t" not in catalog
    assert catalog.total_bytes() == table.byte_size()
    dropped = catalog.drop("u")
    assert dropped is table
    with pytest.raises(CatalogError):
        catalog.get("u")


def test_catalog_rename_preserves_name_case():
    """Regression: rename used to lower-case the user-visible table name.

    Lookup keys are normalised, but the name shown by ``names()`` and used
    in error messages must keep the casing the caller supplied."""
    catalog = Catalog()
    catalog.put(Table("t", {"a": Column.from_values(np.array([1]))}))
    table = catalog.rename("t", "MixedCase")
    assert table.name == "MixedCase"
    assert catalog.names() == ["MixedCase"]
    # Lookups stay case-insensitive either way.
    assert catalog.get("mixedcase") is table
    assert catalog.get("MIXEDCASE") is table
    assert "mixedCASE" in catalog
    # The preserved-case name surfaces in error messages.
    with pytest.raises(CatalogError, match="'MixedCase'"):
        table.column("ghost")
    catalog.rename("MIXEDcase", "BackAgain")
    assert catalog.names() == ["BackAgain"]


def test_catalog_rejects_duplicates_and_missing():
    catalog = Catalog()
    catalog.put(Table("t", {"a": Column.from_values(np.array([1]))}))
    with pytest.raises(CatalogError, match="already exists"):
        catalog.put(Table("t", {"a": Column.from_values(np.array([1]))}))
    with pytest.raises(CatalogError):
        catalog.drop("ghost")
    catalog.put(Table("x", {"a": Column.from_values(np.array([1]))}))
    with pytest.raises(CatalogError, match="already exists"):
        catalog.rename("x", "t")


def test_differential_random_queries_mpp_vs_spark():
    """The same random analytical queries must agree across backends."""
    from repro.spark import SparkSQLDatabase

    rng = np.random.default_rng(8)
    a = rng.integers(0, 40, size=3000).astype(np.int64)
    b = rng.integers(0, 40, size=3000).astype(np.int64)
    c = rng.integers(0, 7, size=2000).astype(np.int64)
    d = rng.integers(0, 40, size=2000).astype(np.int64)
    queries = [
        "select a, count(*), min(b) from t group by a",
        "select distinct a, b from t where a < 10",
        "select t.a, s.d from t, s where t.b = s.d and t.a != 5",
        "select t.a, s.c from t left outer join s on (t.a = s.d) "
        "where s.c is null",
        "select count(distinct b) from t",
        "select a + b as x, count(*) from t where a between 3 and 20 "
        "group by a, b",
    ]
    results = []
    for factory in (Database, SparkSQLDatabase):
        db = factory()
        db.load_table("t", {"a": a.copy(), "b": b.copy()}, distributed_by="a")
        db.load_table("s", {"c": c.copy(), "d": d.copy()}, distributed_by="c")
        results.append([sorted(db.execute(q).rows()) for q in queries])
    assert results[0] == results[1]
