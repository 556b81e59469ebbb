"""Tests for the SQL parser."""

import pytest

from repro.sqlengine.ast_nodes import (
    Aggregate,
    AlterRename,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    CreateTable,
    CreateTableAs,
    DropTable,
    FuncCall,
    InList,
    InsertSelect,
    InsertValues,
    IsNull,
    Literal,
    Select,
    SubqueryRef,
    TableRef,
    TruncateTable,
    UnaryOp,
)
from repro.sqlengine.errors import ParseError
from repro.sqlengine.lexer import split_statements
from repro.sqlengine.parser import parse_statement


def select_core(sql):
    statement = parse_statement(sql)
    assert isinstance(statement, Select)
    assert len(statement.cores) == 1
    return statement.cores[0]


def test_simple_select():
    core = select_core("select v1, v2 from g")
    assert [i.expr for i in core.items] == [
        ColumnRef(None, "v1"), ColumnRef(None, "v2"),
    ]
    assert core.from_items == (TableRef("g", None),)


def test_bare_alias_without_as():
    core = select_core("select v1 v from g")
    assert core.items[0].alias == "v"


def test_as_alias():
    core = select_core("select v1 as v from g t1")
    assert core.items[0].alias == "v"
    assert core.from_items[0].alias == "t1"


def test_qualified_column():
    core = select_core("select r1.rep from t as r1")
    assert core.items[0].expr == ColumnRef("r1", "rep")


def test_comma_join_and_where():
    core = select_core("select a.x from a, b where a.x = b.y and a.x != 3")
    assert len(core.from_items) == 2
    assert isinstance(core.where, BinaryOp)
    assert core.where.op == "and"


def test_left_outer_join():
    core = select_core(
        "select l.v from l left outer join r on (l.r = r.v)"
    )
    assert len(core.joins) == 1
    assert core.joins[0].kind == "left"


def test_left_join_without_outer():
    core = select_core("select 1 from l left join r on l.a = r.b")
    assert core.joins[0].kind == "left"


def test_inner_join():
    core = select_core("select 1 from a inner join b on a.x = b.y join c on c.z = b.y")
    assert [j.kind for j in core.joins] == ["inner", "inner"]


def test_group_by_multiple_keys():
    core = select_core("select a, b, count(*) from t group by a, b")
    assert core.group_by == (ColumnRef(None, "a"), ColumnRef(None, "b"))


def test_aggregates_parse():
    core = select_core(
        "select min(x), max(x), sum(x), avg(x), count(*), count(distinct x) from t"
    )
    names = [i.expr.name for i in core.items]
    assert names == ["min", "max", "sum", "avg", "count", "count"]
    assert core.items[4].expr.arg is None
    assert core.items[5].expr.distinct


def test_count_star_only_for_count():
    with pytest.raises(ParseError):
        parse_statement("select min(*) from t")


def test_distinct_flag():
    assert select_core("select distinct v1 from g").distinct
    assert not select_core("select v1 from g").distinct


def test_union_all_chain():
    statement = parse_statement(
        "select v1, v2 from g union all select v2, v1 from g union all select 1, 2"
    )
    assert isinstance(statement, Select)
    assert len(statement.cores) == 3


def test_subquery_in_from():
    core = select_core("select q.v from (select v1 as v from g) as q")
    assert isinstance(core.from_items[0], SubqueryRef)
    assert core.from_items[0].alias == "q"


def test_function_calls_nest():
    core = select_core("select least(axplusb(3, v1, 7), min(axplusb(3, v2, 7))) from g")
    outer = core.items[0].expr
    assert isinstance(outer, FuncCall) and outer.name == "least"
    assert isinstance(outer.args[1], Aggregate)


def test_operator_precedence():
    core = select_core("select 1 + 2 * 3")
    expr = core.items[0].expr
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_comparison_precedence_with_and():
    core = select_core("select 1 from t where a = 1 and b = 2 or c = 3")
    assert core.where.op == "or"
    assert core.where.left.op == "and"


def test_not_and_is_null():
    core = select_core("select 1 from t where not a is null and b is not null")
    left = core.where.left
    assert isinstance(left, UnaryOp) and left.op == "not"
    assert isinstance(left.operand, IsNull) and not left.operand.negated
    assert isinstance(core.where.right, IsNull) and core.where.right.negated


def test_in_list():
    core = select_core("select 1 from t where x in (1, 2, 3) and y not in (4)")
    assert isinstance(core.where.left, InList)
    assert not core.where.left.negated
    assert core.where.right.negated


def test_between_desugars():
    core = select_core("select 1 from t where x between 2 and 5")
    assert core.where.op == "and"
    assert core.where.left.op == ">="
    assert core.where.right.op == "<="


def test_case_when():
    core = select_core("select case when a = 1 then 'one' else 'many' end from t")
    expr = core.items[0].expr
    assert isinstance(expr, CaseWhen)
    assert len(expr.branches) == 1
    assert expr.default == Literal("many")


def test_case_requires_branch():
    with pytest.raises(ParseError):
        parse_statement("select case else 1 end from t")


def test_unary_minus_folds_into_literal():
    core = select_core("select -5")
    assert core.items[0].expr == Literal(-5)


def test_null_literal():
    assert select_core("select null").items[0].expr == Literal(None)


def test_create_table_as_with_distribution():
    statement = parse_statement(
        "create table t as select v1, v2 from g distributed by (v1)"
    )
    assert isinstance(statement, CreateTableAs)
    assert statement.name == "t"
    assert statement.distributed_by == "v1"


def test_create_table_as_distributed_randomly():
    statement = parse_statement(
        "create table t as select 1 as a distributed randomly"
    )
    assert statement.distributed_by is None


def test_create_table_with_columns():
    statement = parse_statement("create table t (v int, r bigint, x float)")
    assert isinstance(statement, CreateTable)
    assert statement.columns == (("v", "int64"), ("r", "int64"), ("x", "float64"))


def test_create_table_bad_type():
    with pytest.raises(ParseError):
        parse_statement("create table t (v blob)")


def test_drop_table_multiple():
    statement = parse_statement("drop table a, b, c")
    assert isinstance(statement, DropTable)
    assert statement.names == ("a", "b", "c")


def test_drop_table_if_exists():
    statement = parse_statement("drop table if exists a")
    assert statement.if_exists


def test_alter_rename():
    statement = parse_statement("alter table a rename to b")
    assert statement == AlterRename("a", "b")


def test_insert_values():
    statement = parse_statement("insert into t (a, b) values (1, 2), (3, null)")
    assert isinstance(statement, InsertValues)
    assert statement.columns == ("a", "b")
    assert len(statement.rows) == 2


def test_insert_select():
    statement = parse_statement("insert into t select v, r from s")
    assert isinstance(statement, InsertSelect)


def test_truncate():
    assert parse_statement("truncate table t") == TruncateTable("t")
    assert parse_statement("truncate t") == TruncateTable("t")


def test_trailing_garbage_raises():
    with pytest.raises(ParseError, match="trailing"):
        parse_statement("select 1 from t banana nonsense extra")


def test_script_parsing():
    statements = [
        parse_statement(piece) for piece in split_statements(
            "select 1; drop table t; alter table a rename to b;")
    ]
    assert [type(s).__name__ for s in statements] == [
        "Select", "DropTable", "AlterRename"]


def test_appendix_a_queries_parse():
    """The exact query shapes of the paper's Appendix A must parse."""
    parse_statement("""
        create table ccgraph as
        select v1, v2 from dataset
        union all
        select v2, v1 from dataset
        distributed by (v1)
    """)
    parse_statement("""
        create table ccreps1 as
        select v1 v,
               least(axplusb(-123, v1, 456), min(axplusb(-123, v2, 456))) rep
        from ccgraph
        group by v1
        distributed by (v)
    """)
    parse_statement("""
        create table ccgraph3 as
        select distinct v1, r2.rep as v2
        from ccgraph2, ccreps1 as r2
        where ccgraph2.v2 = r2.v
          and v1 != r2.rep
        distributed by (v1)
    """)
    parse_statement("""
        create table tmp as
        select r1.v as v, coalesce(r2.rep, axplusb(7, r1.rep, 9)) as rep
        from ccreps1 as r1 left outer join ccreps2 as r2 on (r1.rep = r2.v)
        distributed by (v)
    """)
