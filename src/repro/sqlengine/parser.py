"""Recursive-descent parser for the engine's SQL dialect.

Covers everything the paper's code (Appendix A) and the baseline ports use:
``CREATE TABLE ... AS SELECT ... DISTRIBUTED BY (col)``, plain selects with
joins (comma-style and explicit ``[LEFT OUTER] JOIN ... ON``), ``WHERE``,
``GROUP BY``, ``UNION ALL``, ``DISTINCT``, scalar and aggregate functions,
``CASE WHEN``, ``DROP``/``ALTER ... RENAME``/``INSERT``/``TRUNCATE``.
"""

from __future__ import annotations

from .ast_nodes import (
    Aggregate,
    AlterRename,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    CreateTable,
    CreateTableAs,
    DropTable,
    Expression,
    FromItem,
    FuncCall,
    InList,
    InsertSelect,
    InsertValues,
    IsNull,
    Join,
    Literal,
    Param,
    Select,
    SelectCore,
    SelectItem,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    TruncateTable,
    UnaryOp,
)
from .errors import ParseError
from .lexer import EOF, FLOAT, IDENT, INTEGER, KEYWORD, OP, STRING, Token, tokenize

#: Aggregate function names recognised by the parser.
AGGREGATE_NAMES = frozenset({"min", "max", "sum", "count", "avg"})

_COMPARISONS = {"=", "!=", "<>", "<", "<=", ">", ">="}


class Parser:
    """One-shot parser over a token list."""

    def __init__(self, sql: str, allow_params: bool = False):
        self._sql = sql
        self._tokens = tokenize(sql, allow_params=allow_params)
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def _check(self, kind: str, value: str | None = None) -> bool:
        return self._peek().matches(kind, value)

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            wanted = value or kind
            raise ParseError(
                f"expected {wanted!r} but found {token.value or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _expect_keyword(self, *words: str) -> None:
        for word in words:
            self._expect(KEYWORD, word)

    def _accept_keyword(self, *words: str) -> bool:
        """Accept a keyword sequence atomically (all or nothing)."""
        for offset, word in enumerate(words):
            if not self._peek(offset).matches(KEYWORD, word):
                return False
        for _ in words:
            self._advance()
        return True

    def _identifier(self) -> str:
        token = self._peek()
        if token.kind != IDENT:
            raise ParseError(
                f"expected identifier but found {token.value or 'end of input'!r}",
                token.position,
            )
        self._advance()
        return token.value.lower()

    # -- entry points -------------------------------------------------------

    def parse_statement(self) -> Statement:
        """Parse a single statement, requiring full input consumption."""
        statement = self._statement()
        self._accept(OP, ";")
        token = self._peek()
        if token.kind != EOF:
            raise ParseError(
                f"unexpected trailing input starting at {token.value!r}",
                token.position,
            )
        return statement

    # -- statements ----------------------------------------------------------

    def _statement(self) -> Statement:
        if self._check(KEYWORD, "select"):
            return self._select()
        if self._check(KEYWORD, "create"):
            return self._create()
        if self._check(KEYWORD, "drop"):
            return self._drop()
        if self._check(KEYWORD, "alter"):
            return self._alter()
        if self._check(KEYWORD, "insert"):
            return self._insert()
        if self._check(KEYWORD, "truncate"):
            return self._truncate()
        token = self._peek()
        raise ParseError(
            f"expected a statement but found {token.value or 'end of input'!r}",
            token.position,
        )

    def _create(self) -> Statement:
        self._expect_keyword("create")
        temp = bool(self._accept(KEYWORD, "temp") or self._accept(KEYWORD, "temporary"))
        self._expect_keyword("table")
        name = self._identifier()
        if self._accept(KEYWORD, "as"):
            select = self._select()
            distributed_by = self._distribution_clause()
            return CreateTableAs(name, select, distributed_by, temp)
        self._expect(OP, "(")
        columns = []
        while True:
            col_name = self._identifier()
            type_token = self._peek()
            if type_token.kind not in (IDENT, KEYWORD):
                raise ParseError("expected a column type", type_token.position)
            self._advance()
            sql_type = _normalise_type(type_token.value)
            columns.append((col_name, sql_type))
            if not self._accept(OP, ","):
                break
        self._expect(OP, ")")
        distributed_by = self._distribution_clause()
        return CreateTable(name, tuple(columns), distributed_by, temp)

    def _distribution_clause(self) -> str | None:
        if self._accept(KEYWORD, "distributed"):
            if self._accept(KEYWORD, "randomly"):
                return None
            self._expect_keyword("by")
            self._expect(OP, "(")
            column = self._identifier()
            self._expect(OP, ")")
            return column
        return None

    def _drop(self) -> DropTable:
        self._expect_keyword("drop", "table")
        if_exists = self._accept_keyword("if", "exists")
        names = [self._identifier()]
        while self._accept(OP, ","):
            names.append(self._identifier())
        return DropTable(tuple(names), if_exists)

    def _alter(self) -> AlterRename:
        self._expect_keyword("alter", "table")
        old = self._identifier()
        self._expect_keyword("rename", "to")
        new = self._identifier()
        return AlterRename(old, new)

    def _insert(self) -> Statement:
        self._expect_keyword("insert", "into")
        name = self._identifier()
        columns: tuple[str, ...] | None = None
        if self._accept(OP, "("):
            cols = [self._identifier()]
            while self._accept(OP, ","):
                cols.append(self._identifier())
            self._expect(OP, ")")
            columns = tuple(cols)
        if self._accept(KEYWORD, "values"):
            rows = []
            while True:
                self._expect(OP, "(")
                row = [self._expression()]
                while self._accept(OP, ","):
                    row.append(self._expression())
                self._expect(OP, ")")
                rows.append(tuple(row))
                if not self._accept(OP, ","):
                    break
            return InsertValues(name, columns, tuple(rows))
        select = self._select()
        return InsertSelect(name, columns, select)

    def _truncate(self) -> TruncateTable:
        self._expect_keyword("truncate")
        self._accept(KEYWORD, "table")
        return TruncateTable(self._identifier())

    # -- select --------------------------------------------------------------

    def _select(self) -> Select:
        cores = [self._select_core()]
        while self._accept_keyword("union", "all"):
            cores.append(self._select_core())
        return Select(tuple(cores))

    def _select_core(self) -> SelectCore:
        self._expect_keyword("select")
        distinct = bool(self._accept(KEYWORD, "distinct"))
        items = [self._select_item()]
        while self._accept(OP, ","):
            items.append(self._select_item())
        from_items: tuple[FromItem, ...] = ()
        joins: list[Join] = []
        where = None
        group_by: tuple[Expression, ...] = ()
        if self._accept(KEYWORD, "from"):
            tables = [self._from_item()]
            while self._accept(OP, ","):
                tables.append(self._from_item())
            from_items = tuple(tables)
            while True:
                if self._accept_keyword("left", "outer", "join") or self._accept_keyword(
                    "left", "join"
                ):
                    kind = "left"
                elif self._accept_keyword("inner", "join") or self._accept_keyword("join"):
                    kind = "inner"
                else:
                    break
                table = self._from_item()
                self._expect_keyword("on")
                condition = self._expression()
                joins.append(Join(kind, table, condition))
        if self._accept(KEYWORD, "where"):
            where = self._expression()
        if self._accept_keyword("group", "by"):
            exprs = [self._expression()]
            while self._accept(OP, ","):
                exprs.append(self._expression())
            group_by = tuple(exprs)
        return SelectCore(distinct, tuple(items), from_items, tuple(joins), where, group_by)

    def _select_item(self) -> SelectItem:
        if self._accept(OP, "*"):
            return SelectItem(Star(), None)
        expr = self._expression()
        alias = None
        if self._accept(KEYWORD, "as"):
            alias = self._identifier()
        elif self._check(IDENT):
            alias = self._identifier()
        return SelectItem(expr, alias)

    def _from_item(self) -> FromItem:
        if self._accept(OP, "("):
            select = self._select()
            self._expect(OP, ")")
            self._accept(KEYWORD, "as")
            alias = self._identifier()
            return SubqueryRef(select, alias)
        name = self._identifier()
        alias = None
        if self._accept(KEYWORD, "as"):
            alias = self._identifier()
        elif self._check(IDENT):
            alias = self._identifier()
        return TableRef(name, alias)

    # -- expressions ----------------------------------------------------------

    def _expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self._accept(KEYWORD, "or"):
            left = BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self._accept(KEYWORD, "and"):
            left = BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self._accept(KEYWORD, "not"):
            return UnaryOp("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token.kind == OP and token.value in _COMPARISONS:
            self._advance()
            op = "!=" if token.value == "<>" else token.value
            return BinaryOp(op, left, self._additive())
        if self._accept(KEYWORD, "is"):
            negated = bool(self._accept(KEYWORD, "not"))
            self._expect(KEYWORD, "null")
            return IsNull(left, negated)
        negated = False
        if self._check(KEYWORD, "not") and self._peek(1).matches(KEYWORD, "in"):
            self._advance()
            negated = True
        if self._accept(KEYWORD, "in"):
            self._expect(OP, "(")
            items = [self._expression()]
            while self._accept(OP, ","):
                items.append(self._expression())
            self._expect(OP, ")")
            return InList(left, tuple(items), negated)
        if self._accept(KEYWORD, "between"):
            low = self._additive()
            self._expect(KEYWORD, "and")
            high = self._additive()
            return BinaryOp(
                "and",
                BinaryOp(">=", left, low),
                BinaryOp("<=", left, high),
            )
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == OP and token.value in ("+", "-", "||"):
                self._advance()
                left = BinaryOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == OP and token.value in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> Expression:
        if self._accept(OP, "-"):
            operand = self._unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            if isinstance(operand, Literal) and isinstance(operand.value, Param):
                # Template mode: fold the minus into the placeholder so the
                # patched AST matches the direct parse's folded literal.
                param = operand.value
                return Literal(Param(param.index, not param.negated))
            return UnaryOp("-", operand)
        if self._accept(OP, "+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> Expression:
        token = self._peek()
        if token.kind == INTEGER:
            self._advance()
            if token.value.startswith("$"):
                # Statement-template placeholder; the plan cache patches the
                # real constant in before execution (see plancache.py).
                return Literal(Param(int(token.value[1:])))
            return Literal(int(token.value))
        if token.kind == FLOAT:
            self._advance()
            return Literal(float(token.value))
        if token.kind == STRING:
            self._advance()
            return Literal(token.value)
        if token.matches(KEYWORD, "null"):
            self._advance()
            return Literal(None)
        if token.matches(KEYWORD, "case"):
            return self._case()
        if self._accept(OP, "("):
            expr = self._expression()
            self._expect(OP, ")")
            return expr
        if token.kind == IDENT:
            return self._identifier_expression()
        raise ParseError(
            f"expected an expression but found {token.value or 'end of input'!r}",
            token.position,
        )

    def _case(self) -> Expression:
        self._expect_keyword("case")
        branches = []
        while self._accept(KEYWORD, "when"):
            condition = self._expression()
            self._expect_keyword("then")
            value = self._expression()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch",
                             self._peek().position)
        default = None
        if self._accept(KEYWORD, "else"):
            default = self._expression()
        self._expect_keyword("end")
        return CaseWhen(tuple(branches), default)

    def _identifier_expression(self) -> Expression:
        name = self._identifier()
        if self._accept(OP, "("):
            return self._call(name)
        if self._accept(OP, "."):
            column = self._identifier()
            return ColumnRef(name, column)
        return ColumnRef(None, name)

    def _call(self, name: str) -> Expression:
        lowered = name.lower()
        if lowered in AGGREGATE_NAMES:
            distinct = bool(self._accept(KEYWORD, "distinct"))
            if self._accept(OP, "*"):
                self._expect(OP, ")")
                if lowered != "count":
                    raise ParseError(f"{name}(*) is only valid for count",
                                     self._peek().position)
                return Aggregate("count", None, distinct=False)
            arg = self._expression()
            self._expect(OP, ")")
            return Aggregate(lowered, arg, distinct)
        args: list[Expression] = []
        if not self._accept(OP, ")"):
            args.append(self._expression())
            while self._accept(OP, ","):
                args.append(self._expression())
            self._expect(OP, ")")
        return FuncCall(lowered, tuple(args))


def _normalise_type(raw: str) -> str:
    lowered = raw.lower()
    mapping = {
        "int": "int64", "integer": "int64", "bigint": "int64", "int8": "int64",
        "int64": "int64",
        "float": "float64", "float8": "float64", "double": "float64",
        "real": "float64", "float64": "float64",
        "bool": "bool", "boolean": "bool",
        "text": "text", "varchar": "text",
    }
    if lowered not in mapping:
        raise ParseError(f"unsupported column type {raw!r}")
    return mapping[lowered]


def parse_statement(sql: str) -> Statement:
    """Parse one SQL statement."""
    return Parser(sql).parse_statement()
