"""Tests for the SQL tokenizer."""

import pytest

from repro.sqlengine.errors import ParseError
from repro.sqlengine.lexer import (
    EOF,
    FLOAT,
    IDENT,
    INTEGER,
    KEYWORD,
    OP,
    STRING,
    split_statements,
    tokenize,
)


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


def test_simple_select():
    tokens = tokenize("select v1, v2 from g")
    assert [t.kind for t in tokens] == [
        KEYWORD, IDENT, OP, IDENT, KEYWORD, IDENT, EOF,
    ]


def test_keywords_are_case_insensitive():
    tokens = tokenize("SELECT Distinct FROM")
    assert all(t.kind == KEYWORD for t in tokens[:-1])


def test_identifiers_keep_case_in_value():
    assert tokenize("MyTable")[0].value == "MyTable"


def test_integer_and_float_literals():
    tokens = tokenize("1 23 4.5 0.25 1e3 2.5e-2")
    assert [t.kind for t in tokens[:-1]] == [
        INTEGER, INTEGER, FLOAT, FLOAT, FLOAT, FLOAT,
    ]


def test_dot_after_integer_is_member_access_when_not_digit():
    # "r1.rep" style: the dot must not be swallowed by a number.
    tokens = tokenize("t1.c")
    assert [t.kind for t in tokens[:-1]] == [IDENT, OP, IDENT]


def test_string_literal_with_escaped_quote():
    token = tokenize("'it''s'")[0]
    assert token.kind == STRING
    assert token.value == "it's"


def test_unterminated_string_raises():
    with pytest.raises(ParseError):
        tokenize("'oops")


def test_multi_char_operators():
    assert values("a <= b >= c != d <> e || f") == [
        "a", "<=", "b", ">=", "c", "!=", "d", "<>", "e", "||", "f",
    ]


def test_line_comment_skipped():
    assert values("select -- comment here\n 1") == ["select", "1"]


def test_block_comment_skipped():
    assert values("select /* a block \n comment */ 1") == ["select", "1"]


def test_unterminated_block_comment_raises():
    with pytest.raises(ParseError):
        tokenize("select /* never closed")


def test_unexpected_character_raises_with_position():
    with pytest.raises(ParseError) as info:
        tokenize("select @")
    assert "offset 7" in str(info.value)


def test_token_positions_track_offsets():
    tokens = tokenize("ab  cd")
    assert tokens[0].position == 0
    assert tokens[1].position == 4


def test_matches_helper():
    token = tokenize("SELECT")[0]
    assert token.matches(KEYWORD, "select")
    assert token.matches(KEYWORD)
    assert not token.matches(IDENT)
    assert not token.matches(KEYWORD, "from")


def test_empty_input_yields_only_eof():
    tokens = tokenize("   \n\t ")
    assert len(tokens) == 1
    assert tokens[0].kind == EOF


def test_split_statements_cuts_only_at_top_level_semicolons():
    script = """
        select 'a;b' x ;  -- trailing; comment
        /* block; comment */ select 2;;
        select 'it''s; fine' /* ; */ from t
        ; -- only a comment left
    """
    assert split_statements(script) == [
        "select 'a;b' x",
        "-- trailing; comment\n        /* block; comment */ select 2",
        "select 'it''s; fine' /* ; */ from t",
    ]
    assert split_statements("") == split_statements(" ; ;\n") == []
    # The pieces lex exactly as the script's statements do.
    assert [values(piece) for piece in split_statements(script)] == [
        ["select", "a;b", "x"], ["select", "2"],
        ["select", "it's; fine", "from", "t"]]


def test_split_statements_raises_on_unlexable_script():
    with pytest.raises(ParseError, match="unterminated string"):
        split_statements("select 1; select 'oops")
