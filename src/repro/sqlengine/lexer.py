"""SQL tokenizer.

Produces the token stream consumed by :mod:`repro.sqlengine.parser`.  The
dialect covers what the paper's queries (Appendix A) and the ported baseline
algorithms need: identifiers, integer/float/string literals, the usual
operators, ``--`` line comments and ``/* */`` block comments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

# Token kinds.
IDENT = "IDENT"
KEYWORD = "KEYWORD"
INTEGER = "INTEGER"
FLOAT = "FLOAT"
STRING = "STRING"
OP = "OP"
EOF = "EOF"

#: Reserved words recognised case-insensitively.  Anything else is an
#: identifier.  (Function names like ``least`` are deliberately *not*
#: keywords; they parse as identifiers followed by ``(``.)
KEYWORDS = frozenset(
    """
    select distinct from where group by as create table drop alter rename to
    union all and or not null is in temp temporary if exists insert into
    values left right full outer inner join on using distributed randomly
    case when then else end between like limit order asc desc truncate
    """.split()
)

_MULTI_CHAR_OPS = ("<=", ">=", "!=", "<>", "||")
_SINGLE_CHAR_OPS = "=<>+-*/%(),.;"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source offset (for error messages)."""

    kind: str
    value: str
    position: int

    def matches(self, kind: str, value: str | None = None) -> bool:
        """Check kind and (case-insensitively, for words) value."""
        if self.kind != kind:
            return False
        if value is None:
            return True
        return self.value.lower() == value.lower()


def tokenize(sql: str, allow_params: bool = False) -> list[Token]:
    """Tokenise SQL text; raises :class:`ParseError` on bad input.

    ``allow_params`` enables the ``$<n>`` placeholder syntax used by
    statement templates (see plancache.py); user-facing SQL keeps ``$``
    illegal so placeholders can never arrive from outside.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise ParseError("unterminated block comment", i)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            # In template mode "$" continues an identifier: statement
            # templates parameterise trailing digits of generated table
            # names as "name$<slot>".
            ident_chars = "_$" if allow_params else "_"
            while i < n and (sql[i].isalnum() or sql[i] in ident_chars):
                i += 1
            word = sql[start:i]
            kind = KEYWORD if word.lower() in KEYWORDS else IDENT
            tokens.append(Token(kind, word, start))
            continue
        if ch == "$" and allow_params:
            # A template placeholder for an integer literal: "$<slot>".
            start = i
            i += 1
            while i < n and sql[i].isdigit():
                i += 1
            if i == start + 1:
                raise ParseError("'$' must be followed by a parameter number", start)
            tokens.append(Token(INTEGER, sql[start:i], start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = sql[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    # Don't swallow "1." followed by an identifier (alias.col
                    # never starts with a digit, so this is always a float dot
                    # unless the next char is not a digit).
                    if i + 1 < n and sql[i + 1].isdigit():
                        seen_dot = True
                        i += 1
                    else:
                        break
                elif c in "eE" and not seen_exp and i + 1 < n and (
                    sql[i + 1].isdigit() or sql[i + 1] in "+-"
                ):
                    seen_exp = True
                    i += 2 if sql[i + 1] in "+-" else 1
                else:
                    break
            text = sql[start:i]
            kind = FLOAT if (seen_dot or seen_exp) else INTEGER
            tokens.append(Token(kind, text, start))
            continue
        if ch == "'":
            start = i
            i += 1
            chunks: list[str] = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string literal", start)
                if sql[i] == "'":
                    if i + 1 < n and sql[i + 1] == "'":
                        chunks.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                chunks.append(sql[i])
                i += 1
            tokens.append(Token(STRING, "".join(chunks), start))
            continue
        matched = False
        for op in _MULTI_CHAR_OPS:
            if sql.startswith(op, i):
                tokens.append(Token(OP, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_CHAR_OPS:
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(EOF, "", n))
    return tokens


def split_statements(sql: str) -> list[str]:
    """The statements of a ``;``-separated script, as stripped source text.

    The script is cut at the tokenizer's own top-level ``;`` tokens, so a
    ``;`` inside a string literal or a comment never splits; a piece
    holding no token at all (an empty statement, a trailing comment) is
    dropped.
    """
    pieces: list[str] = []
    start, has_token = 0, False
    for token in tokenize(sql):
        if token.kind == EOF or token.matches(OP, ";"):
            if has_token:
                pieces.append(sql[start:token.position].strip())
            start, has_token = token.position + 1, False
        else:
            has_token = True
    return pieces
