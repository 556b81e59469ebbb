"""The plan/statement cache: parsed ASTs keyed by SQL template.

Every reproduced algorithm drives the engine with per-round SQL rendered
from the same handful of f-string templates — only the round's table-name
suffixes (``ccreps3`` → ``ccreps4``) and the randomisation constants change.
The seed engine re-lexed and re-parsed each of those statements from
scratch; this module makes round N pay zero lexer/parser cost.

How it works:

0. **Text memo** (one dict probe): a text seen before maps to its
   template entry and the slot values it instantiated, re-patched with no
   regex run.  It is served only while the cache still holds *that* entry
   (an identity check), so a text whose template was evicted or rebuilt
   takes the steps below again.  Unverifiable templates' texts are never
   memoised; the memo is an LRU bounded like the template cache.
1. **Normalisation** (one C-level regex pass over the SQL text): every
   standalone integer literal and every digit suffix of an identifier is
   replaced by a positional placeholder (``$0``, ``$1``, ...); string
   literals are skipped.  The normalised text is the cache key, and the
   extracted digit runs are the statement's parameters.
2. **Template parse** (once per template): the placeholder text is parsed
   by the ordinary parser — the lexer understands ``$`` markers — yielding
   an AST whose parameterised positions are either
   :class:`~repro.sqlengine.ast_nodes.Param` literal values or name strings
   containing ``$k`` markers.  A generic dataclass walk collects these
   *slots*.
3. **Verification** (once per template): the template AST is patched with
   the first statement's parameters and compared structurally (``==`` on
   frozen dataclasses) against a direct parse of the original SQL.  Any
   mismatch — exotic syntax, markers landing somewhere surprising — marks
   the template uncacheable and the engine falls back to full parsing for
   it forever.  Correctness therefore never depends on the normaliser
   being clever, only on the verification being exact.
4. **Hits**: subsequent statements that normalise to the same template
   re-patch the slots in place (a few ``setattr`` calls) and reuse the AST,
   and are remembered in the memo of step 0.

Patching mutates the cached AST between executions, which is safe because
execution is synchronous: the engine runs **one statement at a time**, so
a template's AST has at most one occupant, and the executor retains no
statement reference after a call completes.  The invariant is enforced,
not assumed: :meth:`Database.execute
<repro.sqlengine.database.Database.execute>` refuses a statement issued
while another is running — a UDF calling back into its database — before
it reaches this cache, so a running statement's template is never
re-patched under it.
"""

from __future__ import annotations

import dataclasses
import re
from collections import OrderedDict
from typing import Optional

from .ast_nodes import Param, Statement
from .parser import Parser, parse_statement

#: Matches string literals (kept verbatim) or parameterisable digit runs.
#: A digit run qualifies when it is not part of a float or exponent form
#: (not adjacent to ".", not preceded by "<digit>e") and not followed by
#: more identifier characters (so mid-identifier digits stay literal).
#: A unary minus is absorbed into the parameter where it is unambiguous —
#: directly after "(" or "," (function arguments, VALUES rows), never
#: where it could be binary subtraction — so the positive and negative
#: renderings of a randomisation constant normalise to one template
#: instead of one per sign pattern.
#: The leading lookahead rejects at once every position no alternative can
#: start at (37 -> 18 us on a contraction round's representatives text).
_NORMALIZE_RE = re.compile(
    r"(?=['(,\d])(?:"
    r"('(?:[^']|'')*')"
    r"|([(,]\s*)(-\d+)(?![\w.])"
    r"|((?<![\d.])(?<![\d.][eE])\d+(?![\w.]))"
    r")"
)

#: Placeholder markers inside template strings.
_MARKER_RE = re.compile(r"\$(\d+)")


def normalize_statement(sql: str) -> tuple[str, list[str]]:
    """Return (template text, extracted parameter digit-runs)."""
    params: list[str] = []

    def replace(match: re.Match) -> str:
        if match.group(1) is not None:
            return match.group(1)
        if match.group(3) is not None:
            params.append(match.group(3))
            return f"{match.group(2)}${len(params) - 1}"
        params.append(match.group(4))
        return f"${len(params) - 1}"

    return _NORMALIZE_RE.sub(replace, sql), params


def _collect_slots(node: object, slots: list) -> None:
    """Find every dataclass field holding placeholder material."""
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if _needs_patch(value):
            slots.append((node, field.name, _as_format(value)))
        _collect_children(value, slots)


def _collect_children(value: object, slots: list) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _collect_slots(value, slots)
    elif isinstance(value, tuple):
        for item in value:
            _collect_children(item, slots)


def _needs_patch(value: object) -> bool:
    if isinstance(value, Param):
        return True
    if isinstance(value, str):
        return "$" in value
    if isinstance(value, tuple):
        return any(
            _needs_patch(item)
            for item in value
            if not (dataclasses.is_dataclass(item) and not isinstance(item, type))
        )
    return False


def _as_format(template_value: object) -> object:
    """A slot's template value with every string a ``str.format`` pattern:
    ``ccreps$3`` -> ``ccreps{3}`` (a ``format`` call costs a fraction of a
    regex substitution per statement)."""
    if isinstance(template_value, str):
        escaped = template_value.replace("{", "{{").replace("}", "}}")
        return _MARKER_RE.sub(r"{\1}", escaped)
    if isinstance(template_value, tuple):
        return tuple(_as_format(item) for item in template_value)
    return template_value


def _instantiate(template_value: object, params: list[str]) -> object:
    """Rebuild a slot value (see :func:`_as_format`) with the statement's
    actual parameters."""
    if isinstance(template_value, Param):
        value = int(params[template_value.index])
        return -value if template_value.negated else value
    if isinstance(template_value, str):
        return template_value.format(*params)
    if isinstance(template_value, tuple):
        return tuple(_instantiate(item, params) for item in template_value)
    return template_value


class _Template:
    """One cache entry: a reusable AST plus its patchable slots.

    ``statement is None`` marks a template that failed verification — the
    cache remembers the failure so the (cheap) normalisation is the only
    cost such statements keep paying.

    ``physical`` is the executor's compiled physical plan for this
    template (see :mod:`repro.sqlengine.physicalplan`).  It is owned and
    validated by the executor; the cache only provides the slot so a
    template carries its execution strategy alongside its AST.
    """

    __slots__ = ("statement", "slots", "physical")

    def __init__(self, statement: Optional[Statement], slots: list):
        self.statement = statement
        self.slots = slots
        self.physical = None

    def values_for(self, params: list[str]) -> tuple:
        """Every slot's value for one statement's parameters: ints,
        strings and tuples of them, immutable, so the text memo can hand
        the same values to every later patch."""
        return tuple(_instantiate(template_value, params)
                     for _node, _field, template_value in self.slots)

    def patch(self, values: tuple) -> Statement:
        for (node, field_name, _template), value in zip(self.slots, values):
            object.__setattr__(node, field_name, value)
        return self.statement


class PlanCache:
    """LRU cache of parsed statement templates, fronted by an LRU memo of
    exact statement texts; each holds at most ``max_entries``.

    Single-occupancy: :meth:`entry_for` patches the returned template's
    AST in place, so it holds for one statement at a time — the one the
    database is executing (see the module docstring).  There is no lock;
    the database never has two statements in flight.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, _Template]" = OrderedDict()
        #: SQL text -> (template text, template entry, slot values).
        self._memo: "OrderedDict[str, tuple[str, _Template, tuple]]" = \
            OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def entry_for(self, sql: str) -> tuple[Statement, bool, Optional[_Template]]:
        """Parse-or-fetch one statement plus its template cache entry.

        The entry (``None`` for uncacheable statements) is the slot the
        executor caches the statement's compiled physical plan on.  On a
        successful first build the *patched template* AST is returned
        rather than the direct parse — the two are verified structurally
        equal — so a physical plan compiled during the first execution
        already references the nodes every later hit re-patches.
        """
        remembered = self._memo.get(sql)
        if remembered is not None:
            template_sql, entry, values = remembered
            # An evicted or rebuilt template is not served: the text goes
            # the normal way below, and is remembered afresh.
            if self._entries.get(template_sql) is entry:
                self._memo.move_to_end(sql)
                self._entries.move_to_end(template_sql)
                return entry.patch(values), True, entry
        if "$" in sql or "--" in sql or "/*" in sql:
            # "$" would collide with our own markers; comments would need a
            # comment-aware normaliser.  Neither occurs in generated SQL.
            return parse_statement(sql), False, None
        template_sql, params = normalize_statement(sql)
        entry = self._entries.get(template_sql)
        hit = entry is not None
        if hit:
            self._entries.move_to_end(template_sql)
            if entry.statement is None:
                return parse_statement(sql), False, None
            values = entry.values_for(params)
            entry.patch(values)
        else:
            direct = parse_statement(sql)
            entry, values = self._build(template_sql, params, direct)
            self._entries[template_sql] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            if entry.statement is None:
                return direct, False, None
            # _build leaves the template patched with this statement's values.
        self._memo[sql] = (template_sql, entry, values)
        self._memo.move_to_end(sql)
        while len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)
        return entry.statement, hit, entry

    def _build(
        self, template_sql: str, params: list[str], direct: Statement
    ) -> tuple[_Template, tuple]:
        try:
            # Template mode: only here is the "$" placeholder syntax legal;
            # user-facing SQL can never smuggle one in.
            statement = Parser(template_sql, allow_params=True).parse_statement()
            slots: list = []
            _collect_slots(statement, slots)
            entry = _Template(statement, slots)
            values = entry.values_for(params)
            if entry.patch(values) != direct:
                return _Template(None, []), ()
            return entry, values
        except Exception:
            return _Template(None, []), ()
