"""SBPL frontend: parse policy text into Profile, print Profile back out.

The language is a small s-expression dialect: rules are
(decision operation filter...), filters are (key value) pairs composed with
require-all / require-any / require-not.

The reader sees six kinds of token, each after any run of blanks and
comments. Blanks are space, tab, CR and LF only; a ";" comment runs to the
end of its line. The tokens are "(" and ")"; a "..." string; a #"..." regex
literal; a bare token, which runs up to the next blank, "(", ")", ";" or
'"'; and the end of the text. A bare token is an int when Python's int()
accepts it (so "1_0", "+1" and "\\x0b3" are ints) and a symbol otherwise;
a "#" not followed by '"' is part of a bare token. In strings \\" stands
for '"' and \\\\ for one backslash; any other backslash is kept with the
character after it. Inside #"..." only \\" is special, so regex escapes
pass through untouched.

One loop reads the tokens into light nodes that carry each token's offset,
and the parsers build each top-level form as soon as it is read; a reader
error later in the text still wins over that form's error. A position is
worked out only for an error or for read_forms' SAtom/SList view: lines
count LF characters from 1, and columns count characters from 1, CR included.

Lists nest at most MAX_NESTING (256) deep; the "(" that would open a deeper
list raises SbplSyntaxError. The reader builds lists on an explicit stack,
so the limit, not Python's recursion limit, bounds what it accepts. Regex
literals carry their own group-nesting limit, rex.MAX_GROUP_NESTING, which
validate_profile applies.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import SandboxError, SbplSyntaxError, UnsupportedConstruct, UnsupportedVersion
from .model import (
    Atom,
    Decision,
    FilterExpr,
    OperationTable,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    Rule,
    ValueForm,
)

MAX_LINE = 78


# ---------------------------------------------------------------------------
# Reader

MAX_NESTING = 256

# One match per token: the blanks and comments before it, then exactly one
# alternative. One of them matches at every position, so the prefix never
# backtracks. A string with no closing quote matches only the empty "bad"
# branch, which comes before the bare token that would otherwise take its "#".
_TOKEN = re.compile(r"""
    [ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*
    (?:
        (?P<open>\()
      | (?P<close>\))
      | (?P<string>(?P<hash>\#?)"(?P<body>[^"\\]*(?:\\.[^"\\]*)*)")
      | (?P<bad>(?=\#?"))
      | (?P<bare>[^ \t\r\n();"]+)
      | (?P<end>\Z)
    )""", re.VERBOSE | re.DOTALL)

_STRING_ESCAPE = re.compile(r'\\([\\"])')


@dataclass(slots=True)
class SAtom:
    text: str
    kind: str  # "symbol" | "string" | "regex" | "int"
    line: int
    column: int


@dataclass(slots=True)
class SList:
    items: tuple
    line: int
    column: int


def _locate(text: str):
    """The function from an offset in text to its (line, column), both from
    1: only LF starts a line, and CR takes a column."""
    starts = list(accumulate((len(line) + 1 for line in text.split("\n")), initial=0))

    def position(offset):
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1
    return position


def _err(text, offset, message, error=SbplSyntaxError):
    raise error(message, *_locate(text)(offset))


def _read(text: str):
    """Yield the top-level forms of text as light nodes, each once it is
    read: (form, value, offset) for an atom, form being its ValueForm
    (NUMBER for an int), and (None, items, offset) for a list."""
    forms = []                   # top-level forms read but not yet yielded
    items = forms                # items of the innermost open list
    stack = []                   # the enclosing items per open list; each ends with its list
    # bare token -> its light node's (ValueForm.NUMBER or SYMBOL, token):
    # each repeat of a token reuses the first one's string, so a profile
    # holds one string per distinct filter name, operation and enum symbol
    kinds = {}
    # every match starts where the previous one ended: one of the
    # alternatives matches at any position
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "bare":
            token = m.group(kind)
            known = kinds.get(token)
            if known is None:
                try:
                    int(token)
                except ValueError:
                    known = kinds[token] = (ValueForm.SYMBOL, token)
                else:
                    known = kinds[token] = (ValueForm.NUMBER, token)
            form, token = known
            items.append((form, token, start))
        elif kind == "open":
            if len(stack) == MAX_NESTING:
                _err(text, start, f"nesting deeper than {MAX_NESTING}")
            inner = []
            items.append((None, inner, start))
            stack.append(items)
            items = inner
        elif kind == "close":
            if not stack:
                _err(text, start, "unexpected )")
            items = stack.pop()
            if not stack:        # a top-level list is complete
                yield from forms
                forms.clear()
        elif kind == "string":
            body = m.group("body")
            if m.group("hash"):
                items.append((ValueForm.REGEX, body.replace('\\"', '"'), start))
            else:
                if "\\" in body:
                    body = _STRING_ESCAPE.sub(r"\1", body)
                items.append((ValueForm.STRING, body, start))
        elif kind == "bad":
            # a regex literal's error points at its quote, one past the "#"
            _err(text, start + (text[start] == "#"), "unterminated string")
        else:
            if stack:
                _err(text, stack[-1][-1][2], "unclosed list")
            yield from forms
            return


def read_forms(text: str) -> list:
    """The top-level forms of text, as SAtom and SList nodes."""
    position = _locate(text)

    def view(node):
        form, value, offset = node
        if form is None:
            return SList(tuple([view(item) for item in value]), *position(offset))
        return SAtom(value, "int" if form is ValueForm.NUMBER else form.value,
                     *position(offset))
    return [view(node) for node in _read(text)]


# ---------------------------------------------------------------------------
# Forms -> Profile

_DECISIONS = {"allow": Decision.ALLOW, "deny": Decision.DENY}


def _parse_filter(node, text) -> FilterExpr:
    kind, items, offset = node
    if kind is not None:
        _err(text, offset, "filter must be a list")
    if not items:
        _err(text, offset, "empty filter")
    head_kind, name, _ = items[0]
    if head_kind is not ValueForm.SYMBOL:
        _err(text, offset, "filter key must be a symbol")
    if name == "require-not":
        if len(items) != 2:
            _err(text, offset, "require-not takes exactly one filter")
        return RequireNot(_parse_filter(items[1], text))
    if name == "require-all" or name == "require-any":
        if len(items) < 2:
            _err(text, offset, f"{name} needs at least one filter")
        children = tuple([_parse_filter(f, text) for f in items[1:]])
        return RequireAll(children) if name == "require-all" else RequireAny(children)
    if len(items) == 2 and items[1][0] is not None:
        form, value, _ = items[1]
        return Atom(name, int(value) if form is ValueForm.NUMBER else value, form)
    if len(items) == 3 and items[1][0] is ValueForm.SYMBOL and items[2][0] is ValueForm.STRING:
        return Atom(name, (items[1][1], items[2][1]), ValueForm.ENDPOINT)
    _err(text, offset, f"cannot read value of filter {name!r}")


def _read_rule(items, offset, text) -> tuple[str, Rule]:
    """The operation and rule of an (allow|deny op filter...) list's items."""
    if len(items) < 2 or items[1][0] is not ValueForm.SYMBOL:
        _err(text, offset, "rule needs an operation name")
    filters = [_parse_filter(f, text) for f in items[2:]]
    if len(filters) > 1:  # sibling filters are require-any sugar; lower at parse time
        filters = [RequireAny(tuple(filters))]
    return items[1][1], Rule(_DECISIONS[items[0][1]], filters[0] if filters else None)


def parse_sbpl(text: str, name: str = "") -> Profile:
    """Parse policy text. Syntax errors raise; semantic problems are left
    for validate_profile so the caller can report them all at once."""
    rules: dict[str, list[Rule]] = {}
    default = None
    forms = _read(text)
    try:
        for kind, items, offset in forms:
            if kind is not None or not items:
                _err(text, offset, "top-level form must be a rule list")
            head_kind, head, _ = items[0]
            if head_kind is not ValueForm.SYMBOL:
                _err(text, offset, "expected a rule")
            if head == "version":
                if len(items) != 2 or items[1][0] is not ValueForm.NUMBER:
                    _err(text, offset, "version takes one integer")
                if int(items[1][1]) != 1:
                    raise UnsupportedVersion(int(items[1][1]))
            elif head in _DECISIONS:
                op, rule = _read_rule(items, offset, text)
                if op == "default" and rule.filter is None and default is None:
                    default = rule.decision
                else:
                    rules.setdefault(op, []).append(rule)
            elif head in ("define", "if", "import", "let", "lambda"):
                _err(text, offset, f"({head} ...) is only valid in the implicit-rules file",
                     UnsupportedConstruct)
            else:
                _err(text, offset, f"unknown rule head {head!r}")
    except SandboxError:
        list(forms)  # a reader error later in the text wins
        raise
    return Profile(
        name=name,
        default_decision=default,
        rules={op: tuple(rs) for op, rs in rules.items()},
    )


# ---------------------------------------------------------------------------
# Profile -> text

def _escape_string(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _escape_regex_text(s: str) -> str:
    return s.replace('"', '\\"')


def format_value(atom: Atom) -> str:
    if atom.form is ValueForm.STRING:
        return f'"{_escape_string(atom.value)}"'
    if atom.form is ValueForm.REGEX:
        return f'#"{_escape_regex_text(atom.value)}"'
    if atom.form is ValueForm.NUMBER:
        return str(atom.value)
    if atom.form is ValueForm.ENDPOINT:
        proto, addr = atom.value
        return f'{proto} "{_escape_string(addr)}"'
    return str(atom.value)  # symbol


def format_filter(expr: FilterExpr) -> str:
    if isinstance(expr, Atom):
        return f"({expr.key} {format_value(expr)})"
    if isinstance(expr, RequireNot):
        return f"(require-not {format_filter(expr.child)})"
    word = "require-all" if isinstance(expr, RequireAll) else "require-any"
    inner = " ".join(format_filter(c) for c in expr.children)
    return f"({word} {inner})"


def _format_filter_block(expr: FilterExpr, indent: int) -> str:
    """Multi-line rendering for filters that do not fit on one line."""
    pad = " " * indent
    flat = format_filter(expr)
    if len(flat) + indent <= MAX_LINE or isinstance(expr, Atom):
        return pad + flat
    if isinstance(expr, RequireNot):
        return (pad + "(require-not\n"
                + _format_filter_block(expr.child, indent + 4) + ")")
    word = "require-all" if isinstance(expr, RequireAll) else "require-any"
    lines = [pad + f"({word}"]
    for c in expr.children:
        lines.append(_format_filter_block(c, indent + 4))
    return "\n".join(lines) + ")"


def format_rule(op: str, rule: Rule) -> str:
    head = f"({rule.decision} {op}"
    if rule.filter is None:
        return head + ")"
    flat = f"{head} {format_filter(rule.filter)})"
    if len(flat) <= MAX_LINE:
        return flat
    return head + "\n" + _format_filter_block(rule.filter, 4) + ")"


def print_sbpl(profile: Profile, table: OperationTable | None = None) -> str:
    """Emit the profile: version clause, default rule, then operations in
    table order (insertion order when no table is given)."""
    if profile.default_decision is None:
        raise SbplSyntaxError("profile has no default decision", 0, 0)
    lines = ["(version 1)", f"({profile.default_decision} default)"]
    ops = list(profile.rules)
    if table is not None:
        ops.sort(key=table.index)
    for op in ops:
        for rule in profile.rules[op]:
            lines.append(format_rule(op, rule))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Implicit-rules file (restricted define/if preamble)

@dataclass(frozen=True)
class ImplicitRule:
    operation: str
    rule: Rule
    condition: tuple | None = None  # parsed guard, None = unconditional


@dataclass(frozen=True)
class ImplicitRuleSet:
    rules: tuple[ImplicitRule, ...]


def _parse_condition(node, text):
    kind, items, offset = node
    if kind is None and items and items[0][0] is ValueForm.SYMBOL:
        head = items[0][1]
        if head == "not" and len(items) == 2:
            return ("not", _parse_condition(items[1], text))
        if head in ("allowed?", "denied?") and len(items) == 2 and items[1][0] is not None:
            return (head, items[1][1])
    _err(text, offset, "unsupported condition in implicit-rules file")


def parse_implicit_rules(text: str) -> ImplicitRuleSet:
    """Parse the implicit-rules file, tolerating its define/if preamble.
    Rules guarded by (if ...) keep their condition for the injection helper;
    cleanup treats every rule as a removal candidate either way. A rule on
    the default operation is a syntax error: the profile sets the default."""
    collected: list[ImplicitRule] = []

    def add_rules(items, offset, condition):
        op, rule = _read_rule(items, offset, text)
        if op == "default":
            _err(text, offset, "implicit-rules file cannot set the default decision")
        collected.append(ImplicitRule(op, rule, condition))

    forms = _read(text)
    try:
        for kind, items, offset in forms:
            if kind is not None or not items:
                _err(text, offset, "top-level form must be a list")
            head_kind, head, _ = items[0]
            if head_kind is not ValueForm.SYMBOL:
                _err(text, offset, "expected a rule")
            if head == "if":
                if len(items) < 3:
                    _err(text, offset, "if needs a condition and a body")
                condition = _parse_condition(items[1], text)
                for body_kind, body, body_offset in items[2:]:
                    if body_kind is not None or not body \
                            or body[0][0] is not ValueForm.SYMBOL or body[0][1] not in _DECISIONS:
                        _err(text, body_offset, "if body must be rules")
                    add_rules(body, body_offset, condition)
            elif head in _DECISIONS:
                add_rules(items, offset, None)
            elif head not in ("version", "define"):  # conditions name define's predicates
                _err(text, offset, f"unknown form {head!r} in implicit-rules file")
    except SandboxError:
        list(forms)  # a reader error later in the text wins
        raise
    return ImplicitRuleSet(tuple(collected))


def condition_holds(condition, profile: Profile) -> bool:
    """Approximate guard evaluation: an operation "can return" a decision if
    the default says so or any of its rules carries that decision."""
    if condition is None:
        return True
    kind = condition[0]
    if kind == "not":
        return not condition_holds(condition[1], profile)
    op = condition[1]
    wanted = Decision.ALLOW if kind == "allowed?" else Decision.DENY
    if profile.default_decision is wanted:
        return True
    return any(r.decision is wanted for r in profile.rules.get(op, ()))
