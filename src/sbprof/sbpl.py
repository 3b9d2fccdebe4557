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
pass through untouched. Lines count LF characters from 1, and columns count
characters from 1, CR included.

Lists nest at most MAX_NESTING (256) deep; the "(" that would open a deeper
list raises SbplSyntaxError. The reader builds lists on an explicit stack,
so the limit, not Python's recursion limit, bounds what it accepts. Regex
literals carry their own group-nesting limit, rex.MAX_GROUP_NESTING, which
validate_profile applies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SbplSyntaxError, UnsupportedConstruct, UnsupportedVersion
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
_DIGIT = re.compile(r"\d")


def _is_int(token: str) -> bool:
    """Exactly whether int(token) succeeds. int() needs a Unicode decimal
    digit, which is what \\d matches, so most symbols skip the exception."""
    if not _DIGIT.search(token):
        return False
    try:
        int(token)
    except ValueError:
        return False
    return True


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


def read_forms(text: str) -> list:
    """The top-level forms of text, as SAtom and SList nodes."""
    forms = []
    items = forms                # items of the innermost open list
    stack = []                   # (enclosing items, line, column) per open list
    line, line_start, counted = 1, 0, 0
    # every match starts where the previous one ended: one of the
    # alternatives matches at any position
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        if kind == "open":
            if len(stack) == MAX_NESTING:
                raise SbplSyntaxError(f"nesting deeper than {MAX_NESTING}", line, column)
            stack.append((items, line, column))
            items = []
        elif kind == "close":
            if not stack:
                raise SbplSyntaxError("unexpected )", line, column)
            outer, list_line, list_column = stack.pop()
            outer.append(SList(tuple(items), list_line, list_column))
            items = outer
        elif kind == "bare":
            token = m.group(kind)
            items.append(SAtom(token, "int" if _is_int(token) else "symbol", line, column))
        elif kind == "string":
            body = m.group("body")
            if m.group("hash"):
                items.append(SAtom(body.replace('\\"', '"'), "regex", line, column))
            else:
                if "\\" in body:
                    body = _STRING_ESCAPE.sub(r"\1", body)
                items.append(SAtom(body, "string", line, column))
        elif kind == "bad":
            # a regex literal's error points at its quote, one past the "#"
            raise SbplSyntaxError("unterminated string", line,
                                  column + (text[start] == "#"))
        else:
            if stack:
                _, list_line, list_column = stack[-1]
                raise SbplSyntaxError("unclosed list", list_line, list_column)
            return forms


# ---------------------------------------------------------------------------
# Forms -> Profile

def _err(form, message):
    raise SbplSyntaxError(message, form.line, form.column)


def _parse_filter(form) -> FilterExpr:
    if not isinstance(form, SList):
        _err(form, "filter must be a list")
    if not form.items:
        _err(form, "empty filter")
    head = form.items[0]
    if not isinstance(head, SAtom) or head.kind != "symbol":
        _err(form, "filter key must be a symbol")
    name = head.text
    if name == "require-not":
        if len(form.items) != 2:
            _err(form, "require-not takes exactly one filter")
        return RequireNot(_parse_filter(form.items[1]))
    if name in ("require-all", "require-any"):
        if len(form.items) < 2:
            _err(form, f"{name} needs at least one filter")
        children = tuple(_parse_filter(f) for f in form.items[1:])
        cls = RequireAll if name == "require-all" else RequireAny
        return cls(children)
    args = form.items[1:]
    if len(args) == 1 and isinstance(args[0], SAtom):
        arg = args[0]
        if arg.kind == "string":
            return Atom(name, arg.text, ValueForm.STRING)
        if arg.kind == "regex":
            return Atom(name, arg.text, ValueForm.REGEX)
        if arg.kind == "int":
            return Atom(name, int(arg.text), ValueForm.NUMBER)
        return Atom(name, arg.text, ValueForm.SYMBOL)
    if (len(args) == 2 and isinstance(args[0], SAtom) and args[0].kind == "symbol"
            and isinstance(args[1], SAtom) and args[1].kind == "string"):
        return Atom(name, (args[0].text, args[1].text), ValueForm.ENDPOINT)
    _err(form, f"cannot read value of filter {name!r}")


def _read_rule(form) -> tuple[str, Rule]:
    """The operation and rule of an (allow|deny op filter...) form."""
    if len(form.items) < 2 or not isinstance(form.items[1], SAtom) \
            or form.items[1].kind != "symbol":
        _err(form, "rule needs an operation name")
    filters = [_parse_filter(f) for f in form.items[2:]]
    if len(filters) > 1:  # sibling filters are require-any sugar; lower at parse time
        filters = [RequireAny(tuple(filters))]
    decision = Decision(form.items[0].text)
    return form.items[1].text, Rule(decision, filters[0] if filters else None)


def parse_sbpl(text: str, name: str = "") -> Profile:
    """Parse policy text. Syntax errors raise; semantic problems are left
    for validate_profile so the caller can report them all at once."""
    rules: dict[str, list[Rule]] = {}
    default = None
    for form in read_forms(text):
        if not isinstance(form, SList) or not form.items:
            _err(form, "top-level form must be a rule list")
        head = form.items[0]
        if not isinstance(head, SAtom) or head.kind != "symbol":
            _err(form, "expected a rule")
        if head.text == "version":
            if len(form.items) != 2 or not isinstance(form.items[1], SAtom) \
                    or form.items[1].kind != "int":
                _err(form, "version takes one integer")
            if int(form.items[1].text) != 1:
                raise UnsupportedVersion(int(form.items[1].text))
            continue
        if head.text in ("allow", "deny"):
            op, rule = _read_rule(form)
            if op == "default" and rule.filter is None and default is None:
                default = rule.decision
            else:
                rules.setdefault(op, []).append(rule)
            continue
        if head.text in ("define", "if", "import", "let", "lambda"):
            raise UnsupportedConstruct(
                f"({head.text} ...) is only valid in the implicit-rules file",
                form.line, form.column)
        _err(form, f"unknown rule head {head.text!r}")
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
    default_decision: Decision | None = None


def _parse_condition(form):
    if isinstance(form, SList) and form.items:
        head = form.items[0]
        if isinstance(head, SAtom) and head.kind == "symbol":
            if head.text == "not" and len(form.items) == 2:
                return ("not", _parse_condition(form.items[1]))
            if head.text in ("allowed?", "denied?") and len(form.items) == 2 \
                    and isinstance(form.items[1], SAtom):
                return (head.text, form.items[1].text)
    _err(form, "unsupported condition in implicit-rules file")


def parse_implicit_rules(text: str) -> ImplicitRuleSet:
    """Parse the implicit-rules file, tolerating its define/if preamble.
    Rules guarded by (if ...) keep their condition for the injection helper;
    cleanup treats every rule as a removal candidate either way."""
    collected: list[ImplicitRule] = []
    default = None

    def add_rules(form, condition):
        nonlocal default
        op, rule = _read_rule(form)
        if op == "default" and rule.filter is None:
            default = rule.decision
        else:
            collected.append(ImplicitRule(op, rule, condition))

    for form in read_forms(text):
        if not isinstance(form, SList) or not form.items:
            _err(form, "top-level form must be a list")
        head = form.items[0]
        if not isinstance(head, SAtom):
            _err(form, "expected a rule")
        if head.text == "version":
            continue
        if head.text == "define":
            continue  # helper predicates; the conditions below name them directly
        if head.text == "if":
            if len(form.items) < 3:
                _err(form, "if needs a condition and a body")
            condition = _parse_condition(form.items[1])
            for body in form.items[2:]:
                if isinstance(body, SList) and body.items and \
                        isinstance(body.items[0], SAtom) and \
                        body.items[0].text in ("allow", "deny"):
                    add_rules(body, condition)
                else:
                    _err(body, "if body must be rules")
            continue
        if head.text in ("allow", "deny"):
            add_rules(form, None)
            continue
        _err(form, f"unknown form {head.text!r} in implicit-rules file")
    return ImplicitRuleSet(tuple(collected), default)


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
