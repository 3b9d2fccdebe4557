"""Core policy model: decisions, vocabularies, filter expressions, profiles.

All types here are immutable after construction and safe to share across
threads. The compiler, decompiler and evaluator all work on this model.
Atoms, combinators and rules are slotted (no per-instance __dict__), since a
container-scale profile holds thousands of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Union

from . import nfa  # imports only errors and rex, so there is no cycle
from .errors import RegexSyntaxError, UnknownFilterKey, UnknownOperation, VocabularyError

REGEX_KEY_FLAG = 0x80  # high bit of a filter key code marks the regex variant


class Decision(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"

    def negate(self) -> "Decision":
        return Decision.DENY if self is Decision.ALLOW else Decision.ALLOW

    def __str__(self) -> str:
        return self.value


class ValueKind(enum.Enum):
    """How a filter's 16-bit serialized value is interpreted."""

    LITERAL_STRING = "literal_string"    # pool index of a length-prefixed string
    REGEX_INDEX = "regex_index"          # pool index of a serialized automaton
    ENUM_NAMED = "enum_named"            # named constant code
    NUMERIC = "numeric"                  # raw 16-bit number
    NETWORK_ENDPOINT = "network_endpoint"  # pool index of "proto host:port"


@dataclass(frozen=True)
class FilterKey:
    """One vocabulary entry: a filter key name and its wire encoding.

    context_key names the runtime binding the filter tests; several keys may
    test the same binding (e.g. literal and regex both test "path").
    value_names maps each enum value code to its first name in
    named_values, so a decoder reads a name with one lookup.
    """

    name: str
    code: int
    kind: ValueKind
    named_values: Mapping[str, int] | None = None
    context_key: str = ""
    value_names: Mapping[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.context_key:
            object.__setattr__(self, "context_key", self.name)
        names = {}
        for name, value in (self.named_values or {}).items():
            names.setdefault(value, name)
        object.__setattr__(self, "value_names", names)


@dataclass(frozen=True)
class FilterVocabulary:
    entries: tuple[FilterKey, ...]

    def __post_init__(self):
        names = {}
        codes = {}
        for e in self.entries:
            if e.name in names:
                raise VocabularyError(f"duplicate filter name {e.name!r}")
            if e.code in codes:
                raise VocabularyError(f"duplicate filter code 0x{e.code:02x}")
            names[e.name] = e
            codes[e.code] = e
            if not 0 <= e.code <= 0xFF:
                raise VocabularyError(f"filter code out of range: {e.code}")
            if e.kind is ValueKind.ENUM_NAMED:
                if not e.named_values:
                    raise VocabularyError(f"{e.name}: enum filter without values")
                if len(set(e.named_values.values())) != len(e.named_values):
                    raise VocabularyError(f"{e.name}: duplicate enum value codes")
                for value, code in e.named_values.items():
                    if not 0 <= code <= 0xFFFF:
                        raise VocabularyError(f"{e.name}: enum value {value} code "
                                              f"out of range: {code}")
            # The regex/literal split rides on the high bit of the key code.
            if e.kind is ValueKind.REGEX_INDEX and not e.code & REGEX_KEY_FLAG:
                raise VocabularyError(f"{e.name}: regex filter code needs high bit set")
            if e.kind is ValueKind.LITERAL_STRING and e.code & REGEX_KEY_FLAG:
                raise VocabularyError(f"{e.name}: literal filter code has high bit set")
        object.__setattr__(self, "_by_name", names)
        object.__setattr__(self, "_by_code", codes)

    def by_name(self, name: str) -> FilterKey:
        entry = self._by_name.get(name)
        if entry is None:
            raise UnknownFilterKey(name)
        return entry

    def by_code(self, code: int) -> FilterKey:
        entry = self._by_code.get(code)
        if entry is None:
            raise UnknownFilterKey(f"0x{code:02x}")
        return entry

    def has_name(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class OperationTable:
    """Ordered operation names; list position is the wire index.

    parents_first lists every operation once, each after its ancestors,
    otherwise in table order."""

    entries: tuple[str, ...]
    # op name -> parent op name; consulted only for operations with no rules
    parents: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.entries or self.entries[0] != "default":
            raise VocabularyError('operation table must start with "default"')
        positions = {name: i for i, name in enumerate(self.entries)}
        if len(positions) != len(self.entries):
            raise VocabularyError("duplicate operation names")
        object.__setattr__(self, "_positions", positions)
        for child, parent in self.parents.items():
            if child not in positions or parent not in positions:
                raise VocabularyError(f"parent link {child} -> {parent} names unknown op")
        # one walk lists every operation after its ancestors, else in table
        # order, and rejects parent cycles on the way: a chain of ancestors
        # longer than the table has gone round a cycle
        order = {}
        for op in self.entries:
            chain = []  # op's ancestors not yet listed, nearest first
            up = self.parents.get(op)
            while up is not None and up not in order:
                if len(chain) == len(self.entries):
                    raise VocabularyError(f"parent cycle through {up!r}")
                chain.append(up)
                up = self.parents.get(up)
            if chain:
                order.update(dict.fromkeys(reversed(chain)))
            order[op] = None
        object.__setattr__(self, "parents_first", tuple(order))

    def index(self, name: str) -> int:
        position = self._positions.get(name)
        if position is None:
            raise UnknownOperation(name)
        return position

    def __len__(self) -> int:
        return len(self.entries)

    def owners(self, rules: Mapping[str, tuple]) -> dict:
        """The operation whose rules each operation follows: itself if it has
        rules, else its nearest ancestor through parents that has rules, else
        None. The default operation follows none, so its descendants inherit
        none from it: the default decision decides it. One pass, in
        parents_first order."""
        owner = {}
        for op in self.parents_first:
            owner[op] = (None if op == "default" else op if rules.get(op)
                         else owner.get(self.parents.get(op)))
        return owner


# ---------------------------------------------------------------------------
# Filter expressions

class ValueForm(enum.Enum):
    """Surface syntax of an atom value, preserved so printing is lossless."""

    STRING = "string"      # (literal "/bin/ls")
    SYMBOL = "symbol"      # (vnode-type REGULAR-FILE)
    REGEX = "regex"        # (regex #"/bin/*")
    NUMBER = "number"      # (file-mode 438)
    ENDPOINT = "endpoint"  # (remote tcp "localhost:22")


AtomValue = Union[str, int, tuple]


@dataclass(frozen=True, slots=True)
class Atom:
    key: str
    value: AtomValue
    form: ValueForm = ValueForm.STRING


@dataclass(frozen=True, slots=True)
class RequireAll:
    children: tuple


@dataclass(frozen=True, slots=True)
class RequireAny:
    children: tuple


@dataclass(frozen=True, slots=True)
class RequireNot:
    child: "FilterExpr"


FilterExpr = Union[Atom, RequireAll, RequireAny, RequireNot]


def _expr_sort_key(expr: FilterExpr, vocab: FilterVocabulary | None):
    if isinstance(expr, Atom):
        if vocab is not None and vocab.has_name(expr.key):
            key_part = (0, vocab.by_name(expr.key).code, "")
        else:
            key_part = (1, 0, expr.key)
        return (0, key_part, repr(expr.value))
    if isinstance(expr, RequireNot):
        return (1, _expr_sort_key(expr.child, vocab), "")
    rank = 2 if isinstance(expr, RequireAll) else 3
    return (rank, tuple(_expr_sort_key(c, vocab) for c in expr.children), "")


def canonicalize(expr: FilterExpr, vocab: FilterVocabulary | None = None) -> FilterExpr:
    """Structural normal form: flattened, double-negation free, sorted.

    Children of require-all/require-any are flattened into their parent when
    the combinator matches, deduplicated and ordered by (key code, value);
    single-child combinators collapse. Idempotent.
    """
    if isinstance(expr, Atom):
        return expr
    if isinstance(expr, RequireNot):
        child = canonicalize(expr.child, vocab)
        if isinstance(child, RequireNot):
            return child.child
        return RequireNot(child)
    cls = type(expr)
    flat = []
    for c in expr.children:
        c = canonicalize(c, vocab)
        if isinstance(c, cls):
            flat.extend(c.children)
        else:
            flat.append(c)
    unique = []
    for c in flat:
        if c not in unique:
            unique.append(c)
    unique.sort(key=lambda c: _expr_sort_key(c, vocab))
    if len(unique) == 1:
        return unique[0]
    return cls(tuple(unique))


def expr_atoms(expr: FilterExpr):
    """Yield every atom in the expression tree."""
    if isinstance(expr, Atom):
        yield expr
    elif isinstance(expr, RequireNot):
        yield from expr_atoms(expr.child)
    else:
        for c in expr.children:
            yield from expr_atoms(c)


# ---------------------------------------------------------------------------
# Rules and profiles

@dataclass(frozen=True, slots=True)
class Rule:
    decision: Decision
    filter: FilterExpr | None = None  # None = unconditional


@dataclass(frozen=True)
class Profile:
    """A named policy: default decision plus per-operation rule lists.

    rules maps operation name -> rules in source order. The default
    operation's single unconditional rule is stored as default_decision
    (None when the source had no default rule; validate_profile flags it).
    """

    name: str
    default_decision: Decision | None
    rules: Mapping[str, tuple[Rule, ...]]


@dataclass(frozen=True)
class Diagnostic:
    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


def _check_expr(expr, op, vocab, out, held):
    if isinstance(expr, Atom):
        try:
            entry = vocab.by_name(expr.key)
        except UnknownFilterKey:
            out.append(Diagnostic("UnknownFilterKey", op, f"filter key {expr.key!r}"))
            return
        kind = entry.kind
        if kind is ValueKind.NUMERIC:
            if not isinstance(expr.value, int) or not 0 <= expr.value <= 0xFFFF:
                out.append(Diagnostic("BadValue", op,
                                      f"{expr.key}: expected 16-bit number, got {expr.value!r}"))
        elif kind is ValueKind.ENUM_NAMED:
            if expr.value not in (entry.named_values or {}):
                out.append(Diagnostic("UnknownFilterValue", op,
                                      f"{expr.key}: {expr.value!r}"))
        elif kind is ValueKind.REGEX_INDEX:
            if expr.form is not ValueForm.REGEX or not isinstance(expr.value, str):
                out.append(Diagnostic("BadValue", op,
                                      f"{expr.key}: expected a regex pattern"))
            else:
                try:
                    held.append(nfa.pattern(expr.value))
                except RegexSyntaxError as exc:
                    out.append(Diagnostic("BadRegex", op, f"{expr.key}: {exc}"))
        elif kind is ValueKind.NETWORK_ENDPOINT:
            if not (isinstance(expr.value, tuple) and len(expr.value) == 2):
                out.append(Diagnostic("BadValue", op,
                                      f"{expr.key}: expected (proto, address)"))
        else:  # literal string
            if not isinstance(expr.value, str):
                out.append(Diagnostic("BadValue", op,
                                      f"{expr.key}: expected a string, got {expr.value!r}"))
    elif isinstance(expr, RequireNot):
        _check_expr(expr.child, op, vocab, out, held)
    else:
        if not expr.children:
            out.append(Diagnostic("EmptyMetafilter", op,
                                  f"{type(expr).__name__} with no children"))
        for c in expr.children:
            _check_expr(c, op, vocab, out, held)


MISSING_DEFAULT = Diagnostic("MissingDefault", "default",
                             "profile has no (allow|deny default) rule")


def validate_profile(profile: Profile, table: OperationTable,
                     vocab: FilterVocabulary, held: list | None = None) -> list[Diagnostic]:
    """Collect every invariant violation. An empty list means compile gets
    past validation; it can still raise TooManyStates (a regex too big for
    16-bit node indexes), CapacityExceeded (a pool string or the whole blob
    past 16-bit sizes) or SandboxError (a string UTF-8 cannot encode). held,
    if given, gets the nfa.Pattern of each regex that parses."""
    out: list[Diagnostic] = []
    held = [] if held is None else held
    if profile.default_decision is None:
        out.append(MISSING_DEFAULT)
    for op, rules in profile.rules.items():
        if op == "default":
            out.append(Diagnostic("BadDefaultRule", op,
                                  "default takes a bare decision, nothing else"))
            continue
        if op not in table.entries:
            out.append(Diagnostic("UnknownOperation", op, "not in operation table"))
        reachable = True
        for rule in rules:
            if not reachable:
                out.append(Diagnostic("UnreachableRule", op,
                                      "rule after an unconditional rule"))
                break
            if rule.filter is not None:
                _check_expr(rule.filter, op, vocab, out, held)
            else:
                reachable = False
    return out
