"""Regex abstract syntax: parser, printer and simplifier.

Supported syntax: literals, ".", "*", "+", "?", "|", "(...)", "[...]" and
"[^...]" with ranges, "^", "$", and backslash escapes for metacharacters.
No capture groups, backreferences, lazy quantifiers or class sugar; patterns
are byte-oriented. Groups nest at most MAX_GROUP_NESTING (128) deep; a
deeper "(" raises RegexSyntaxError at its offset. Quantifiers nest too: the
open groups plus the quantifiers stacked on an atom, counting those nested
inside a group atom, may not exceed the same limit, and the first quantifier
past it raises RegexSyntaxError at its offset. So the recursive-descent
parser, and the printer and automaton builder that recurse on its output,
stay clear of Python's recursion limit; the simplifier, whose rewrites
recurse further, stops at its last finished pass when it would not. Nodes
are hash-consed, so equal nodes are one object and compare by identity.
"""

from __future__ import annotations

import weakref

from .errors import RegexSyntaxError

_META = set(".*+?|()[]^$\\")
MAX_GROUP_NESTING = 128
_live = {}  # (type, *fields) -> weak reference to the live node with them


class _Node:
    """Base of the regex nodes, immutable and hash-consed (Filliatre and
    Conchon, "Type-Safe Modular Hash-Consing", 2006): a node with the type
    and fields of a live one is that node, so == and hash are identity, and
    no output may depend on the order of a set or dict of nodes. A dead
    node's entry leaves _live unless a node built since holds its key."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _live.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            _live[key] = weakref.ref(node, lambda ref, key=key: (
                _live.get(key) is ref and _live.pop(key)))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Empty(_Node):
    __slots__ = ()


class Char(_Node):
    __slots__ = ("byte",)


CHARS = tuple(Char(b) for b in range(0x100))  # kept alive for the parser to index


class AnyChar(_Node):
    __slots__ = ()


class CharClass(_Node):
    __slots__ = ("negated", "ranges")  # ranges: ((lo, hi), ...) sorted, merged, lo <= hi


class AnchorStart(_Node):
    __slots__ = ()


class AnchorEnd(_Node):
    __slots__ = ()


class Concat(_Node):
    __slots__ = ("parts",)


class Alternate(_Node):
    __slots__ = ("options",)


class Star(_Node):
    __slots__ = ("inner",)


class Plus(_Node):
    __slots__ = ("inner",)


class Optional(_Node):
    __slots__ = ("inner",)


RegexAst = _Node  # base of the classes above

# A negated class covering every byte can never match: the canonical
# empty-language pattern (state removal of a dead automaton produces it).
NEVER_MATCH = CharClass(True, ((0x00, 0xFF),))


def _merge_ranges(ranges):
    ranges = sorted(ranges)
    out = [ranges[0]]
    for lo, hi in ranges[1:]:
        plo, phi = out[-1]
        if lo <= phi + 1:
            out[-1] = (plo, max(phi, hi))
        else:
            out.append((lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.depth = 0  # groups open at self.pos
        self.height = 0  # most quantifiers nested in the group being read

    def _fail(self, message):
        raise RegexSyntaxError(message, self.pos)

    def _peek(self):
        return self.pattern[self.pos] if self.pos < len(self.pattern) else ""

    def _byte(self, ch):
        if ord(ch) > 0xFF:
            self._fail(f"non-byte character {ch!r}")
        return ord(ch)

    def parse(self):
        ast = self._alternate()
        if self.pos != len(self.pattern):
            self._fail(f"unexpected {self._peek()!r}")
        return ast

    def _alternate(self):
        options = [self._concat()]
        while self._peek() == "|":
            self.pos += 1
            options.append(self._concat())
        if len(options) == 1:
            return options[0]
        return Alternate(tuple(options))

    def _concat(self):
        parts = []
        while self._peek() not in ("", "|", ")"):
            parts.append(self._repeat())
        if not parts:
            return Empty()
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def _repeat(self):
        ast, height = self._atom()
        while self._peek() in ("*", "+", "?"):
            height += 1
            if self.depth + height > MAX_GROUP_NESTING:
                self._fail(f"quantifiers and groups nested deeper than "
                           f"{MAX_GROUP_NESTING}")
            op = self.pattern[self.pos]
            self.pos += 1
            if op == "*":
                ast = Star(ast)
            elif op == "+":
                ast = Plus(ast)
            else:
                ast = Optional(ast)
        self.height = max(self.height, height)
        return ast

    def _atom(self):
        """The next atom and the most quantifiers nested in it."""
        ch = self._peek()
        if ch == "":
            self._fail("pattern ended where a term was expected")
        if ch == "(":
            if self.depth == MAX_GROUP_NESTING:
                self._fail(f"groups nested deeper than {MAX_GROUP_NESTING}")
            open_pos = self.pos
            outer = self.height
            self.pos += 1
            self.depth += 1
            self.height = 0
            inner = self._alternate()
            if self._peek() != ")":
                self.pos = open_pos
                self._fail("unbalanced (")
            self.pos += 1
            self.depth -= 1
            height, self.height = self.height, outer
            return inner, height
        if ch == "[":
            return self._char_class(), 0
        if ch == ".":
            self.pos += 1
            return AnyChar(), 0
        if ch == "^":
            self.pos += 1
            return AnchorStart(), 0
        if ch == "$":
            self.pos += 1
            return AnchorEnd(), 0
        if ch == "\\":
            self.pos += 1
            if self.pos >= len(self.pattern):
                self._fail("dangling escape")
            lit = self.pattern[self.pos]
            self.pos += 1
            return CHARS[self._byte(lit)], 0
        if ch in ("*", "+", "?", ")", "]"):
            self._fail(f"misplaced {ch!r}")
        self.pos += 1
        return CHARS[self._byte(ch)], 0

    def _class_char(self):
        ch = self._peek()
        if ch in ("", "]"):
            self._fail("unterminated character class")
        self.pos += 1
        if ch == "\\":
            if self.pos >= len(self.pattern):
                self._fail("dangling escape")
            ch = self.pattern[self.pos]
            self.pos += 1
        return self._byte(ch)

    def _char_class(self):
        self.pos += 1  # "["
        negated = False
        if self._peek() == "^":
            negated = True
            self.pos += 1
        ranges = []
        while self._peek() != "]":
            lo = self._class_char()
            if (self._peek() == "-" and self.pos + 1 < len(self.pattern)
                    and self.pattern[self.pos + 1] != "]"):
                self.pos += 1
                hi = self._class_char()
                if hi < lo:
                    self._fail("inverted class range")
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))
        self.pos += 1  # "]"
        if not ranges:
            self._fail("empty character class")
        return CharClass(negated, _merge_ranges(ranges))


def parse_regex(pattern: str) -> RegexAst:
    if pattern == "":
        raise RegexSyntaxError("empty pattern", 0)
    return _Parser(pattern).parse()


# ---------------------------------------------------------------------------
# Printer

_PREC_ALT, _PREC_CAT, _PREC_POST = 0, 1, 2


def _class_char_text(o: int) -> str:
    ch = chr(o)
    if ch in "]\\^-":
        return "\\" + ch
    return ch


def _render(ast, prec) -> str:
    if isinstance(ast, Empty):
        return "()"
    if isinstance(ast, Char):
        ch = chr(ast.byte)
        return "\\" + ch if ch in _META else ch
    if isinstance(ast, AnyChar):
        return "."
    if isinstance(ast, AnchorStart):
        return "^"
    if isinstance(ast, AnchorEnd):
        return "$"
    if isinstance(ast, CharClass):
        body = []
        for lo, hi in ast.ranges:
            if lo == hi:
                body.append(_class_char_text(lo))
            elif hi == lo + 1:
                body.append(_class_char_text(lo) + _class_char_text(hi))
            else:
                body.append(f"{_class_char_text(lo)}-{_class_char_text(hi)}")
        return "[" + ("^" if ast.negated else "") + "".join(body) + "]"
    if isinstance(ast, (Star, Plus, Optional)):
        mark = {"Star": "*", "Plus": "+", "Optional": "?"}[type(ast).__name__]
        return _render(ast.inner, _PREC_POST + 1) + mark
    if isinstance(ast, Concat):
        text = "".join(_render(p, _PREC_CAT) for p in ast.parts)
        return f"({text})" if prec > _PREC_CAT else text
    if isinstance(ast, Alternate):
        text = "|".join(_render(o, _PREC_CAT) for o in ast.options)
        return f"({text})" if prec > _PREC_ALT else text
    raise TypeError(f"not a regex node: {ast!r}")


def print_regex(ast: RegexAst) -> str:
    return _render(ast, _PREC_ALT)


# ---------------------------------------------------------------------------
# Simplifier (used by automaton reversal to recover readable patterns)

def cat(parts) -> RegexAst:
    flat = []
    for p in parts:
        kind = type(p)
        if kind is Concat:
            flat += p.parts
        elif kind is not Empty:
            flat.append(p)
    if not flat:
        return Empty()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(options) -> RegexAst:
    flat = {}  # equal nodes are one object: a dict drops repeats in linear time
    for o in options:
        if type(o) is Alternate:
            flat.update(dict.fromkeys(o.options))
        else:
            flat[o] = None
    if len(flat) == 1:
        return next(iter(flat))
    return Alternate(tuple(flat))


def _as_list(ast):
    return list(ast.parts) if type(ast) is Concat else [ast]


def _simplify_cat(parts):
    """parts with each rewrite below applied. Every rewrite needs a starred
    part, so a caller may skip a list that has none."""
    out = parts[:1]
    for p in parts[1:]:
        prev = out[-1]
        if type(p) is Star:
            if p.inner is prev:
                out[-1] = Plus(p.inner)                   # x x* -> x+
            elif type(prev) is Star and prev.inner is p:
                out[-1] = Plus(p)                         # x* x -> x+
            elif prev is p:
                pass                                      # x* x* -> x*
            elif type(prev) is Plus and prev.inner is p.inner:
                pass                                      # x+ x* -> x+
            else:
                out.append(p)
        elif type(prev) is Star:
            if prev.inner is p:
                out[-1] = Plus(p)                         # x* x -> x+
            elif type(p) is Plus and prev.inner is p.inner:
                out[-1] = p                               # x* x+ -> x+
            else:
                out.append(p)
        else:
            out.append(p)
    return out


def _replace_pair(options, i, j, new):
    out = []
    for n, o in enumerate(options):
        if n == i:
            out.append(new)
        elif n != j:
            out.append(o)
    return out


def _shared(a, b) -> int:
    """How many leading items a and b have in common: equal nodes are one
    object, so this compares identities only."""
    k = 0
    for x, y in zip(a, b):
        if x is not y:
            break
        k += 1
    return k


def _factor_once(options):
    """Factor one shared prefix or suffix out of a pair of alternatives."""
    lists = [_as_list(o) for o in options]
    for i, a in enumerate(lists):
        for j in range(i + 1, len(lists)):
            b = lists[j]
            k = _shared(a, b)
            if k:
                rest = alt([cat(a[k:]), cat(b[k:])])
                return _replace_pair(options, i, j, cat(a[:k] + [rest]))
            k = _shared(reversed(a), reversed(b))
            if k:
                rest = alt([cat(a[:len(a) - k]), cat(b[:len(b) - k])])
                return _replace_pair(options, i, j, cat([rest] + a[len(a) - k:]))
    return None


def _simp_star(inner):
    if isinstance(inner, Empty):
        return Empty()
    if isinstance(inner, (Star, Plus, Optional)):
        return Star(inner.inner)
    return Star(inner)


def _simp_plus(inner):
    if isinstance(inner, Empty):
        return Empty()
    if isinstance(inner, (Star, Optional)):
        return Star(inner.inner)
    if isinstance(inner, Plus):
        return inner
    return Plus(inner)


def _simp_opt(inner):
    if isinstance(inner, Empty):
        return Empty()
    if isinstance(inner, (Star, Optional)):
        return _simp_star(inner.inner)
    if isinstance(inner, Plus):
        return Star(inner.inner)
    return Optional(inner)


_QUANTIFIED = {Star: _simp_star, Plus: _simp_plus, Optional: _simp_opt}
_LEAVES = frozenset((Empty, Char, AnyChar, CharClass, AnchorStart, AnchorEnd))


def _simp(ast, memo):
    """One rewrite pass over a node that is not a leaf. memo maps each node
    rewritten so far to its result: reversal builds a DAG whose subtrees are
    shared, so each is rewritten once. A node that no rewrite changed is
    rebuilt from the same fields, which interning returns as the node
    itself, so a later pass finds it in memo at once."""
    out = memo.get(ast)
    if out is not None:
        return out
    kind = type(ast)
    if kind is Concat:
        parts = [p if type(p) in _LEAVES else _simp(p, memo) for p in ast.parts]
        if Star in map(type, parts):
            parts = _simplify_cat(parts)
        out = cat(parts)
    elif kind is Alternate:
        options = {}  # as in alt, a dict drops repeats in linear time
        has_empty = False
        for o in ast.options:
            if type(o) not in _LEAVES:
                o = _simp(o, memo)
            if type(o) is Empty:
                has_empty = True
            elif type(o) is Alternate:
                options.update(dict.fromkeys(o.options))
            else:
                options[o] = None
        # x | x+ -> x+ ; x | x* -> x* ; x? | x -> x?
        quantified = {o.inner for o in options if type(o) in _QUANTIFIED}
        options = [o for o in options if o not in quantified]
        factored = _factor_once(options) if len(options) > 1 else None
        if factored is not None:
            options = [o if type(o) in _LEAVES else _simp(o, memo) for o in factored]
        if not options:
            out = Empty()
        elif len(options) == 1:
            out = options[0]
        else:
            out = Alternate(tuple(options))
        if has_empty:
            out = _simp_opt(out)
    else:
        inner = ast.inner
        out = _QUANTIFIED[kind](inner if type(inner) in _LEAVES else _simp(inner, memo))
    memo[ast] = out
    return out


def simplify(ast: RegexAst) -> RegexAst:
    """Rewrite passes to a fixed point, at most 30. All passes share one
    memo, and an unchanged subtree is interned back to itself, so a pass
    after the first rewrites only what the one before it changed and the
    pass that confirms the fixed point returns its very input. Every pass
    matches the same strings, so when a pass would recurse too deep (about
    100 nested groups), the last finished pass is returned as it stands.
    Where that cut falls depends on how deep the caller's stack already
    is."""
    memo = {}
    cur = ast
    try:
        for _ in range(30):
            nxt = cur if type(cur) in _LEAVES else _simp(cur, memo)
            if nxt is cur:
                return cur
            cur = nxt
    except RecursionError:
        pass
    return cur
