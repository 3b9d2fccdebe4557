"""Nondeterministic automata: construction, the lazy DFA behind every
language operation, the serialized wire format, and reversal back to regex
text via state removal.

Matching and the evaluator's sample walk both run on LazyDfa, a lazily
determinized automaton in the manner of RE2 (Thompson, CACM 1968; Cox,
"Regular Expression Matching Can Be Simple And Fast", 2007). It has one
semantics, the filter's: a string matches when some substring does, with `^`
and `$` pinned to the string's ends. Each Nfa is compiled once. The anchors
are position predicates: `^` is applied only when the initial state is built
and `$` only through each state's accepts-at-end bit. Matching computes
transitions on first use and memoizes them per byte class: classes are cut
at every Char/CharClass bound, and all code points above 0xFF share one
class. Each consuming edge carries an int mask of the classes its label
matches, so a step tests bits instead of labels. The walks seldom take a
step twice, so they step states without the cache, through one stepper per
walk (LazyDfa.stepper, which successors shares): it computes the letters'
class bits once, buckets the destinations of a state's consuming edges by
class in one pass, and computes the epsilon closure of each distinct set of
NFA states stepped to once for the whole walk.
can_accept_within bounds from below how many characters a state needs to
reach acceptance, from per-state distances that a backward breadth-first
walk stopped at the depth asked for fills; the evaluator's sample walk drops
states that cannot accept within the characters it has left. At most
DFA_STATE_CAP states are cached per automaton; past that the cache is
flushed and refilled, so hostile blobs keep memory bounded.

The regex memo at the end of the module keeps each pattern text's and each
wire program's artifacts (AST, wire bytes, NFA, LazyDfa, reversed text) for
the whole process, at most MEMO_CAPACITY of each, so a regex that many calls
and profiles share is parsed, reversed and warmed once; the bound holds the
about 180 texts and as many wires of one container profile's round trip,
in a cycle that a smaller LRU bound would miss on every access. As in RE2,
each regex is compiled once: the writer hands the Program of each wire it
writes the Nfa its records decode to, so only a wire from outside the
process is decoded, and validated. There is one automaton per regex: a
pattern text holds the Program of its own wire and matches through its
LazyDfa, so a text, its compiled pool item and the evaluators of either
share one DFA cache and one list of samples. A pattern text or program
longer than MEMO_KEY_LIMIT is built on every call and lives only as long as
its caller holds it.

Wire format (documented bit-exactly in docs/format.md): a u16-le node count,
then one record per node, a 1-byte tag and a 2-byte le operand, or for a
class a range-count byte and (lo, hi) byte pairs. A jump forks: control goes
on at the next node and at the target, lower for a backward jump and higher
for a forward one. A class with no ranges is a dead end.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import sys
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .errors import MalformedRegexBlob, TooManyStates
from . import rex
from .rex import (
    AnchorEnd,
    AnchorStart,
    AnyChar,
    Char,
    CharClass,
    Concat,
    Empty,
    Alternate,
    Optional,
    Plus,
    Star,
)

TAG_ACCEPT = 0x01
TAG_CHAR = 0x02
TAG_ANY = 0x03
TAG_LINE_START = 0x04
TAG_LINE_END = 0x05
TAG_JUMP_FWD = 0x06
TAG_JUMP_BCK = 0x07
TAG_CLASS = 0x08
TAG_CLASS_NEG = 0x09

MAX_NODES = 0xFFFF
REVERSAL_GLUE_BUDGET = 1 << 14  # glue steps one reversal may take

_EPSILON = Empty()
_CONSUMING = (Char, AnyChar, CharClass)  # the label types that read a char
_LEAVES = (*_CONSUMING, AnchorStart, AnchorEnd)  # the nodes that are one edge


@dataclass(frozen=True)
class Nfa:
    """Automaton with labelled edges. Labels are regex leaves: Empty is an
    epsilon edge, anchors are position predicates, the rest consume a char."""

    n_states: int
    transitions: tuple  # ((src, label, dst), ...)
    start: int
    accepts: frozenset

    def __post_init__(self):
        assert 0 <= self.start < self.n_states
        for src, _label, dst in self.transitions:
            assert 0 <= src < self.n_states and 0 <= dst < self.n_states


# ---------------------------------------------------------------------------
# Thompson-style construction

def build_nfa(ast) -> Nfa:
    transitions = []
    edge = transitions.append  # of (src, label, dst)
    counter = itertools.count()  # hands out state numbers
    new = counter.__next__

    def build(a):
        kind = type(a)
        if kind in _LEAVES:
            s, t = new(), new()
            edge((s, a, t))
            return s, t
        if kind is Concat:
            first_in, out = build(a.parts[0])
            for part in a.parts[1:]:
                nxt_in, nxt_out = build(part)
                edge((out, _EPSILON, nxt_in))
                out = nxt_out
            return first_in, out
        if kind is Empty:
            s = new()
            return s, s
        if kind is Alternate:
            s, t = new(), new()
            for opt in a.options:
                i, o = build(opt)
                edge((s, _EPSILON, i))
                edge((o, _EPSILON, t))
            return s, t
        if kind is Star:
            hub = new()
            i, o = build(a.inner)
            edge((hub, _EPSILON, i))
            edge((o, _EPSILON, hub))
            return hub, hub
        if kind is Plus:
            i, o = build(a.inner)
            edge((o, _EPSILON, i))
            return i, o
        if kind is Optional:
            s = new()
            i, o = build(a.inner)
            edge((s, _EPSILON, i))
            edge((s, _EPSILON, o))
            return s, o
        raise TypeError(f"not a regex node: {a!r}")

    start, out = build(ast)
    build = None  # break the closure's own reference cycle: frees it at once
    return Nfa(next(counter), tuple(transitions), start, frozenset([out]))


# ---------------------------------------------------------------------------
# Lazy DFA: the one engine behind matching and every bounded-language walk

DFA_STATE_CAP = 512  # cached DFA states per automaton before a flush

_UNKNOWN = -1  # transition not computed yet; a stop is stored as -2 - state
_FAR = sys.maxsize  # distance of a state that cannot reach acceptance
_BYTES = tuple(bytes((b,)) for b in range(0x100))  # each one byte long


def _close(states, edges, closed=()) -> tuple:
    """Sorted tuple of closed, of states and of all states reachable from
    states along edges[q], the states one non-consuming edge away from q.
    closed must be closed already: its states are not followed."""
    seen = set(closed)
    stack = [q for q in states if q not in seen]
    seen.update(stack)
    while stack:
        for dst in edges[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return tuple(sorted(seen))


def _with_edges(adjacency, extra) -> list:
    """adjacency with the (src, label, dst) edges of extra added, sharing
    every list that extra leaves as it was."""
    if not extra:
        return adjacency
    out = adjacency[:]
    for src, _label, dst in extra:
        out[src] = [*out[src], dst]
    return out


class LazyDfa:
    """Subset automaton of an Nfa, determinized on demand as in RE2, that
    matches under the filter semantics nfa_match describes.

    A state key is the sorted tuple of its NFA states, closed over epsilon
    edges with both anchors shut, so a step costs what the state holds.
    Each step re-adds the start state's closure, so a match may begin
    anywhere. The cache is one flat list of rows [key, accepts at end, next
    state per byte class]; a state is the index of its first class slot.
    The initial state holds the first row, again after every flush, so a
    match starts without hashing a key. A transition into a state that
    holds an accept decides the match and is stored as -2 - state.

    samples is None until evaluate.build_universe stores the automaton's
    universe samples there, so they live exactly as long as the automaton.
    """

    __slots__ = ("labels", "_edges", "_first", "_eps", "_accepts", "_end",
                 "_init", "_init_hit", "_restart", "_empty_ok",
                 "_cmap", "_top", "_width", "_ids", "_rows", "_near",
                 "_near_depth", "flushes", "samples")

    def __init__(self, nfa: Nfa):
        n = nfa.n_states
        eps = [[] for _ in range(n)]      # closure with both anchors shut
        rev_eol = [[] for _ in range(n)]  # reversed epsilon and $ edges
        starts, ends, edges = [], [], []  # the ^, the $ and the consuming edges
        for edge in nfa.transitions:
            kind = type(edge[1])
            if kind in _CONSUMING:
                edges.append(edge)
            elif kind is AnchorStart:
                starts.append(edge)
            elif kind is AnchorEnd:
                ends.append(edge)
            else:
                src, _label, dst = edge
                eps[src].append(dst)
                rev_eol[dst].append(src)
        for src, _label, dst in ends:
            rev_eol[dst].append(src)
        edges.sort(key=operator.itemgetter(0))
        # state q's consuming edges are _edges[_first[q]:_first[q + 1]], each
        # (mask of the byte classes its label matches, destination): ints
        # only, so the collector stops tracking them, and the labels apart.
        # Labels are hash-consed, so each distinct one is read once.
        self.labels = tuple([label for _src, label, _dst in edges])
        masks = dict.fromkeys(self.labels)
        chars = [label.byte for label in masks if type(label) is Char]
        cuts = {0, 0x100, *chars, *[byte + 1 for byte in chars]}
        for label in masks:
            if type(label) is CharClass:
                for lo, hi in label.ranges:
                    cuts.update((lo, hi + 1))
        bounds = sorted(cuts)
        self._cmap = b"".join([_BYTES[c] * (hi - lo) for c, (lo, hi)
                               in enumerate(zip(bounds, bounds[1:]))])
        self._top = len(cuts) - 1     # the class of every code point > 0xFF
        self._width = len(cuts) + 2   # key, accepts at end, one slot a class
        for label in masks:
            masks[label] = self._class_mask(label)
        self._edges = tuple([(masks[label], dst) for _src, label, dst in edges])
        first = [0] * (n + 1)
        for q, _label, _dst in edges:
            first[q + 1] += 1
        self._first = tuple(itertools.accumulate(first))
        self._eps = tuple(map(tuple, eps))
        self._accepts = nfa.accepts
        self._end = end = bytearray(n)  # 1 for each state that accepts at end
        for q in _close(nfa.accepts, rev_eol):
            end[q] = 1
        start = [nfa.start]
        self._restart = _close(start, eps)  # what every step re-adds
        # the initial state opens ^, and the empty string both anchors
        bol = _with_edges(eps, starts)
        self._init = _close(start, bol) if starts else self._restart
        both = _close(start, _with_edges(bol, ends)) if ends else self._init
        self._init_hit = not nfa.accepts.isdisjoint(self._init)
        self._empty_ok = not nfa.accepts.isdisjoint(both)
        self._ids = {}
        self._rows = []
        self._pin()
        self._near, self._near_depth = None, -1  # built by can_accept_within
        self.flushes = 0
        self.samples = None

    def _class_mask(self, label) -> int:
        """Bitmask of the byte classes a consuming label matches."""
        every = (2 << self._top) - 1
        kind = type(label)
        if kind is Char:
            return 1 << self._cmap[label.byte]
        if kind is AnyChar:
            return every
        cmap = self._cmap
        mask = 0
        for lo, hi in label.ranges:  # a range covers whole classes
            mask |= (2 << cmap[hi]) - (1 << cmap[lo])
        return every ^ mask if label.negated else mask

    @property
    def cached_states(self) -> int:
        """Number of DFA states in the cache, at most DFA_STATE_CAP."""
        return len(self._ids)

    def initial(self) -> tuple:
        """Key of the state before any character is read."""
        return self._init

    def accepts_at_end(self, key: tuple, at_start: bool = False) -> bool:
        """Whether input that ends in state key is accepted. at_start: key is
        the initial state and nothing was read, so `^` holds as well."""
        return self._empty_ok if at_start else any(map(self._end.__getitem__, key))

    def class_letters(self, letters) -> list:
        """The first of letters, in sorted order, of each byte class they
        fall in, in sorted order: from any state, a later letter of a class
        steps to the state its first letter steps to."""
        firsts = {}  # filled in sorted order, so its values stay sorted
        cmap, top = self._cmap, self._top
        for ch in sorted(letters):
            o = ord(ch)
            firsts.setdefault(cmap[o] if o < 0x100 else top, ch)
        return list(firsts.values())

    def successors(self, key: tuple, letters) -> list:
        """Keys of the states after reading each of letters in state key."""
        return self.stepper(letters)(key)

    def stepper(self, letters):
        """step(key): the keys of the states after reading each of letters
        in state key, the same as successors(key, letters). Walks reach
        most states once, so this bypasses the cache. Each letter's class
        bit is computed once per stepper. One pass over a state's consuming
        edges spreads each destination over the bits of its mask that the
        letters' classes hold, and letters whose classes lead to the same
        set of NFA states share one epsilon closure, which the stepper
        computes once for all the states it steps."""
        cmap, top = self._cmap, self._top
        bits = [1 << (cmap[o] if o < 0x100 else top) for o in map(ord, letters)]
        wanted = reduce(operator.or_, bits, 0)
        edges, first, eps, restart = self._edges, self._first, self._eps, self._restart
        closures = {}  # frozenset of the NFA states stepped to -> the key after them

        def step(key):
            stepped = {}  # class bit -> the NFA states it steps to
            for q in key:
                for mask, dst in edges[first[q]:first[q + 1]]:
                    mask &= wanted
                    while mask:
                        bit = mask & -mask
                        mask ^= bit
                        if bit in stepped:
                            stepped[bit].append(dst)
                        else:
                            stepped[bit] = [dst]
            for bit, dsts in stepped.items():
                dsts = frozenset(dsts)
                nxt = closures.get(dsts)
                if nxt is None:
                    nxt = closures[dsts] = _close(dsts, eps, restart)
                stepped[bit] = nxt
            # a letter that steps to no NFA state restarts the match
            return [stepped.get(bit, restart) for bit in bits]

        return step

    def can_accept_within(self, key: tuple, n: int) -> bool:
        """False only if no string of at most n characters leads from state
        key to a state that accepts at end (accepts_at_end without at_start).
        The bound is the fewest consuming NFA edges from a state of key to
        one of _end, epsilon edges with both anchors shut costing none. A
        key always holds the restart closure, so the start state that each
        step re-adds needs no term of its own."""
        if n > self._near_depth:
            self._build_near(n)
        return min(map(self._near.__getitem__, key), default=_FAR) <= n

    def _build_near(self, n: int) -> None:
        """Set _near[q] to the fewest consuming edges from state q to _end
        if that is at most n, else to _FAR: a backward breadth-first walk,
        stopped after n layers so it stays linear on the largest automata."""
        size = len(self._eps)
        rev = [[] for _ in range(size)]      # reversed consuming edges
        rev_eps = [[] for _ in range(size)]  # reversed epsilon edges
        first = self._first
        src = 0  # the state that _edges[i] leaves: _edges is sorted by it
        for i, (_mask, dst) in enumerate(self._edges):
            while first[src + 1] <= i:
                src += 1
            rev[dst].append(src)
        for q, dsts in enumerate(self._eps):
            for dst in dsts:
                rev_eps[dst].append(q)
        near = [_FAR] * size
        layer = [q for q, end in enumerate(self._end) if end]
        for q in layer:
            near[q] = 0
        depth = n
        for k in range(1, n + 1):
            found = []
            for q in layer:
                for p in rev[q]:
                    if near[p] == _FAR:
                        near[p] = k
                        found.append(p)
            for p in found:  # grows while it is read: the epsilon closure
                for r in rev_eps[p]:
                    if near[r] == _FAR:
                        near[r] = k
                        found.append(r)
            if not found:  # every later layer would be the same
                depth = sys.maxsize
                break
            layer = found
        self._near = near
        self._near_depth = depth

    def match(self, s: str) -> bool:
        """Whether s is accepted; nfa_match describes the semantics."""
        if not s:
            return self._empty_ok
        if self._init_hit:
            return True
        try:
            classes = s.encode("latin-1").translate(self._cmap)
        except UnicodeEncodeError:
            classes = [self._cmap[o] if o < 0x100 else self._top
                       for o in map(ord, s)]
        rows = self._rows  # flushed in place, so this stays the cache
        st = 2  # the pinned initial row
        for c in classes:
            nxt = rows[st + c]
            if nxt < 0:
                if nxt == _UNKNOWN:
                    nxt = self._fill(st, c)
                if nxt < 0:
                    return True  # the state holds an accept
            st = nxt
        return rows[st - 1]

    def _pin(self) -> None:
        """Empty the cache but for the initial state."""
        self._ids.clear()
        self._rows.clear()
        self._intern(self._init)

    def _intern(self, key: tuple) -> int:
        st = self._ids.get(key)
        if st is None:  # so key is not the initial state, which stays pinned
            if len(self._ids) >= DFA_STATE_CAP:
                self.flushes += 1
                self._pin()
            st = len(self._rows) + 2
            self._ids[key] = st
            self._rows += [key, self.accepts_at_end(key)]
            self._rows += [_UNKNOWN] * (self._width - 2)
        return st

    def _fill(self, st: int, c: int) -> int:
        """Compute and memoize the transition of state st on class c."""
        key = self._rows[st - 2]
        edges, first, bit = self._edges, self._first, 1 << c
        dsts = [dst for q in key for mask, dst in edges[first[q]:first[q + 1]] if mask & bit]
        # most misses step to no NFA state, which restarts the match
        nxt_key = _close(dsts, self._eps, self._restart) if dsts else self._restart
        stop = not self._accepts.isdisjoint(nxt_key)
        flushes = self.flushes
        nxt = self._intern(nxt_key)
        if stop:
            nxt = -2 - nxt
        if flushes == self.flushes:  # else st's row is gone
            self._rows[st + c] = nxt
        return nxt


def nfa_match(dfa: LazyDfa, s: str) -> bool:
    """Whether dfa accepts s under the filter semantics: some substring of s
    matches, with ^ and $ pinned to the ends of s."""
    return dfa.match(s)


# ---------------------------------------------------------------------------
# Serialization

# the records whose operand is unused, by label type: (tag, sort key)
_FIXED_TAGS = {AnyChar: (TAG_ANY, 1), AnchorStart: (TAG_LINE_START, 3),
               AnchorEnd: (TAG_LINE_END, 4)}
_FIXED_LABELS = {tag: kind() for kind, (tag, _key) in _FIXED_TAGS.items()}
_OPERAND_TAGS = {TAG_ACCEPT, TAG_CHAR, TAG_JUMP_FWD, TAG_JUMP_BCK, *_FIXED_LABELS}

_FWD, _BCK = bytes((TAG_JUMP_FWD,)), bytes((TAG_JUMP_BCK,))
_DEAD = bytes((TAG_CLASS, 0))  # a class with no ranges never matches
_ACCEPT = ((-1,), bytes((TAG_ACCEPT, 0, 0)), None)  # the item of an accept, sorted first
_DEAD_ALTS = (((None, _DEAD, None), None),)


def _label_item(label) -> tuple:
    """(sort key, record, edge) of a label: the record that reads or asserts
    it, none for an epsilon, and the label deserialize_nfa reads back from
    that record, None where it reads no edge."""
    kind = type(label)
    if kind is Char:
        return (0, label.byte, 0), bytes((TAG_CHAR, label.byte, 0)), label
    if kind is CharClass:
        record = bytes((TAG_CLASS_NEG if label.negated else TAG_CLASS, len(label.ranges),
                        *itertools.chain.from_iterable(label.ranges)))
        return (2, int(label.negated), label.ranges), record, None if record == _DEAD else label
    tag, key = _FIXED_TAGS.get(kind, (None, 5))  # an epsilon sorts last, with no record
    return ((key, 0, 0), b"", None) if tag is None else ((key, 0, 0), bytes((tag, 0, 0)), label)


# the items of every label but a class, each of them kept alive: hash-consing
# makes each the one node with its fields, so the writer looks them up here
_ITEMS = {label: _label_item(label) for label in (*rex.CHARS, *_FIXED_LABELS.values(), _EPSILON)}


def serialize_nfa(nfa: Nfa, decoded: bool = False):
    """Flatten the reachable part of the automaton into the wire format, laid
    out by the rule docs/format.md gives under "Serialized regex records".
    With decoded, return (wire, Nfa) instead, where the Nfa, made as the
    records are written, equals deserialize_nfa(wire): the same transitions
    in the same order, and as labels are hash-consed the same objects."""
    items = {}  # class -> (sort key, record, edge), made once a class
    alts = {q: [(_ACCEPT, None)] for q in nfa.accepts}  # state -> [(item, dst), ...]
    for src, label, dst in nfa.transitions:
        if src != dst or type(label) is not Empty:  # an epsilon self-loop is a no-op
            item = (_ITEMS.get(label) or items.get(label)
                    or items.setdefault(label, _label_item(label)))
            alts.setdefault(src, []).append((item, dst))
    out = bytearray(2)  # the node count goes in last
    n = 0               # records written
    trans, accepts = [], []  # what deserialize_nfa reads: the edges, the accept records
    placed = {}         # state -> index of its block's first record
    pending = {}        # unplaced state -> (operand offset, trans index) of each jump to it

    def put(item, dst):  # the item's record, then a jump to dst if it goes on
        nonlocal n
        _key, record, edge = item
        if edge is not None:
            trans.append((n, edge, n + 1))
        elif item is _ACCEPT:
            accepts.append(n)
        out.extend(record)
        n += bool(record)
        if dst is not None:  # a jump, then a dead end so that only the jump goes on
            at = placed.get(dst)
            if at is None:
                pending.setdefault(dst, []).append((len(out) + 1, len(trans)))
            out.extend((_FWD if at is None else _BCK) + (at or 0).to_bytes(2, "little") + _DEAD)
            trans.extend(((n, _EPSILON, at), (n, _EPSILON, n + 1)))
            n += 2

    state = nfa.start
    try:
        while True:  # one block a pass; a chain of blocks falls through
            placed[state] = n
            if state in pending:
                for at, t in pending.pop(state):
                    out[at:at + 2] = n.to_bytes(2, "little")
                    trans[t] = (trans[t][0], _EPSILON, n)
            block = alts.get(state, _DEAD_ALTS)
            if len(block) > 1:
                block.sort()
                for item, dst in block[:-1]:  # fork: run it, and the next item past its records
                    skip = n + 1 + bool(item[1]) + 2 * (dst is not None)
                    out += _FWD + skip.to_bytes(2, "little")
                    trans += ((n, _EPSILON, skip), (n, _EPSILON, n + 1))
                    n += 1
                    put(item, dst)
            item, state = block[-1]
            if state is None or state in placed:
                put(item, state)
                if not pending:
                    break
                state = min(pending)
            else:  # fall through into its block
                _key, record, edge = item
                if edge is not None:
                    trans.append((n, edge, n + 1))
                out += record
                n += bool(record)
        out[:2] = n.to_bytes(2, "little")
    except OverflowError:  # a node index or the node count past 0xFFFF
        raise TooManyStates(f"more than {MAX_NODES} serialized nodes") from None
    if not decoded:
        return bytes(out)
    if not accepts:  # no accept reachable from the start
        raise MalformedRegexBlob(0, "no accepting node")
    return bytes(out), Nfa(n, tuple(trans), 0, frozenset(accepts))


def deserialize_nfa(data: bytes) -> Nfa:
    """Decode the wire format; node count comes from the header. Trailing
    bytes beyond the last record are ignored (pool items are packed)."""
    if len(data) < 2:
        raise MalformedRegexBlob(0, "truncated header")
    count = data[0] | data[1] << 8
    if count == 0:
        raise MalformedRegexBlob(0, "zero nodes")
    pos, transitions, accepts = 2, [], set()

    def need(n, what):
        if pos + n > len(data):
            raise MalformedRegexBlob(pos, f"truncated {what}")

    def flows_next(i, what):
        if i + 1 >= count:
            raise MalformedRegexBlob(pos, f"{what} at last node flows past the end")

    for i in range(count):
        need(1, "record")
        rec_at, tag = pos, data[pos]
        pos += 1
        if tag in (TAG_CLASS, TAG_CLASS_NEG):
            need(1, "class header")
            end = pos + 1 + 2 * data[pos]
            pos += 1
            need(end - pos, "class ranges")
            ranges = tuple(zip(data[pos:end:2], data[pos + 1:end:2]))
            pos = end
            if any(lo > hi for lo, hi in ranges):
                raise MalformedRegexBlob(rec_at, "inverted class range")
            if ranges or tag == TAG_CLASS_NEG:  # else a dead node, no outgoing edge
                flows_next(i, "matchable node")
                transitions.append((i, CharClass(tag == TAG_CLASS_NEG, ranges), i + 1))
            continue
        if tag not in _OPERAND_TAGS:
            raise MalformedRegexBlob(rec_at, f"unknown tag 0x{tag:02x}")
        need(2, "record")
        operand = data[pos] | data[pos + 1] << 8
        pos += 2
        if tag == TAG_ACCEPT:
            accepts.add(i)
        elif tag in (TAG_JUMP_FWD, TAG_JUMP_BCK):
            if operand >= count:
                raise MalformedRegexBlob(rec_at, "jump target out of range")
            if tag == TAG_JUMP_FWD and operand <= i:
                raise MalformedRegexBlob(rec_at, "forward jump going backwards")
            if tag == TAG_JUMP_BCK and operand >= i:
                raise MalformedRegexBlob(rec_at, "backward jump going forwards")
            flows_next(i, "jump")
            transitions += ((i, _EPSILON, operand), (i, _EPSILON, i + 1))
        else:
            if tag == TAG_CHAR and operand > 0xFF:
                raise MalformedRegexBlob(rec_at, "char operand out of range")
            flows_next(i, "matchable node")
            transitions.append((i, rex.CHARS[operand] if tag == TAG_CHAR
                                else _FIXED_LABELS[tag], i + 1))
    if not accepts:
        raise MalformedRegexBlob(0, "no accepting node")
    return Nfa(count, tuple(transitions), 0, frozenset(accepts))


def wire_length(data) -> int:
    """Byte length of the record stream starting at data[0] (header
    included), read from the record tags alone and capped at len(data).
    Nothing else is checked; deserialize_nfa rejects a malformed stream."""
    end = len(data)
    if end < 2:
        return end
    count = data[0] | data[1] << 8
    pos = 2
    for _ in range(count):
        if pos + 2 > end:  # every record takes at least two bytes
            return end
        if data[pos] | 1 == TAG_CLASS_NEG:  # a class, negated or not
            pos += 2 + 2 * data[pos + 1]
        else:
            pos += 3
    return min(pos, end)


# ---------------------------------------------------------------------------
# Reversal: state removal over a generalized automaton

def nfa_to_regex(nfa: Nfa):
    """Language-equivalent regex AST for the automaton: remove every
    original state from the augmented automaton, gluing regex fragments onto
    the surviving edges.

    The next state removed is always one of least in-degree times
    out-degree, self-loops left out, the lowest index breaking a tie
    (Delgado and Morais, CIAA 2004; Gruber and Holzer, DLT 2008): removing
    it glues that many fragments. A lazy min-heap holds the states; removing
    one pushes again each neighbour whose degree changed, and a popped entry
    whose degree is no longer the state's is skipped. Each glue step is one
    edge written, and past REVERSAL_GLUE_BUDGET steps TooManyStates is
    raised before the state that would cross it is removed. The budget
    admits a literal of 16,378 letters, whose glued tuple grows by a part a
    step (0.35 s on a 2-vCPU Xeon guest), and it refuses a complete graph
    of 34 states before the text, exponential in the state count, is built.

    outs[u] maps v, and ins[v] maps u, to the fragment on edge u -> v, so
    removing a state touches only its own edges. Both keep insertion order
    (an edge removed and added again goes last), the order one map of all
    edges would keep, so the fragments meet rex.alt and rex.cat in the same
    order as a scan of all edges would give them.

    A fragment is the tuple of its concatenation's parts, none of them a
    Concat or Empty, so gluing is tuple concatenation and builds no node.
    rex.cat builds a node only where one is needed: each operand of
    rex.alt, the body of a Star, and the result. As rex.cat flattens, each
    of those is the node that gluing Concat nodes would have built.

    The result is a DAG whose text can grow exponentially in nested groups
    such as (a|b(a|b...c)*c)*. Each leaf of that text needs a wire record,
    so past MAX_NODES leaves TooManyStates is raised before it is printed.
    It is also raised past 2 * rex.MAX_GROUP_NESTING - 1 levels of non-leaf
    nodes (a nest of forward jumps adds two per jump): such text nests more
    groups than rex.parse_regex reads back, and the printer recurses once
    per level."""
    n = nfa.n_states
    src, snk = n, n + 1
    ins = [{} for _ in range(n + 2)]
    outs = [{} for _ in range(n + 2)]

    def add(u, v, parts):
        out = outs[u]
        if v in out:
            parts = _parts(rex.alt([rex.cat(out[v]), rex.cat(parts)]))
        out[v] = ins[v][u] = parts

    def degree(q):
        """In-degree times out-degree of q, self-loops left out: the glue
        steps that removing q takes."""
        into, out_of = ins[q], outs[q]
        return (len(into) - (q in into)) * (len(out_of) - (q in out_of))

    add(src, nfa.start, ())
    for acc in sorted(nfa.accepts):
        add(acc, snk, ())
    for u, label, v in nfa.transitions:
        add(u, v, _parts(label))

    queued = [degree(q) for q in range(n)]  # each state's degree, as last pushed
    heap = [(d, q) for q, d in enumerate(queued)]  # the lowest index breaks a tie
    heapq.heapify(heap)
    steps = 0
    while heap:
        d, q = heapq.heappop(heap)
        if ins[q] is None or d != queued[q]:
            continue  # removed already, or pushed again since its degree changed
        steps += d
        if steps > REVERSAL_GLUE_BUDGET:
            raise TooManyStates(f"reversal takes more than {REVERSAL_GLUE_BUDGET} glue steps")
        into, out_of = ins[q], outs[q]
        ins[q] = outs[q] = None  # frees its fragments once they are glued
        loop = out_of.pop(q, None)
        into.pop(q, None)
        for u in into:
            del outs[u][q]
        for v in out_of:
            del ins[v][q]
        loop = () if loop is None else (Star(rex.cat(loop)),)
        for u, a_in in into.items():
            a_in += loop
            for v, a_out in out_of.items():
                add(u, v, a_in + a_out)
        for p in {*into, *out_of}:  # only a neighbour's degree may have changed
            if p < n:
                now = degree(p)
                if now != queued[p]:
                    queued[p] = now
                    heapq.heappush(heap, (now, p))
    final = outs[src].get(snk)
    if final is None:
        return rex.NEVER_MATCH
    final = rex.simplify(rex.cat(final))
    leaves, height = _extent(final)
    if leaves > MAX_NODES:
        raise TooManyStates(f"reversed pattern has {leaves} leaves, more than "
                            f"the {MAX_NODES} nodes a program may hold")
    if height > 2 * rex.MAX_GROUP_NESTING - 1:
        raise TooManyStates(f"reversed pattern nests {height} levels deep, more than "
                            f"the {2 * rex.MAX_GROUP_NESTING - 1} its text may nest")
    return final


def _parts(ast) -> tuple:
    """The concatenation parts of ast, as rex.cat would flatten it."""
    kind = type(ast)
    return ast.parts if kind is Concat else () if kind is Empty else (ast,)


def _extent(ast) -> tuple:
    """(leaves, height) of ast written out as a tree: its leaf count and
    the number of levels of non-leaf nodes. One explicit-stack walk that
    counts a shared node through once, so no depth overflows the stack."""
    done = {}  # node -> (leaves, height)
    stack = [(ast, False)]
    while stack:
        node, ready = stack.pop()
        if node in done:
            continue
        kind = type(node)
        subs = (node.parts if kind is Concat else node.options if kind is Alternate
                else (node.inner,) if kind in (Star, Plus, Optional) else ())
        if not subs:
            done[node] = (1, 0)
        elif ready:
            done[node] = (sum(done[sub][0] for sub in subs),
                          1 + max(done[sub][1] for sub in subs))
        else:
            stack.append((node, True))
            stack.extend((sub, False) for sub in subs if sub not in done)
    return done[ast]


# ---------------------------------------------------------------------------
# The regex memo: one process-wide, bounded store of regex artifacts, keyed by
# content, that validation, lowering, decompile and evaluation all read. A
# miss calls the module functions above by name; a failure is never stored,
# so a bad input raises the same error on every call.

MEMO_CAPACITY = 256  # entries per memo; the least recently used one goes
MEMO_KEY_LIMIT = 1024  # a longer pattern text or program is never kept


class Pattern:
    """A pattern text, parsed; the memo's Program of its wire is built on
    first use, from the Nfa the writer decodes its records to. The Pattern
    holds that Program, so the program memo finds it for as long as the
    Pattern lives, and matches through its LazyDfa: a text and its compiled
    form share one automaton and one list of samples. A pattern too large
    for a program raises TooManyStates from program, wire and dfa."""

    def __init__(self, text: str):
        self.ast = rex.parse_regex(text)

    @cached_property
    def program(self) -> Program:
        wire, decoded = serialize_nfa(build_nfa(self.ast), decoded=True)
        return program(wire, decoded)  # the module's memo, not this property

    @property
    def wire(self) -> bytes:
        return self.program.wire

    @cached_property
    def dfa(self) -> LazyDfa:
        return self.program.dfa


class Program:
    """A serialized regex program and its Nfa, decoded from the wire unless
    the writer that made the wire hands it over; its pattern text, reversed
    by state removal, and its LazyDfa are built on first use. Its Nfa is
    dropped once the LazyDfa is built; nfa then decodes the wire again.
    Its LazyDfa is also that of every Pattern whose wire this is."""

    def __init__(self, wire: bytes, decoded: Nfa | None = None):
        self._nfa = deserialize_nfa(wire) if decoded is None else decoded
        self.wire = wire

    @property
    def nfa(self) -> Nfa:
        return self._nfa if self._nfa is not None else deserialize_nfa(self.wire)

    @cached_property
    def text(self) -> str:
        return rex.print_regex(nfa_to_regex(self.nfa))

    @cached_property
    def dfa(self) -> LazyDfa:
        dfa = LazyDfa(self._nfa)
        self._nfa = None
        return dfa


def _memo(kind):
    """A bounded memo of kind(key): an LRU cache over a weak index of every
    kind(key) still alive, so that an entry the cache has dropped is found
    again for as long as an evaluator holds it. A key longer than
    MEMO_KEY_LIMIT is built and indexed but never cached, so one entry's
    size is bounded by its key's. memo(key, *args) makes kind(key, *args)
    on a miss."""
    alive = {}  # key -> weak reference, removed when its referent dies

    def find(key, *args):
        ref = alive.get(key)
        made = ref and ref()
        if made is None:
            made = kind(key, *args)
            alive[key] = weakref.ref(made, lambda _ref: alive.pop(key, None))
        return made

    cached = lru_cache(maxsize=MEMO_CAPACITY)(find)

    def memo(key, *args):
        if len(key) > MEMO_KEY_LIMIT:
            return find(key, *args)
        made = args and find(key, *args)  # held while the cache finds it
        return cached(key)
    memo.cache_clear, memo.cache_info = cached.cache_clear, cached.cache_info
    return memo


# pattern(text): RegexSyntaxError if text does not parse; program(wire):
# MalformedRegexBlob if wire does not start with a valid record stream
pattern = _memo(Pattern)
program = _memo(Program)


def program_at(data) -> Program:
    """The memoized Program of the record stream at the start of data, keyed
    by its bytes as wire_length reads them; deserialize_nfa reads the same
    bytes, so a malformed stream raises what deserialize_nfa(data) would."""
    return program(bytes(data[:wire_length(data)]))
