"""Semantic oracle: decide allow/deny for (operation, context) queries against
either the AST (reference semantics) or a binary blob (graph walk), and check
two verdict sources for equivalence over derived context universes.

An atom matches when its context key is bound and the bound value satisfies
the filter; unbound keys never match, so require-not of an unbound-key atom
always matches.

Exhaustive mode evaluates one context per operation-local signature class:
values whose truth values agree on every atom the operation's verdict reads,
on either side, give the same verdict pair, so each class combination is
asked once, on its first members, and an operation that reads what an
agreeing earlier one read is not asked again. That is exact; the reported
count and the cap still cover the full product of the key pools.

Automata come from nfa's memo and each evaluator holds the entries it used;
a regex's universe samples are kept on its automaton. A pattern text matches
and samples through its compiled program's automaton, so a profile and its
blob share every automaton and get the same universe. No other regex state
outlives a call.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from . import nfa as nfa_mod
from . import rex
from .codec import BinaryProfile, decode_blob, preorder
from .errors import (
    CycleDetected,
    InvalidProfile,
    MalformedBlob,
    SandboxError,
)
from .model import (
    MISSING_DEFAULT,
    Atom,
    Decision,
    FilterVocabulary,
    OperationTable,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    ValueKind,
    expr_atoms,
)


@dataclass(frozen=True)
class QueryContext:
    """Concrete filter bindings for one access-control query."""

    bindings: dict = field(default_factory=dict)

    def __str__(self):
        if not self.bindings:
            return "{}"
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.bindings.items()))
        return "{" + parts + "}"


class _Held(dict):
    """The Patterns an AST evaluator holds while it lives, one per pattern
    text, taken by collect_atoms or on first use, so that nfa's memo finds
    them again whatever its cache has dropped. A Pattern holds its Program."""

    def __missing__(self, text: str) -> nfa_mod.Pattern:
        made = self[text] = nfa_mod.pattern(text)
        return made


def _regex_matches(matcher, bound, rx: _Held | None) -> bool:
    """Whether a regex atom's text (held in rx) or automaton matches bound."""
    if not isinstance(bound, str):
        return False
    m = rx[matcher].dfa if isinstance(matcher, str) else matcher
    return nfa_mod.nfa_match(m, bound)


def _filter_kind(entry) -> tuple:
    """(context key, is-regex) of one vocabulary entry."""
    return entry.context_key, entry.kind is ValueKind.REGEX_INDEX


def _filter_kinds(vocab: FilterVocabulary) -> dict:
    """filter name -> _filter_kind, for every entry of the vocabulary."""
    return {e.name: _filter_kind(e) for e in vocab.entries}


def _matches(expr, bindings: dict, kinds: dict, vocab: FilterVocabulary,
             rx) -> bool:
    """Whether a filter expression matches the bindings; kinds is
    _filter_kinds(vocab). An unbound key matches no atom."""
    t = type(expr)
    if t is Atom:
        # a name missing from kinds is not in vocab: by_name raises
        key, is_regex = kinds.get(expr.key) or _filter_kind(vocab.by_name(expr.key))
        bound = bindings.get(key)
        if is_regex:
            return _regex_matches(expr.value, bound, rx)
        return bound is not None and bound == expr.value
    if t is RequireNot:
        return not _matches(expr.child, bindings, kinds, vocab, rx)
    if t is RequireAll:
        for c in expr.children:
            if not _matches(c, bindings, kinds, vocab, rx):
                return False
        return True
    if t is RequireAny:
        for c in expr.children:
            if _matches(c, bindings, kinds, vocab, rx):
                return True
        return False
    raise TypeError(f"not a filter expression: {expr!r}")


# ---------------------------------------------------------------------------
# AST semantics

class AstEvaluator:
    """First matching rule wins; rule-less operations fall back through the
    table's parent links; nothing matching means the default decision."""

    def __init__(self, profile: Profile, table: OperationTable,
                 vocab: FilterVocabulary):
        if profile.default_decision is None:
            raise InvalidProfile([MISSING_DEFAULT])
        self.profile = profile
        self.table = table
        self.vocab = vocab
        self.rx = _Held()
        self._owner = table.owners(profile.rules)
        self._kinds = _filter_kinds(vocab)

    def _rules(self, op: str):
        """op's effective rules, after parent fallback."""
        owner = self._owner.get(op)
        return self.profile.rules[owner] if owner else ()

    def verdict(self, op_name: str, ctx: QueryContext,
                trace: list | None = None) -> Decision:
        """trace, when given, receives one (operation, rule) pair: the rule
        that decided and the operation that owns it, or ("default", None)
        when the default decision did."""
        self.table.index(op_name)  # raises UnknownOperation
        bindings, kinds, vocab, rx = ctx.bindings, self._kinds, self.vocab, self.rx
        for rule in self._rules(op_name):
            if rule.filter is None or _matches(rule.filter, bindings, kinds,
                                               vocab, rx):
                if trace is not None:
                    trace.append((self._owner[op_name], rule))
                return rule.decision
        if trace is not None:
            trace.append(("default", None))
        return self.profile.default_decision


# ---------------------------------------------------------------------------
# Graph-walk semantics

class BlobEvaluator:
    def __init__(self, bp, table: OperationTable, vocab: FilterVocabulary):
        if isinstance(bp, (bytes, bytearray)):
            bp = decode_blob(bytes(bp))
        if bp.op_count != len(table):
            raise MalformedBlob(0, f"blob has {bp.op_count} operations, "
                                   f"table has {len(table)}")
        self.bp = bp
        self.table = table
        self.vocab = vocab
        self._programs = {}  # pool index -> Program, held while self lives
        self._prepared = {}

    def _prepare(self, unit: int):
        """The node at unit as (context key, is-regex, value, match offset,
        unmatch offset, vocabulary entry), prepared once; a terminal is
        (None, False, decision, None, None, None)."""
        node = self._prepared.get(unit)
        if node is not None:
            return node
        bp = self.bp
        decision = bp.decision_at(unit)
        if decision is not None:
            node = (None, False, decision, None, None, None)
        else:
            idx = unit - bp.node_base
            entry = self.vocab.by_code(bp.filter_keys[idx])
            value = bp.value_at(unit, entry)
            is_regex = entry.kind is ValueKind.REGEX_INDEX
            if is_regex:
                index = bp.filter_values[idx]
                program = self._programs.get(index) or self._programs.setdefault(
                    index, nfa_mod.program_at(value))
                value = program.dfa
            node = (entry.context_key, is_regex, value, bp.match_offsets[idx],
                    bp.unmatch_offsets[idx], entry)
        self._prepared[unit] = node
        return node

    def verdict(self, op_name: str, ctx: QueryContext,
                trace: list | None = None) -> Decision:
        idx = self.table.index(op_name)
        unit = self.bp.op_pointers[idx]
        bindings, prepared = ctx.bindings, self._prepared
        for _ in range(len(self.bp.node_types) + 1):
            key, is_regex, value, match_off, unmatch_off, entry = \
                prepared.get(unit) or self._prepare(unit)
            if key is None:
                if trace is not None:
                    trace.append((unit, str(value), None))
                return value
            bound = bindings.get(key)
            if is_regex:
                matched = _regex_matches(value, bound, None)
            else:
                matched = bound == value
            if trace is not None:
                trace.append((unit, entry.name, matched))
            unit = match_off if matched else unmatch_off
        raise CycleDetected(idx, unit)


def as_source(thing, table, vocab):
    """Wrap a Profile, BinaryProfile or raw blob as a verdict source; an
    AstEvaluator or BlobEvaluator is one already."""
    if isinstance(thing, Profile):
        return AstEvaluator(thing, table, vocab)
    if isinstance(thing, (bytes, bytearray, BinaryProfile)):
        return BlobEvaluator(thing, table, vocab)
    if isinstance(thing, (AstEvaluator, BlobEvaluator)):
        return thing
    raise TypeError(f"not a verdict source: {thing!r}")


# ---------------------------------------------------------------------------
# Context universes

SAMPLE_COUNT = 3     # universe samples per regex, at most
SAMPLE_MAX_LEN = 12  # characters in one sample, at most


def _accepted_samples(matcher, alphabet):
    """The SAMPLE_COUNT shortest strings of at most SAMPLE_MAX_LEN characters
    the automaton accepts; deterministic.
    Breadth-first over the DFA states, one prefix per state. A
    stepped state that cannot accept within the characters left is dropped:
    no state reached from it could either, so the output is the same. Only
    the first letter of each byte class is stepped, as a later one reaches
    a state the walk has seen, and the walk keeps one closure cache."""
    letters = matcher.class_letters(alphabet)
    closures = {}
    out = []
    s0 = matcher.initial()
    frontier = {s0: ""}
    seen = {s0}
    for depth in range(SAMPLE_MAX_LEN + 1):
        for key, prefix in sorted(frontier.items(), key=lambda kv: kv[1]):
            if matcher.accepts_at_end(key, depth == 0):
                out.append(prefix)
                if len(out) >= SAMPLE_COUNT:
                    return out
        if depth == SAMPLE_MAX_LEN:
            break
        left = SAMPLE_MAX_LEN - depth - 1
        nxt = {}
        for key, prefix in frontier.items():
            for ch, stepped in zip(letters, matcher.successors(key, letters, closures)):
                if stepped not in seen:
                    seen.add(stepped)
                    if matcher.can_accept_within(stepped, left):
                        nxt[stepped] = prefix + ch
        frontier = nxt
        if not frontier:
            break
    return out


def _pattern_alphabet(matcher):
    chars = set("/.")
    for label in matcher.labels:
        if isinstance(label, rex.Char):
            chars.add(chr(label.byte))
        elif isinstance(label, rex.CharClass):
            for lo, hi in label.ranges:
                for b in range(lo, min(hi, lo + 2) + 1):
                    chars.add(chr(b))
            if label.negated:
                chars.add("a")
    return chars


def collect_atoms(source, table, vocab):
    """(context_key, kind, value) triples appearing in a verdict source: the
    atoms of a profile's rules, or the filter nodes a blob's operation
    entries reach, in unit order (a bundle view's own nodes, not the whole
    shared record block). A regex value is its pattern text on a profile
    and its automaton on a blob; either way the evaluator holds its memo
    entry, so build_universe and later verdicts find that entry."""
    out = []
    src = as_source(source, table, vocab)
    if isinstance(src, AstEvaluator):
        for rules in src.profile.rules.values():
            for rule in rules:
                if rule.filter is None:
                    continue
                for atom in expr_atoms(rule.filter):
                    entry = vocab.by_name(atom.key)
                    if entry.kind is ValueKind.REGEX_INDEX:
                        src.rx[atom.value]  # held while src lives
                    out.append((entry.context_key, entry.kind, atom.value))
    else:
        for unit in sorted(_reached(src, src.bp.op_pointers)):
            key, _r, value, _m, _u, entry = src._prepare(unit)
            out.append((key, entry.kind, value))
    return out


def build_universe(atom_triples, vocab):
    """Candidate binding values per context key, plus one never-matching
    sentinel per key so the 'bound but unmatched' path is always exercised."""
    seen: dict[str, dict] = {}  # per key, its values in insertion order

    def add(key, v):
        seen.setdefault(key, {})[v] = None

    # per key, its automata in insertion order; a pattern text and its
    # compiled program are one automaton
    regexes: dict[str, dict] = {}
    for ctx_key, kind, value in atom_triples:
        if kind is ValueKind.REGEX_INDEX:
            automata = regexes.setdefault(ctx_key, {})
            dfa = nfa_mod.pattern(value).dfa if isinstance(value, str) else value
            if dfa not in automata:  # a repeat would add no new sample
                automata[dfa] = None
                if dfa.samples is None:  # kept while the automaton lives
                    dfa.samples = tuple(_accepted_samples(dfa, _pattern_alphabet(dfa)))
                for s in dfa.samples:
                    add(ctx_key, s)
        else:
            add(ctx_key, value)

    values = {key: list(vals) for key, vals in seen.items()}
    for ctx_key in sorted(set(values) | set(regexes)):
        vals = values.setdefault(ctx_key, [])
        if any(isinstance(v, int) for v in vals):
            sentinel = next(n for n in range(0x10000)
                            if n not in vals)
        elif any(isinstance(v, tuple) for v in vals):
            sentinel = ("none", "none:0")
            if sentinel in vals:
                sentinel = ("none", "none:1")
        else:
            sentinel = None
            for i in range(1000):
                cand = f"~miss{i}~"
                if cand in vals:
                    continue
                if any(nfa_mod.nfa_match(m, cand)
                       for m in regexes.get(ctx_key, ())):
                    continue
                sentinel = cand
                break
        if sentinel is not None:
            vals.append(sentinel)
    return values


EXHAUSTIVE_CAP = 8192  # contexts in one operation's exhaustive product, at most


def _pools(universe: dict, cap: int):
    """The sorted keys, per key [None] (unbound) + its values, and the size
    of their product; raises SandboxError when that size exceeds cap."""
    keys = sorted(universe)
    pools = [[None] + universe[k] for k in keys]
    total = math.prod(map(len, pools))
    if total > cap:
        raise SandboxError(f"context universe too large for exhaustive mode "
                           f"({total} > {cap})")
    return keys, pools, total


def sampled_contexts(universe: dict, seed: int, count: int):
    rng = random.Random(seed)
    keys = sorted(universe)
    for _ in range(count):
        bindings = {}
        for k in keys:
            if rng.random() < 0.25:
                continue
            bindings[k] = rng.choice(universe[k])
        yield QueryContext(bindings)


def _reached(src: BlobEvaluator, entries) -> list:
    """The units of the filter nodes reachable from the given entry units,
    in codec's emission preorder; a terminal has no successor units."""
    order, _position = preorder(entries, lambda unit: src._prepare(unit)[3:5],
                                src.bp.node_base + len(src.bp.node_types))
    return [unit for unit in order if src._prepare(unit)[0] is not None]


def _op_atoms(src, op: str) -> set:
    """(context key, is-regex, value) of every atom op's verdict can read:
    the atoms of its effective rules, or the nodes reachable from its entry
    in the blob."""
    if isinstance(src, AstEvaluator):
        kinds, vocab = src._kinds, src.vocab
        return {(*(kinds.get(atom.key) or _filter_kind(vocab.by_name(atom.key))),
                 atom.value)
                for rule in src._rules(op) if rule.filter is not None
                for atom in expr_atoms(rule.filter)}
    entry = src.bp.op_pointers[src.table.index(op)]
    return {src._prepare(unit)[:3] for unit in _reached(src, (entry,))}


def _verdict_id(src, op: str):
    """What op's verdict reads besides the context: its rule owner in an
    AST, its entry node in a blob."""
    index = src.table.index(op)  # raises UnknownOperation
    if isinstance(src, AstEvaluator):
        return src._owner.get(op)
    return src.bp.op_pointers[index]


def _atom_column(atom: tuple, pool: list) -> int:
    """Bit mask of the pool members (None stands for unbound) that satisfy
    an atom of _op_atoms(either source, ...), which both test alike."""
    _key, is_regex, value = atom
    if is_regex:
        rx = _Held()  # a text's Pattern is the one its AstEvaluator holds
        hits = (_regex_matches(value, v, rx) for v in pool)
    else:
        hits = (v is not None and v == value for v in pool)
    return sum(1 << i for i, hit in enumerate(hits) if hit)


@dataclass
class EquivalenceReport:
    equivalent: bool
    checked: int
    mode: str
    witness: tuple | None = None  # (op, ctx, verdict_a, verdict_b)

    def __str__(self):
        if self.equivalent:
            return f"equivalent ({self.checked} checks, {self.mode})"
        op, ctx, va, vb = self.witness
        return (f"DISAGREEMENT after {self.checked} checks ({self.mode}): "
                f"op={op} ctx={ctx}: {va} vs {vb}")


def check_equivalence(a, b, table: OperationTable, vocab: FilterVocabulary,
                      ops=None, mode: str = "exhaustive", seed: int = 0,
                      samples: int = 1000) -> EquivalenceReport:
    """Compare two verdict sources. Exhaustive mode covers, per operation,
    every combination of unbound/candidate values of the keys that
    operation's atoms test, but evaluates one context per combination of
    signature classes: values that give the same truth value for every atom
    the operation's verdict reads, on either side, give the same verdict
    pair. A class stands for its first member, and an operation whose
    verdicts read what an earlier agreeing one's read is not evaluated
    again. `checked` and the cap count the full product, and a witness is
    the first disagreeing context of that product. Sampled mode draws
    seeded random contexts from the combined universe. ops limits the
    operations compared, in that order. Each call builds its own two
    evaluators, their atoms and their universe; the automata and their
    samples come from nfa's memo."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown equivalence mode {mode!r}")
    src_a = as_source(a, table, vocab)
    src_b = as_source(b, table, vocab)
    if ops is None:
        ops = list(table.entries)
    universe = build_universe(collect_atoms(src_a, table, vocab)
                              + collect_atoms(src_b, table, vocab), vocab)
    checked = 0

    def compare(op, ctx, position):
        """A report naming ctx as the position-th check if the verdicts differ."""
        va = src_a.verdict(op, ctx)
        vb = src_b.verdict(op, ctx)
        if va is not vb:
            return EquivalenceReport(False, position, mode, (op, ctx, va, vb))
        return None

    if mode == "exhaustive":
        columns = {}  # atom -> _atom_column over its key's pool
        # an operation whose verdicts read what an earlier one's read (the
        # same rule owner or blob entry on each side) agrees where it agreed
        agreed = {}  # _verdict_id pair of an agreeing operation -> its product size
        for op in ops:
            ids = _verdict_id(src_a, op), _verdict_id(src_b, op)
            if ids in agreed:
                checked += agreed[ids]
                continue
            # only the keys an operation's own (inherited) atoms test can
            # change its verdict; everything else stays unbound
            by_key = {}  # context key -> the atoms either side tests on it
            for atom in _op_atoms(src_a, op) | _op_atoms(src_b, op):
                by_key.setdefault(atom[0], []).append(atom)
            keys, pools, total = _pools(
                {k: universe[k] for k in by_key}, EXHAUSTIVE_CAP)
            # per key, (pool index, value) of each class's first member, in
            # pool order; a class is a bit mask of pool members, split by
            # every atom on that key the verdicts read
            firsts = []
            for key, pool in zip(keys, pools):
                classes = [(1 << len(pool)) - 1]
                for atom in by_key[key]:
                    col = columns.get(atom)
                    if col is None:
                        col = columns[atom] = _atom_column(atom, pool)
                    classes = [part for members in classes
                               for part in (members & col, members & ~col) if part]
                firsts.append([(i, pool[i]) for i in sorted(
                    (members & -members).bit_length() - 1 for members in classes)])
            # product-order rank of a context = sum of index x stride
            strides = [math.prod(map(len, pools[j + 1:])) for j in range(len(pools))]
            for combo in itertools.product(*firsts):
                ctx = QueryContext({k: v for k, (_i, v) in zip(keys, combo)
                                    if v is not None})
                rank = sum(i * n for (i, _v), n in zip(combo, strides))
                bad = compare(op, ctx, checked + rank + 1)
                if bad:
                    return bad
            agreed[ids] = total
            checked += total
    else:
        interesting = [op for op in ops if op != "default"]
        if interesting:  # else only the empty context below is checked
            rng = random.Random(seed)
            for ctx in sampled_contexts(universe, seed, samples):
                checked += 1
                bad = compare(rng.choice(interesting), ctx, checked)
                if bad:
                    return bad
        for op in ops:
            checked += 1
            bad = compare(op, QueryContext({}), checked)
            if bad:
                return bad
    return EquivalenceReport(True, checked, mode)
