"""The lazy DFA's walk steps and the evaluator's pruned sample walk.

`_reference_samples` is the sample walk as it was before distance pruning:
every stepped state stays in the frontier. `_ReferenceStep` steps a state
one letter at a time straight off the Nfa's labels, as the engine did before
byte-class masks. The pruned walk and the masked steps must give the same
output on generated and random patterns, built and read back from the wire
format; `can_accept_within` must equal a brute-force search. The steps and
the distances are also checked on each automaton anchored at both ends,
whose states are those a full-match walk would step.
"""

import random
import time

from sbprof import codec, evaluate, generate, nfa, rex, sbpl, vocab
from sbprof.model import Decision
from sbprof.rex import AnyChar, Char, CharClass, Empty

from oracles import anchored_nfa, class_matches

_PIECES = ("a", "b", "/", ".", "[ab]", "[^a]", "[^./a]", "[a-c]", "^", "$",
           "(a|$)", "(^|b)", "a$b", "\\$")


def _random_pattern(rng):
    """Short pattern over anchors, classes and quantifiers."""
    pieces = [rng.choice(_PIECES) + rng.choice(("", "", "*", "+", "?"))
              for _ in range(rng.randint(1, 4))]
    pat = "".join(pieces)
    if rng.random() < 0.25:
        pat = "%s|%s" % (pat, rng.choice(_PIECES))
    return pat


def _generated_patterns():
    out = []
    small = vocab.load_builtin("small")
    large = vocab.load_builtin("large")
    sources = [(generate.ProfileGenerator(*small, seed=s).generate(), small)
               for s in range(60)]
    sources += [(generate.ProfileGenerator(*large, seed=s, scale="container")
                 .generate(), large) for s in range(2)]
    for profile, (table, voc) in sources:
        for _key, kind, value in evaluate.collect_atoms(profile, table, voc):
            if kind.name == "REGEX_INDEX":
                out.append(value)
    return out


def _patterns(count):
    rng = random.Random(1210)
    pats = dict.fromkeys(case for case in _generated_patterns())
    while len(pats) < count:
        pats[generate.random_regex_pattern(rng) if rng.random() < 0.5
             else _random_pattern(rng)] = None
    return list(pats)


def _automata(pattern):
    """The pattern's Nfa as built and as read back from the wire format."""
    built = nfa.build_nfa(rex.parse_regex(pattern))
    return built, nfa.deserialize_nfa(nfa.serialize_nfa(built))


def _reference_samples(matcher, alphabet, limit=3, max_len=12):
    """The sample walk without pruning: one prefix per state."""
    letters = sorted(set(alphabet))
    out = []
    s0 = matcher.initial()
    frontier = {s0: ""}
    seen = {s0}
    for depth in range(max_len + 1):
        for key, prefix in sorted(frontier.items(), key=lambda kv: kv[1]):
            if matcher.accepts_at_end(key, depth == 0):
                out.append(prefix)
                if len(out) >= limit:
                    return out
        if depth == max_len:
            break
        nxt = {}
        for key, prefix in frontier.items():
            for ch in letters:
                stepped = matcher.successors(key, [ch])[0]
                if stepped not in seen:
                    seen.add(stepped)
                    nxt[stepped] = prefix + ch
        frontier = nxt
        if not frontier:
            break
    return out


class _ReferenceStep:
    """One step of an Nfa's subset automaton, matching each label against
    the letter itself."""

    def __init__(self, automaton):
        self.consuming = [(src, label, dst) for src, label, dst in automaton.transitions
                          if isinstance(label, (Char, AnyChar, CharClass))]
        self.eps = {}
        for src, label, dst in automaton.transitions:
            if isinstance(label, Empty):
                self.eps.setdefault(src, []).append(dst)
        self.restart = self._closure({automaton.start})

    def _closure(self, states):
        todo = list(states)
        states = set(states)
        while todo:
            for dst in self.eps.get(todo.pop(), ()):
                if dst not in states:
                    states.add(dst)
                    todo.append(dst)
        return states

    @staticmethod
    def _matches(label, ch):
        if isinstance(label, Char):
            return ord(ch) == label.byte
        if isinstance(label, AnyChar):
            return True
        return class_matches(label, ch)

    def __call__(self, key, ch):
        dsts = {dst for src, label, dst in self.consuming
                if src in key and self._matches(label, ch)}
        out = self._closure(dsts) | self.restart  # a match may begin anywhere
        return tuple(sorted(out))


def test_pruned_walk_equals_reference_walk():
    patterns = _patterns(2000)
    assert len(patterns) >= 2000
    for pattern in patterns:
        for automaton in _automata(pattern):
            dfa = nfa.LazyDfa(automaton)
            alphabet = evaluate._pattern_alphabet(dfa)
            assert evaluate._accepted_samples(dfa, alphabet) == \
                _reference_samples(dfa, alphabet), pattern


def test_class_mask_steps_equal_label_steps():
    rng = random.Random(5)
    patterns = _patterns(2000)
    letters = sorted(set("ab/.cz$^\x00\xff") | {"Ā", "一"})
    for pattern in rng.sample(patterns, 400):
        for built in _automata(pattern):
            for automaton in (built, anchored_nfa(built)):
                dfa = nfa.LazyDfa(automaton)
                step = _ReferenceStep(automaton)
                frontier = [dfa.initial()]
                seen = set(frontier)
                for _depth in range(3):
                    nxt = []
                    for key in frontier:
                        got = dfa.successors(key, letters)
                        assert got == [step(key, ch) for ch in letters], pattern
                        nxt += [k for k in got if k not in seen]
                        seen.update(got)
                    frontier = nxt


def _class_letters(dfa):
    """One letter from every byte class of the automaton."""
    cuts = {0, 0x100}
    for label in dfa.labels:
        if isinstance(label, Char):
            cuts.update((label.byte, label.byte + 1))
        elif isinstance(label, CharClass):
            for lo, hi in label.ranges:
                cuts.update((lo, hi + 1))
    return sorted(chr(c) for c in cuts)  # chr(0x100) stands for everything above


def test_can_accept_within_equals_brute_force():
    rng = random.Random(8)
    patterns = [_random_pattern(rng) for _ in range(300)]
    patterns += rng.sample(_generated_patterns(), 60)
    for pattern in patterns:
        for built in _automata(pattern):
            for automaton in (built, anchored_nfa(built)):
                dfa = nfa.LazyDfa(automaton)
                letters = _class_letters(dfa)
                restart = _ReferenceStep(automaton).restart
                # every state within 2 steps, and all it reaches in 5 more
                succ = {}
                frontier = [dfa.initial()]
                near = list(frontier)
                for depth in range(7):
                    nxt = []
                    for key in frontier:
                        if key not in succ:
                            succ[key] = dfa.successors(key, letters)
                            nxt += succ[key]
                    frontier = nxt
                    if depth < 2:
                        near += frontier
                dist = {key: 0 for key in set(succ).union(*succ.values())
                        if dfa.accepts_at_end(key)}
                for n in range(1, 6):
                    for key, nexts in succ.items():
                        if key not in dist and any(dist.get(k) == n - 1 for k in nexts):
                            dist[key] = n
                for key in near:
                    # so the start state each step re-adds needs no term
                    assert restart <= set(key), pattern
                    for n in range(6):
                        want = dist.get(key, 99) <= n
                        assert dfa.can_accept_within(key, n) is want, (pattern, n)


def _literal(size):
    rng = random.Random(21)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(size))


def test_hostile_sizes_stay_bounded():
    # 48,001, 32,002 and 16,001 wire nodes; the backward walk from the
    # accepting states must stop at the depth asked for, or it would walk
    # the second's thousands of layers; a step must cost what the state
    # holds, or matching the literal against its own text is quadratic
    literal = _literal(16000)
    for pattern, states, text, matched, samples in (
            ("a?" * 8000, 48001, "b" * 50 + "ab", True, ["", "a"]),
            ("(ab|b)" * 4000 + "$", 32002, "b" * 50 + "ab", False, []),
            (literal, 16001, literal, True, [])):
        blob = nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(pattern)))
        started = time.perf_counter()
        automaton = nfa.deserialize_nfa(blob)
        dfa = nfa.LazyDfa(automaton)
        assert time.perf_counter() - started < 10
        assert automaton.n_states == states

        started = time.perf_counter()
        assert dfa.match(text) is matched
        assert time.perf_counter() - started < 1

        started = time.perf_counter()
        assert evaluate._accepted_samples(dfa, evaluate._pattern_alphabet(dfa)) == samples
        assert time.perf_counter() - started < 1
        # the walk asks about at most 11 more characters: layers 0 to 11
        assert max(d for d in dfa._near if d != nfa._FAR) <= 11


def test_cold_blob_verdict_on_a_long_literal_stays_bounded(small):
    # one regex of 21,000 characters: a 63,069-byte blob, whose one cold
    # verdict builds the automaton and matches the literal's own text
    table, voc = small
    literal = _literal(21000)
    blob = codec.compile_profile(sbpl.parse_sbpl(
        '(deny default)\n(allow file-read* (regex #"%s"))\n' % literal), table, voc)
    assert len(blob) == 63069
    started = time.perf_counter()
    verdict = evaluate.BlobEvaluator(blob, table, voc).verdict(
        "file-read*", evaluate.QueryContext({"path": literal}))
    assert time.perf_counter() - started < 1
    assert verdict is Decision.ALLOW
