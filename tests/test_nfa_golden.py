"""Byte-identity guards for the regex program writer and for reversal.

The writer's digest was computed with `serialize_nfa` as it stood before it was
rewritten as one loop over fall-through chains. It pins
`serialize_nfa(build_nfa(parse_regex(p)))` and
`serialize_nfa(deserialize_nfa(...))` of that for 2,000 random patterns, the
regexes of the golden corpus, of small seeds 0-39 and of container seeds 0-2,
and a few shapes with anchors, empty branches and negated classes. It does
not depend on PYTHONHASHSEED.

The reversal digest was computed before state removal kept a per-state edge
index and before `rex.simplify` kept one memo across its passes. It pins the
printed `nfa_to_regex` of each of those programs, then of nested stars
`((…(a)*…)*)*` at depths 1-14. It does not depend on PYTHONHASHSEED
(checked with 0 and 123).

REVERSAL_DIGEST was recomputed when state removal began to take the state of
least in-degree times out-degree first, not states in index order: 126 of
the 2,523 printed patterns changed, each to a shorter text of the same
language (`/etc([0-9]*|[0-9]+)etc` became `/etc[0-9]*etc`), 52,828 characters
in all became 51,456, and tests/test_reversal_language_golden.py held before
and after.
"""

import hashlib
import random

from sbprof import generate, model, nfa, rex, sbpl

DIGEST = "bd6e8c65ba5da7ba0a1569eec37f7eafd3348b27d79bee671346211897d2c0b3"

REVERSAL_DIGEST = "48af825f0630f0cb81b71a0859697e8b30832777b0fae33fb1517af87865ffc5"

SHAPES = ("^$", "$", "^", "(|a)", "((a)*)*", "[^a-z]+", "(ab|b)*$", "a|^b$",
          "(^a|b$)*", "[^/.]?[a-c]*", "a?b+c*", ".*x(y|)")


def _regexes(profile):
    for rules in profile.rules.values():
        for rule in rules:
            if rule.filter is not None:
                for atom in model.expr_atoms(rule.filter):
                    if atom.form is model.ValueForm.REGEX:
                        yield atom.value


def _patterns(small, large):
    rng = random.Random(1608)
    yield from (generate.random_regex_pattern(rng) for _ in range(2000))
    for case in generate.CORPUS:
        yield from _regexes(sbpl.parse_sbpl(case.sbpl_text, name=case.name))
    for seed in range(40):
        yield from _regexes(generate.ProfileGenerator(*small, seed=seed).generate())
    for seed in range(3):
        yield from _regexes(generate.ProfileGenerator(
            *large, seed=seed, scale="container").generate())
    yield from SHAPES


def test_serialize_nfa_digest(small, large):
    digest = hashlib.sha256()
    for pattern in _patterns(small, large):
        wire = nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(pattern)))
        digest.update(wire)
        digest.update(nfa.serialize_nfa(nfa.deserialize_nfa(wire)))
    assert digest.hexdigest() == DIGEST


def test_reversal_digest(small, large):
    nested = ("(" * depth + "a" + ")*" * depth for depth in range(1, 15))
    digest = hashlib.sha256()
    for pattern in (*_patterns(small, large), *nested):
        wire = nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(pattern)))
        digest.update(rex.print_regex(nfa.nfa_to_regex(nfa.deserialize_nfa(wire))).encode())
        digest.update(b"\x00")
    assert digest.hexdigest() == REVERSAL_DIGEST
