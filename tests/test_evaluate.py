import itertools
import random

import pytest

from sbprof import codec, evaluate, generate, nfa, rex, sbpl
from sbprof.errors import UnknownOperation
from sbprof.evaluate import QueryContext as Q
from sbprof.model import Decision, Profile, Rule

BLACKLIST = '''(deny default)
(deny file-read* (literal "/bin/secret.txt"))
(allow file-read* (regex #"/bin/*"))
'''


@pytest.fixture(scope="module")
def blacklist(small):
    table, vocab = small
    profile = sbpl.parse_sbpl(BLACKLIST)
    blob = codec.compile_profile(profile, table, vocab)
    return profile, blob


def test_reference_semantics_on_blob(small, blacklist):
    table, vocab = small
    _profile, blob = blacklist
    ev = evaluate.BlobEvaluator(blob, table, vocab)
    assert ev.verdict("file-read*", Q({"path": "/bin/secret.txt"})) is Decision.DENY
    assert ev.verdict("file-read*", Q({"path": "/bin/ls"})) is Decision.ALLOW
    assert ev.verdict("network-outbound", Q({})) is Decision.DENY


def test_reference_semantics_on_ast(small, blacklist):
    table, vocab = small
    profile, _blob = blacklist
    ev = evaluate.AstEvaluator(profile, table, vocab)
    assert ev.verdict("file-read*", Q({"path": "/bin/secret.txt"})) is Decision.DENY
    assert ev.verdict("file-read*", Q({"path": "/bin/ls"})) is Decision.ALLOW
    assert ev.verdict("sysctl-read", Q({})) is Decision.DENY


def test_conjunction_requires_every_filter(small):
    table, vocab = small
    p = sbpl.parse_sbpl(
        '(deny default)\n'
        '(allow file-read* (require-all (regex #"/bin/*") (vnode-type REGULAR-FILE)))')
    both = Q({"path": "/bin/x", "vnode-type": "REGULAR-FILE"})
    partial = Q({"path": "/bin/x"})
    ev = evaluate.AstEvaluator(p, table, vocab)
    assert ev.verdict("file-read*", both) is Decision.ALLOW
    assert ev.verdict("file-read*", partial) is Decision.DENY


def test_negation_and_unbound_keys(small):
    table, vocab = small
    p = sbpl.parse_sbpl(
        '(deny default)\n(allow file-read* (require-not (vnode-type REGULAR-FILE)))')
    ev = evaluate.AstEvaluator(p, table, vocab)
    assert ev.verdict("file-read*", Q({"vnode-type": "REGULAR-FILE"})) is Decision.DENY
    # unbound keys never match, so the negation matches
    assert ev.verdict("file-read*", Q({})) is Decision.ALLOW
    assert ev.verdict("file-read*", Q({"vnode-type": "SYMLINK"})) is Decision.ALLOW


def test_default_only_denies_everything(small):
    table, vocab = small
    ev = evaluate.AstEvaluator(sbpl.parse_sbpl("(deny default)"), table, vocab)
    for op in table.entries:
        assert ev.verdict(op, Q({})) is Decision.DENY


def test_operation_inheritance_through_parent_links(small, blacklist):
    table, vocab = small
    profile, blob = blacklist
    # file-read-data has no rules; it falls back to file-read*
    ctx = Q({"path": "/bin/ls"})
    assert evaluate.AstEvaluator(profile, table, vocab).verdict(
        "file-read-data", ctx) is Decision.ALLOW
    assert evaluate.BlobEvaluator(blob, table, vocab).verdict(
        "file-read-data", ctx) is Decision.ALLOW
    # explicit rules stop the fallback
    rules = dict(profile.rules)
    rules["file-read-data"] = (Rule(Decision.DENY, None),)
    shadowed = Profile("", profile.default_decision, rules)
    assert evaluate.AstEvaluator(shadowed, table, vocab).verdict(
        "file-read-data", ctx) is Decision.DENY


def test_unknown_operation_raises(small, blacklist):
    table, vocab = small
    profile, blob = blacklist
    with pytest.raises(UnknownOperation):
        evaluate.AstEvaluator(profile, table, vocab).verdict("nope", Q({}))
    with pytest.raises(UnknownOperation):
        evaluate.BlobEvaluator(blob, table, vocab).verdict("nope", Q({}))


def test_blob_and_ast_agree_exhaustively_on_random_profiles(small):
    table, vocab = small
    for seed in range(80):
        gen = generate.ProfileGenerator(table, vocab, seed=seed)
        profile = gen.generate()
        blob = codec.compile_profile(profile, table, vocab)
        report = evaluate.check_equivalence(profile, blob, table, vocab)
        assert report.equivalent, (seed, str(report))


def test_check_equivalence_reports_witness(small, blacklist):
    table, vocab = small
    profile, _blob = blacklist
    rules = dict(profile.rules)
    flipped = list(rules["file-read*"])
    flipped[1] = Rule(Decision.DENY, flipped[1].filter)
    rules["file-read*"] = tuple(flipped)
    bad = Profile("", profile.default_decision, rules)
    report = evaluate.check_equivalence(profile, bad, table, vocab)
    assert not report.equivalent
    op, ctx, va, vb = report.witness
    assert op == "file-read*"
    assert va is not vb


def test_reused_checker_matches_fresh_checks(small, large):
    # one checker per vocabulary serves every check, so prepared sources come
    # and go and automata, samples and match results carry over
    checkers = {id(t[0]): evaluate.EquivalenceChecker(*t) for t in (small, large)}
    cases = [(sbpl.parse_sbpl(c.sbpl_text), large if c.vocab == "large" else small)
             for c in generate.CORPUS]
    cases += [(generate.ProfileGenerator(*small, seed=seed).generate(), small)
              for seed in range(40)]
    disagreements = 0
    for profile, (table, vocab) in cases:
        blob = codec.compile_profile(profile, table, vocab)
        ops = sorted(profile.rules)
        trimmed = Profile("", profile.default_decision,
                          {op: rs for op, rs in profile.rules.items() if op != ops[0]})
        for a, b, kwargs in ((profile, blob, {}), (blob, trimmed, {}),
                             (profile, trimmed, {"ops": ops}),
                             (profile, trimmed, {"mode": "sampled", "seed": 3,
                                                 "samples": 50})):
            fresh = evaluate.check_equivalence(a, b, table, vocab, **kwargs)
            reused = evaluate.check_equivalence(
                a, b, table, vocab, checker=checkers[id(table)], **kwargs)
            assert (reused.equivalent, reused.checked, reused.witness) == \
                (fresh.equivalent, fresh.checked, fresh.witness)
            disagreements += not fresh.equivalent
    assert disagreements > len(cases)


def test_checker_rejects_other_tables(small, large, blacklist):
    profile, _blob = blacklist
    checker = evaluate.EquivalenceChecker(*large)
    with pytest.raises(ValueError):
        evaluate.check_equivalence(profile, profile, *small, checker=checker)


def test_sampled_mode_is_deterministic(small, blacklist):
    table, vocab = small
    profile, blob = blacklist
    r1 = evaluate.check_equivalence(profile, blob, table, vocab,
                                    mode="sampled", seed=7, samples=300)
    r2 = evaluate.check_equivalence(profile, blob, table, vocab,
                                    mode="sampled", seed=7, samples=300)
    assert r1.equivalent and r2.equivalent and r1.checked == r2.checked


def test_sampled_mode_with_only_default(small, blacklist):
    # no operation to draw for random contexts: only the empty context runs
    table, vocab = small
    profile, blob = blacklist
    report = evaluate.check_equivalence(profile, blob, table, vocab,
                                        ops=["default"], mode="sampled")
    assert (report.equivalent, report.checked) == (True, 1)
    opened = Profile("", Decision.ALLOW, profile.rules)
    report = evaluate.check_equivalence(profile, opened, table, vocab,
                                        ops=["default"], mode="sampled")
    assert not report.equivalent and report.witness[0] == "default"


def test_trace_reports_path(small, blacklist):
    table, vocab = small
    _profile, blob = blacklist
    src = evaluate.BlobEvaluator(blob, table, vocab)
    trace = []
    verdict = src.verdict("file-read*", Q({"path": "/bin/ls"}), trace=trace)
    assert verdict is Decision.ALLOW
    assert trace[-1][1] == "allow"
    assert len(trace) >= 2


def _brute_force_accepted(ast, alphabet, max_len):
    """Every string over alphabet up to max_len that the AST matcher accepts
    in search mode, in (length, lexicographic) order."""
    return [s for n in range(max_len + 1)
            for s in map("".join, itertools.product(sorted(alphabet), repeat=n))
            if rex.ast_match(ast, s, full=False)]


# pattern -> the samples its universe gets. Strings that reach one DFA state
# are sampled once, so these are a subsequence of the accepted strings.
PINNED_SAMPLES = (
    ("a*", ["", "a"]),
    ("a|b", ["a", "b"]),
    ("(ab|ba)$", ["ab", "ba"]),
    ("a.b", ["a.b", "aab"]),
    ("^/b.*", ["/b", "/b."]),
    ("[^a]", ["."]),
    ("x?y", ["y"]),
    ("^$", [""]),
)


def test_accepted_samples_against_brute_force():
    cases = list(PINNED_SAMPLES)
    rng = random.Random(3)
    for _ in range(60):
        pieces = [rng.choice(("a", "b", "/", ".", "[ab]", "[^a]", "^", "$"))
                  + rng.choice(("", "", "*", "+", "?")) for _ in range(rng.randint(1, 3))]
        cases.append(("".join(pieces), None))
    for pat, want in cases:
        ast = rex.parse_regex(pat)
        matcher = nfa.build_nfa(ast).dfa
        alphabet = evaluate._pattern_alphabet(matcher)
        got = evaluate._accepted_samples(matcher, alphabet)
        accepted = _brute_force_accepted(ast, alphabet, 5)
        if want is not None:
            assert got == want, pat
        # the first sample is the shortest, smallest accepted string; the
        # rest follow it in the same order
        assert got[:1] == accepted[:1], (pat, got, accepted[:3])
        assert [s for s in accepted if s in got] == [s for s in got if len(s) <= 5], pat
        assert all(rex.ast_match(ast, s, full=False) for s in got), pat
