import gc
import itertools
import random
import struct
from collections import Counter

import pytest

from sbprof import codec, decompile, evaluate, generate, nfa, rex, sbpl
from sbprof.errors import (
    CycleDetected,
    InvalidProfile,
    MalformedBlob,
    SandboxError,
    TooManyStates,
    UnknownFilterKey,
    UnknownOperation,
)
from sbprof.evaluate import QueryContext as Q
from sbprof.model import (
    Atom,
    Decision,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    Rule,
    ValueForm,
    ValueKind,
)

from oracles import (
    ast_match,
    decode_bases,
    decode_mutations,
    enumerated_equivalence,
    exhaustive_contexts,
    expr_matches,
)

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


def test_rules_on_the_default_operation_are_never_followed(small):
    # validation refuses such rules, but an unvalidated profile may hold
    # them: the default decision still decides the default operation
    table, vocab = small
    profile = Profile("", Decision.DENY, {"default": (Rule(Decision.ALLOW, None),)})
    assert table.owners(profile.rules)["default"] is None
    trace = []
    assert evaluate.AstEvaluator(profile, table, vocab).verdict(
        "default", Q({}), trace) is Decision.DENY
    assert trace == [("default", None)]


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


def test_as_source_accepts_only_verdict_sources(small, blacklist):
    table, vocab = small
    profile, blob = blacklist
    ast = evaluate.AstEvaluator(profile, table, vocab)
    blob_eval = evaluate.BlobEvaluator(blob, table, vocab)
    assert evaluate.as_source(ast, table, vocab) is ast
    assert evaluate.as_source(blob_eval, table, vocab) is blob_eval
    for thing in (bytearray(blob), codec.decode_blob(blob)):
        assert isinstance(evaluate.as_source(thing, table, vocab),
                          evaluate.BlobEvaluator)

    class Fake:  # has a verdict, but no profile or blob to check against
        def verdict(self, op_name, ctx):
            return Decision.ALLOW

    for thing in (Fake(), "(deny default)", None):
        with pytest.raises(TypeError, match="not a verdict source"):
            evaluate.as_source(thing, table, vocab)
        for a, b in ((thing, profile), (blob, thing)):
            for mode in ("exhaustive", "sampled"):
                with pytest.raises(TypeError, match="not a verdict source"):
                    evaluate.check_equivalence(a, b, table, vocab, mode=mode)


def test_ast_evaluator_reports_a_missing_default_as_a_diagnostic(small, blacklist):
    # the same Diagnostic, and so the same message, as compile raises
    table, vocab = small
    profile = sbpl.parse_sbpl("(allow file-read*)")
    with pytest.raises(InvalidProfile) as compiled:
        codec.compile_profile(profile, table, vocab)
    with pytest.raises(InvalidProfile) as evaluated:
        evaluate.AstEvaluator(profile, table, vocab)
    assert evaluated.value.diagnostics[0].code == "MissingDefault"
    assert str(evaluated.value) == str(compiled.value)
    with pytest.raises(InvalidProfile) as checked:
        evaluate.check_equivalence(profile, blacklist[1], table, vocab)
    assert str(checked.value) == str(compiled.value)


def _cyclic_blob(table, vocab):
    """BLACKLIST with file-read*'s second record's unmatch edge led back to
    its first record."""
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl(BLACKLIST), table, vocab))
    bp = codec.decode_blob(bytes(blob))
    first = bp.record_at(bp.op_pointers[table.index("file-read*")])
    struct.pack_into("<H", blob, first.unmatch_offset * 8 + 6, first.unit)
    return bytes(blob)


@pytest.mark.parametrize("call, error, message", [
    (lambda small, large: evaluate.BlobEvaluator(_cyclic_blob(*small), *small)
     .verdict("file-read*", Q({})),
     CycleDetected, "operation 2: node cycle through unit offset 0x0007"),
    (lambda small, large: evaluate.BlobEvaluator(
        codec.compile_profile(sbpl.parse_sbpl(BLACKLIST), *small), *large),
     MalformedBlob, "bad profile blob at byte 0: blob has 16 operations, table has 125"),
], ids=["cycle", "op-count"])
def test_blob_evaluator_structured_errors(small, large, call, error, message):
    with pytest.raises(error) as info:
        call(small, large)
    assert str(info.value) == message


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


def test_checks_do_not_depend_on_order(small, large):
    # the same checks forward, then in reverse in the same process: the
    # second pass finds warm automata and warm universe samples, and each
    # check must still give what it gave cold
    cases = [(sbpl.parse_sbpl(c.sbpl_text), large if c.vocab == "large" else small)
             for c in generate.CORPUS]
    cases += [(generate.ProfileGenerator(*small, seed=seed).generate(), small)
              for seed in range(40)]
    checks = []
    for profile, (table, vocab) in cases:
        blob = codec.compile_profile(profile, table, vocab)
        ops = sorted(profile.rules)
        trimmed = Profile("", profile.default_decision,
                          {op: rs for op, rs in profile.rules.items() if op != ops[0]})
        for a, b, kwargs in ((profile, blob, {}), (blob, trimmed, {}),
                             (profile, trimmed, {"ops": ops}),
                             (profile, trimmed, {"mode": "sampled", "seed": 3,
                                                 "samples": 50})):
            checks.append((a, b, table, vocab, kwargs))

    def run(a, b, table, vocab, kwargs):
        report = evaluate.check_equivalence(a, b, table, vocab, **kwargs)
        return report.equivalent, report.checked, report.witness

    forward = [run(*check) for check in checks]
    backward = [run(*check) for check in reversed(checks)]
    assert backward[::-1] == forward
    assert sum(not equivalent for equivalent, _c, _w in forward) > len(cases)


def test_universe_samples_each_automaton_once(small, monkeypatch):
    # samples are kept on the automaton, so a second universe over the same
    # regexes computes none; a pattern text matches through its compiled
    # program's automaton, so a profile and its blob sample each regex once
    table, vocab = small
    profile = sbpl.parse_sbpl('(deny default)\n'
                              '(allow file-read* (regex #"^/a/[bc]+$")'
                              ' (regex #"x?y"))\n')
    blob = codec.compile_profile(profile, table, vocab)
    sources = [evaluate.as_source(thing, table, vocab) for thing in (profile, blob)]
    atoms = [a for src in sources for a in evaluate.collect_atoms(src, table, vocab)]
    calls = []
    accepted_samples = evaluate._accepted_samples

    def counted(matcher, alphabet):
        calls.append(matcher)
        return accepted_samples(matcher, alphabet)

    monkeypatch.setattr(evaluate, "_accepted_samples", counted)
    first = evaluate.build_universe(atoms, vocab)
    second = evaluate.build_universe(atoms, vocab)
    assert first == second
    assert len(calls) == len(set(map(id, calls))) == 2  # one automaton per regex


def _universe_sets(thing, table, vocab):
    return {key: set(values) for key, values in evaluate.build_universe(
        evaluate.collect_atoms(thing, table, vocab), vocab).items()}


def test_profile_and_blob_sample_alike(small, large):
    # samples depend on an automaton's shape, not only on its language; a
    # pattern text samples through its own program's automaton, so a
    # profile's universe holds the same values as its compiled blob's
    tables = {"small": small, "large": large}
    cases = [(sbpl.parse_sbpl(c.sbpl_text, name=c.name), *tables[c.vocab])
             for c in generate.CORPUS]
    cases += [(generate.ProfileGenerator(*small, seed=seed).generate(), *small)
              for seed in range(40)]
    cases += [(generate.ProfileGenerator(*large, seed=seed,
                                         scale="container").generate(), *large)
              for seed in range(3)]
    for profile, table, vocab in cases:
        blob = codec.compile_profile(profile, table, vocab)
        assert _universe_sets(profile, table, vocab) == \
            _universe_sets(blob, table, vocab), profile.name
    rng = random.Random(1)
    texts = sorted({generate.random_regex_pattern(rng) for _ in range(3000)})
    assert len(texts) == 2817
    for text in texts:
        held = nfa.pattern(text)
        assert held.dfa is nfa.program(held.wire).dfa, text


def _regex_texts(profile, table, vocab):
    return {value for _key, kind, value in
            evaluate.collect_atoms(profile, table, vocab)
            if kind is ValueKind.REGEX_INDEX}


def _regex_wires(blob, vocab):
    bp = codec.decode_blob(blob)
    wires = set()
    for rec in bp.records:
        if rec.is_terminal:
            continue
        entry = vocab.by_code(rec.filter_key)
        if entry.kind is ValueKind.REGEX_INDEX:
            view = bp.value_at(rec.unit, entry)
            wires.add(bytes(view[:nfa.wire_length(view)]))
    return wires


def test_cold_check_parses_each_text_once(large, monkeypatch):
    # a check holds the Pattern of every regex text it collects, so its
    # universe and its AST verdicts find them again past the memo's
    # bound; one container profile holds fewer texts, so take the rules of
    # three
    table, vocab = large
    seeds = [generate.ProfileGenerator(table, vocab, seed=seed,
                                       scale="container").generate()
             for seed in (3, 4, 5)]
    rules = {}
    for seeded in seeds:
        for op, op_rules in seeded.rules.items():
            rules[op] = rules.get(op, ()) + op_rules
    profile = Profile("union", seeds[0].default_decision, rules)
    blob = codec.compile_profile(profile, table, vocab)
    decompiled = sbpl.parse_sbpl(decompile.decompile(blob, table, vocab))
    texts = _regex_texts(decompiled, table, vocab)
    assert len(texts) > nfa.MEMO_CAPACITY
    parsed = []
    parse_regex = rex.parse_regex

    def counted(text):
        parsed.append(text)
        return parse_regex(text)

    nfa.pattern.cache_clear()
    nfa.program.cache_clear()
    gc.collect()
    monkeypatch.setattr(rex, "parse_regex", counted)
    report = evaluate.check_equivalence(decompiled, blob, table, vocab,
                                        mode="sampled", samples=400)
    assert report.equivalent
    assert sorted(parsed) == sorted(texts)


def test_container_round_trip_decodes_each_regex_once(large, monkeypatch):
    # the decompile self-check's loop: the memo holds one container round
    # trip's texts and programs, so the recompile finds each text that came
    # back unchanged, and decompile and the check find each program that a
    # compile wrote, which the writer handed its Nfa, so no wire is decoded
    table, vocab = large
    profile = generate.ProfileGenerator(table, vocab, seed=3,
                                        scale="container").generate()
    calls = {"build_nfa": 0, "deserialize_nfa": 0}
    for name in calls:
        def counted(arg, name=name, real=getattr(nfa, name)):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(nfa, name, counted)
    nfa.pattern.cache_clear()
    nfa.program.cache_clear()
    gc.collect()
    blob = codec.compile_profile(profile, table, vocab)
    reparsed = sbpl.parse_sbpl(decompile.decompile(blob, table, vocab))
    recompiled = codec.compile_profile(reparsed, table, vocab)
    report = evaluate.check_equivalence(blob, recompiled, table, vocab,
                                        mode="sampled", samples=400)
    assert report.equivalent
    seen = dict(calls)
    source = _regex_texts(profile, table, vocab)
    texts = source | _regex_texts(reparsed, table, vocab)
    wires = _regex_wires(blob, vocab) | _regex_wires(recompiled, vocab)
    assert len(texts) > len(source)  # some texts came back changed
    assert len(wires) > 0
    assert seen == {"build_nfa": len(texts), "deserialize_nfa": 0}


def test_pattern_too_large_for_a_program_raises_in_a_verdict(small):
    # an AST verdict matches through the pattern's compiled program, so a
    # pattern no program can hold raises there, as compiling it does
    table, vocab = small
    text = "a" * 70_000
    profile = Profile("", Decision.DENY, {"file-read*": (
        Rule(Decision.ALLOW, Atom("regex", text, ValueForm.REGEX)),)})
    ev = evaluate.AstEvaluator(profile, table, vocab)
    with pytest.raises(TooManyStates, match="more than 65535 serialized nodes"):
        ev.verdict("file-read*", Q({"path": "/x"}))
    with pytest.raises(TooManyStates):
        codec.compile_profile(profile, table, vocab)


def test_bundle_view_universe_is_its_own(small):
    # every view of a bundle shares the bundle's record block; a view's
    # atoms are the nodes its own operation entries reach, as in the blob
    # extracted from it
    table, vocab = small
    profiles = []
    for seed in range(8):
        p = generate.ProfileGenerator(table, vocab, seed=seed).generate()
        profiles.append(Profile(f"p{seed}", p.default_decision, p.rules))
    _offset, views = codec.unpack_bundle(codec.pack_bundle(profiles, table, vocab))
    for profile, (_name, view) in zip(profiles, views):
        extracted = codec.extract_profile(view, vocab)
        assert _universe_sets(view, table, vocab) == \
            _universe_sets(extracted, table, vocab)
        assert evaluate.check_equivalence(profile, view, table, vocab).checked == \
            evaluate.check_equivalence(profile, extracted, table, vocab).checked


# process-exec fills the path pool with twelve literals that no file
# operation tests: for file-read* and file-write* they act like unbound
MANY_PATHS = """(deny default)
(allow process-exec (literal "/x/1") (literal "/x/2") (literal "/x/3")
  (literal "/x/4") (literal "/x/5") (literal "/x/6") (literal "/x/7")
  (literal "/x/8") (literal "/x/9") (literal "/x/10") (literal "/x/11")
  (literal "/x/12"))
(allow file-read* (literal "/a/1") (regex #"^/b/[45]$"))
(allow file-write* (require-all (literal "/a/1") (vnode-type REGULAR-FILE)))
(deny file-write* (regex #"^/b/[45]$"))
(allow file-write* (vnode-type DIRECTORY))
"""


def test_exhaustive_evaluates_one_context_per_signature_class(small, monkeypatch):
    table, vocab = small
    profile = sbpl.parse_sbpl(MANY_PATHS)
    blob = codec.compile_profile(profile, table, vocab)
    trimmed, flipped = dict(profile.rules), dict(profile.rules)
    trimmed["file-write*"] = trimmed["file-write*"][1:]
    flipped["file-write*"] = tuple(
        Rule(r.decision.negate() if i == 1 else r.decision, r.filter)
        for i, r in enumerate(flipped["file-write*"]))
    pairs = [(profile, blob, None),
             (blob, profile, ["file-write*", "file-read*"]),
             (blob, Profile("", profile.default_decision, trimmed), None),
             (profile, Profile("", profile.default_decision, flipped),
              ["file-read*", "file-write*"])]
    calls = []  # the evaluator each verdict call went to
    for cls in (evaluate.AstEvaluator, evaluate.BlobEvaluator):
        def counted(self, op, ctx, trace=None, _verdict=cls.verdict):
            calls.append(id(self))
            return _verdict(self, op, ctx, trace)
        monkeypatch.setattr(cls, "verdict", counted)
    equivalent = []
    for a, b, ops in pairs:
        want = enumerated_equivalence(a, b, table, vocab, ops=ops)
        del calls[:]
        report = evaluate.check_equivalence(a, b, table, vocab, ops=ops)
        assert report == want
        per_evaluator = [calls.count(ev) for ev in set(calls)]
        assert len(per_evaluator) == 2
        assert max(per_evaluator) < report.checked
        equivalent.append(report.equivalent)
    assert equivalent == [True, True, False, False]


def test_one_column_per_distinct_atom(small, monkeypatch):
    # both sides test an atom by one predicate, so checking a profile
    # against itself splits a key's pool once per distinct atom, not once
    # per side
    table, vocab = small
    profile = sbpl.parse_sbpl(MANY_PATHS)
    columns = []
    atom_column = evaluate._atom_column

    def counted(atom, pool):
        columns.append(atom)
        return atom_column(atom, pool)

    monkeypatch.setattr(evaluate, "_atom_column", counted)
    assert evaluate.check_equivalence(profile, profile, table, vocab).equivalent
    distinct = set(evaluate.collect_atoms(profile, table, vocab))
    assert {kind for _key, kind, _value in distinct} == {
        ValueKind.LITERAL_STRING, ValueKind.REGEX_INDEX, ValueKind.ENUM_NAMED}
    assert len(columns) == len(set(columns)) == len(distinct)


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


@pytest.mark.parametrize("mode", ["exhaustiv", "Sampled", "", None])
def test_unknown_mode_raises(small, blacklist, mode):
    # a mode other than the two named must not fall through to sampling
    table, vocab = small
    profile, blob = blacklist
    with pytest.raises(ValueError, match="unknown equivalence mode"):
        evaluate.check_equivalence(profile, blob, table, vocab, mode=mode)


def test_trace_reports_path(small, blacklist):
    table, vocab = small
    _profile, blob = blacklist
    src = evaluate.BlobEvaluator(blob, table, vocab)
    trace = []
    verdict = src.verdict("file-read*", Q({"path": "/bin/ls"}), trace=trace)
    assert verdict is Decision.ALLOW
    assert trace[-1][1] == "allow"
    assert len(trace) >= 2


# deep-nesting corpus case: bindings -> (AST trace as (owner, rule index),
# blob trace) for file-read-data, which falls back to file-read*
PINNED_TRACES = (
    ({"path": "/bin/ls", "vnode-type": "SYMLINK"}, [("default", None)],
     [(6, "regex", True), (7, "vnode-type", True), (8, "literal", False),
      (11, "deny", None)]),
    ({"path": "/bin/ls"}, [("file-read*", 0)],
     [(6, "regex", True), (7, "vnode-type", False), (10, "allow", None)]),
    ({"path": "/etc/hosts", "vnode-type": "REGULAR-FILE"}, [("file-read*", 0)],
     [(6, "regex", False), (8, "literal", True), (9, "vnode-type", True),
      (10, "allow", None)]),
    ({"path": 7}, [("default", None)],
     [(6, "regex", False), (8, "literal", False), (11, "deny", None)]),
    ({}, [("default", None)],
     [(6, "regex", False), (8, "literal", False), (11, "deny", None)]),
)


def test_trace_pinned_on_corpus_case(small):
    table, vocab = small
    case = next(c for c in generate.CORPUS if c.name == "deep-nesting")
    profile = sbpl.parse_sbpl(case.sbpl_text)
    blob = codec.compile_profile(profile, table, vocab)
    ast_ev = evaluate.AstEvaluator(profile, table, vocab)
    blob_ev = evaluate.BlobEvaluator(blob, table, vocab)
    for bindings, want_ast, want_blob in PINNED_TRACES:
        ast_trace, blob_trace = [], []
        ast_ev.verdict("file-read-data", Q(bindings), trace=ast_trace)
        blob_ev.verdict("file-read-data", Q(bindings), trace=blob_trace)
        assert [(owner, None if rule is None else profile.rules[owner].index(rule))
                for owner, rule in ast_trace] == want_ast, bindings
        assert blob_trace == want_blob, bindings
        trace = []
        blob_ev.verdict("network-outbound", Q(bindings), trace=trace)
        assert trace == [(11, "deny", None)]
        trace = []
        ast_ev.verdict("network-outbound", Q(bindings), trace=trace)
        assert trace == [("default", None)]


def _reference_matches(expr, ctx, vocab, automata):
    """The recursive matcher evaluate used before its hot paths became one
    loop each, kept as the reference they are checked against. automata
    caches one automaton per pattern text."""
    if isinstance(expr, Atom):
        entry = vocab.by_name(expr.key)
        bound = ctx.bindings.get(entry.context_key)
        if bound is None:
            return False
        if entry.kind is ValueKind.REGEX_INDEX:
            if not isinstance(bound, str):
                return False
            if expr.value not in automata:
                automata[expr.value] = nfa.LazyDfa(
                    nfa.build_nfa(rex.parse_regex(expr.value)))
            return nfa.nfa_match(automata[expr.value], bound)
        return bound == expr.value
    if isinstance(expr, RequireNot):
        return not _reference_matches(expr.child, ctx, vocab, automata)
    if isinstance(expr, RequireAll):
        return all(_reference_matches(c, ctx, vocab, automata) for c in expr.children)
    if isinstance(expr, RequireAny):
        return any(_reference_matches(c, ctx, vocab, automata) for c in expr.children)
    raise TypeError(f"not a filter expression: {expr!r}")


class _Differential:
    """One profile's reference verdicts beside the AST and blob evaluators
    and expr_matches, compared query by query."""

    def __init__(self, profile, table, vocab):
        self.profile, self.table, self.vocab = profile, table, vocab
        self.owner = table.owners(profile.rules)
        self.automata = {}
        self.ast_ev = evaluate.AstEvaluator(profile, table, vocab)
        self.blob_ev = evaluate.BlobEvaluator(
            codec.compile_profile(profile, table, vocab), table, vocab)
        self.checked = 0

    def rules(self, op):
        owner = self.owner[op]
        return self.profile.rules[owner] if owner else ()

    def check(self, op, ctx):
        want = self.profile.default_decision
        for rule in self.rules(op):
            if rule.filter is not None:
                ref = _reference_matches(rule.filter, ctx, self.vocab, self.automata)
                assert expr_matches(rule.filter, ctx, self.vocab) is ref, \
                    (op, str(ctx), rule)
            if rule.filter is None or ref:
                want = rule.decision
                break
        assert self.ast_ev.verdict(op, ctx) is want, (op, str(ctx))
        assert self.blob_ev.verdict(op, ctx) is want, (op, str(ctx))
        self.checked += 1


def test_verdicts_agree_with_reference_matcher(small, large):
    tables = {"small": small, "large": large}
    cases = [(sbpl.parse_sbpl(c.sbpl_text), tables[c.vocab]) for c in generate.CORPUS]
    cases += [(generate.ProfileGenerator(*small, seed=seed).generate(), small)
              for seed in range(40)]
    for profile, (table, vocab) in cases:
        diff = _Differential(profile, table, vocab)
        universe = evaluate.build_universe(
            evaluate.collect_atoms(profile, table, vocab), vocab)
        for op in table.entries:
            keys = {key for key, _r, _v in evaluate._op_atoms(diff.ast_ev, op)}
            sub = {k: universe[k] for k in sorted(keys)}
            for ctx in exhaustive_contexts(sub):
                diff.check(op, ctx)
        assert diff.checked >= len(table)
    table, vocab = large
    profile = generate.ProfileGenerator(table, vocab, seed=0,
                                        scale="container").generate()
    diff = _Differential(profile, table, vocab)
    universe = evaluate.build_universe(
        evaluate.collect_atoms(profile, table, vocab), vocab)
    rng = random.Random(0)
    ops = sorted(profile.rules)
    for ctx in evaluate.sampled_contexts(universe, 0, 400):
        diff.check(rng.choice(ops), ctx)
    assert diff.checked == 400


# bindings of the wrong type for their filters: a regex key bound to a
# number, a list or an endpoint, an endpoint key bound to a tuple or a
# string, a numeric key bound to a string, an enum key bound to a number
ODD_BINDINGS = (
    {"path": 7},
    {"path": ["/bin/ls"]},
    {"path": ("tcp", "localhost:22")},
    {"remote": ("tcp", "localhost:22")},
    {"remote": ("tcp", "localhost:23")},
    {"remote": "tcp localhost:22"},
    {"file-mode": "438"},
    {"file-mode": 438},
    {"vnode-type": 1},
    {"target": "self", "global-name": 0},
)


def test_odd_bindings_agree_with_reference_matcher(small, large):
    tables = {"small": small, "large": large}
    allowed = []
    for case in generate.CORPUS:
        table, vocab = tables[case.vocab]
        diff = _Differential(sbpl.parse_sbpl(case.sbpl_text), table, vocab)
        for bindings in ODD_BINDINGS:
            for op in table.entries:
                diff.check(op, Q(bindings))
                if diff.profile.default_decision is Decision.DENY \
                        and case.name != "require-not" and op in diff.profile.rules \
                        and diff.blob_ev.verdict(op, Q(bindings)) is Decision.ALLOW:
                    allowed.append((case.name, op, bindings))
    # only the well-typed bindings match an atom
    assert allowed == [
        ("multi-operation", "network-outbound", {"remote": ("tcp", "localhost:22")}),
        ("multi-operation", "signal", {"target": "self", "global-name": 0}),
        ("numeric-filter", "file-ioctl", {"file-mode": 438}),
    ]


def test_unknown_filter_name_raises(small):
    table, vocab = small
    ctx = Q({"path": "/x"})
    unknown = Atom("no-such-filter", "/x")
    for expr in (unknown, RequireNot(unknown), RequireAny((unknown,))):
        with pytest.raises(UnknownFilterKey):
            _reference_matches(expr, ctx, vocab, {})
        with pytest.raises(UnknownFilterKey):
            expr_matches(expr, ctx, vocab)
        profile = Profile("", Decision.DENY,
                          {"file-read*": (Rule(Decision.ALLOW, expr),)})
        with pytest.raises(UnknownFilterKey):
            evaluate.AstEvaluator(profile, table, vocab).verdict("file-read*", ctx)


def _brute_force_accepted(ast, alphabet, max_len):
    """Every string over alphabet up to max_len that the AST matcher accepts
    in search mode, in (length, lexicographic) order."""
    return [s for n in range(max_len + 1)
            for s in map("".join, itertools.product(sorted(alphabet), repeat=n))
            if ast_match(ast, s, full=False)]


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
        matcher = nfa.LazyDfa(nfa.build_nfa(ast))
        alphabet = evaluate._pattern_alphabet(matcher)
        got = evaluate._accepted_samples(matcher, alphabet)
        accepted = _brute_force_accepted(ast, alphabet, 5)
        if want is not None:
            assert got == want, pat
        # the first sample is the shortest, smallest accepted string; the
        # rest follow it in the same order
        assert got[:1] == accepted[:1], (pat, got, accepted[:3])
        assert [s for s in accepted if s in got] == [s for s in got if len(s) <= 5], pat
        assert all(ast_match(ast, s, full=False) for s in got), pat


def _accessor_node(bp, unit, vocab):
    """The node at unit as BlobEvaluator prepares it, built from the codec's
    accessors and the vocabulary alone."""
    decision = bp.decision_at(unit)
    if decision is not None:
        return (None, False, decision, None, None, None)
    idx = unit - bp.node_base
    entry = vocab.by_code(bp.filter_keys[idx])
    value = bp.value_at(unit, entry)
    is_regex = entry.kind is ValueKind.REGEX_INDEX
    if is_regex:
        value = nfa.program_at(value).dfa
    return (entry.context_key, is_regex, value, bp.match_offsets[idx],
            bp.unmatch_offsets[idx], entry)


def _accessor_atoms(bp, vocab):
    """collect_atoms of a blob, its nodes built by _accessor_node in the
    order the evaluator's walk reaches them."""
    nodes = {}

    def successors(unit):
        nodes[unit] = _accessor_node(bp, unit, vocab)
        return nodes[unit][3:5]

    codec.preorder(bp.op_pointers, successors, bp.node_base + len(bp.node_types))
    return [(key, entry.kind, value) for key, _r, value, _m, _u, entry
            in (nodes[unit] for unit in sorted(nodes)) if key is not None]


def _accessor_verdict(bp, table, vocab, op, ctx):
    """A blob verdict walked on _accessor_node."""
    idx = table.index(op)
    unit = bp.op_pointers[idx]
    for _ in range(len(bp.node_types) + 1):
        key, is_regex, value, match, unmatch, _entry = _accessor_node(bp, unit, vocab)
        if key is None:
            return value
        bound = ctx.bindings.get(key)
        if is_regex:
            matched = isinstance(bound, str) and nfa.nfa_match(value, bound)
        else:
            matched = bound == value
        unit = match if matched else unmatch
    raise CycleDetected(idx, unit)


def _tried(call):
    """call()'s result, or the class and message of the SandboxError it raised."""
    try:
        return "ok", call()
    except SandboxError as exc:
        return type(exc).__name__, str(exc)


def test_prepared_nodes_match_the_codec_accessors(small, large):
    tables = {"small": small, "large": large}
    cases = [(sbpl.parse_sbpl(c.sbpl_text), tables[c.vocab]) for c in generate.CORPUS]
    cases += [(generate.ProfileGenerator(*small, seed=seed).generate(), small)
              for seed in range(50)]
    cases += [(generate.ProfileGenerator(*large, seed=seed, scale="container").generate(),
               large) for seed in range(2)]
    views = [(codec.decode_blob(codec.compile_profile(p, *tv)), tv) for p, tv in cases]
    members = []
    for seed in range(8):
        p = generate.ProfileGenerator(*small, seed=seed).generate()
        members.append(Profile(f"p{seed}", p.default_decision, p.rules))
    _offset, bundle = codec.unpack_bundle(codec.pack_bundle(members, *small))
    views.append((bundle[1][1], small))
    for bp, (table, voc) in views:
        ev = evaluate.BlobEvaluator(bp, table, voc)
        atoms = evaluate.collect_atoms(ev, table, voc)
        assert atoms == _accessor_atoms(bp, voc)
        for unit, node in ev._prepared.items():
            assert node == _accessor_node(bp, unit, voc), unit
        # a cold verdict prepares only the nodes on its path
        universe = evaluate.build_universe(atoms, voc)
        ops = [op for op in table.entries if op != "default"]
        for i, ctx in enumerate(evaluate.sampled_contexts(universe, 5, 5)):
            op = ops[i * 7 % len(ops)]
            cold, trace = evaluate.BlobEvaluator(bp, table, voc), []
            assert cold.verdict(op, ctx, trace) is _accessor_verdict(bp, table, voc, op, ctx)
            assert set(cold._prepared) == {unit for unit, _name, _matched in trace}


def test_prepared_nodes_raise_what_the_codec_accessors_raise(small, large):
    # the decode golden's mutations; each one that decodes is read through
    # collect_atoms and cold verdicts and through the accessors
    bases = decode_bases(small, large)
    contexts_of = []
    for blob, bp in bases:
        bundled = blob[:2] == b"\x00\x80"
        table, voc = small if bundled or len(bp.op_pointers) == len(small[0]) else large
        universe = evaluate.build_universe(evaluate.collect_atoms(bp, table, voc), voc)
        contexts_of.append((bundled, table, voc,
                            [Q({}), *evaluate.sampled_contexts(universe, 0, 2)]))
    outcomes = Counter()
    for i, data, _garbage in decode_mutations(bases):
        bundled, table, voc, contexts = contexts_of[i % len(bases)]
        decoded = _tried(lambda: codec.unpack_bundle(data, scan=False)[1][0][1] if bundled
                         else codec.decode_blob(data))
        if decoded[0] != "ok" or decoded[1].op_count != len(table):
            continue
        bp = decoded[1]
        got = _tried(lambda: evaluate.collect_atoms(evaluate.BlobEvaluator(bp, table, voc),
                                                    table, voc))
        assert got == _tried(lambda: _accessor_atoms(bp, voc)), i
        outcomes[got[0]] += 1
        ops = list(table.entries)
        for j, ctx in enumerate(contexts):
            op = ops[(i + 31 * j) % len(ops)]
            got = _tried(lambda: evaluate.BlobEvaluator(bp, table, voc).verdict(op, ctx))
            assert got == _tried(lambda: _accessor_verdict(bp, table, voc, op, ctx)), (i, op)
            outcomes[got[0]] += 1
    assert outcomes["ok"] > 1000, outcomes
    assert {"MalformedBlob", "MalformedRegexBlob", "UnknownFilterKey",
            "UnknownFilterValue"} <= set(outcomes), outcomes
