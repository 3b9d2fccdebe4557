import gc
import itertools
import random
import time
import weakref

import pytest

from sbprof import codec, decompile, evaluate, generate, model, nfa, rex, sbpl
from sbprof.errors import (
    InvalidProfile,
    MalformedRegexBlob,
    RegexSyntaxError,
    TooManyStates,
)
from sbprof.rex import AnchorStart, Char, CharClass, Concat, Empty, Star

from oracles import (
    anchored,
    ast_match,
    bounded_language_equal,
    dense_program,
    forward_jump_chain,
    forward_jump_nest,
    full_match,
    jump_back_ladder,
)

REFERENCE_PATTERNS = (
    "/bin/*",
    "^/dev/ttys[0-9]*",
    r"^/private/tmp/\.webdavUDS\.[^/]+$",
)


def _language(ast, alphabet, max_len):
    """Brute-force oracle: full-match every string up to max_len."""
    out = set()
    for n in range(max_len + 1):
        for tup in itertools.product(sorted(alphabet), repeat=n):
            s = "".join(tup)
            if ast_match(ast, s, full=True):
                out.add(s)
    return out


def test_parse_anchored_class_pattern():
    ast = rex.parse_regex("^/dev/ttys[0-9]*")
    assert isinstance(ast, Concat)
    assert isinstance(ast.parts[0], AnchorStart)
    tail = ast.parts[-1]
    assert isinstance(tail, Star) and isinstance(tail.inner, CharClass)
    assert tail.inner.ranges == ((0x30, 0x39),)


def test_parse_single_char():
    assert rex.parse_regex("a") == Char(ord("a"))


def test_nodes_are_interned():
    # a node equal to a live one is that node, so == and hash are identity
    assert rex.parse_regex("(ab|[c-e])*") is rex.parse_regex("(ab|[c-e])*")
    assert Char(ord("a")) is rex.CHARS[ord("a")]
    ast = rex.parse_regex("(ab|[c-e])*")
    parsed = (*ast.inner.options[0].parts, ast.inner.options[1])
    program = nfa.deserialize_nfa(nfa.serialize_nfa(nfa.build_nfa(ast)))
    consumed = [label for _src, label, _dst in program.transitions
                if label is not rex.Empty()]
    assert len(consumed) == 3
    assert all(any(label is node for node in parsed) for label in consumed)
    with pytest.raises(AttributeError):
        ast.inner = Char(ord("a"))


def test_parse_errors_carry_position():
    with pytest.raises(RegexSyntaxError) as err:
        rex.parse_regex("(")
    assert err.value.position == 0
    for bad in ("a)", "[z-a]", "[]", "a\\", "*a", "[abc"):
        with pytest.raises(RegexSyntaxError):
            rex.parse_regex(bad)
    with pytest.raises(RegexSyntaxError):
        rex.parse_regex("")


def test_print_parse_round_trip():
    for pat in REFERENCE_PATTERNS + ("a|b|c", "(ab)+c?", "[^a-z/]", "a.b$",
                                     "x(y|z)*", "\\.\\*\\["):
        ast = rex.parse_regex(pat)
        assert rex.parse_regex(rex.print_regex(ast)) == ast


def test_ast_matcher_search_vs_full():
    ast = rex.parse_regex("^/bin/.*")
    assert ast_match(ast, "/bin/ls", full=False)
    assert not ast_match(ast, "/etc/passwd", full=False)
    unanchored = rex.parse_regex("/bin/*")
    assert ast_match(unanchored, "/usr/bin/ls", full=False)
    assert not ast_match(unanchored, "/usr/bin/ls", full=True)


def test_build_nfa_trivial_shapes():
    m = nfa.build_nfa(Char(ord("a")))
    assert m.n_states == 2
    assert len([t for t in m.transitions]) == 1
    star = nfa.build_nfa(Star(Char(ord("a"))))
    for s, want in (("", True), ("a", True), ("aaaa", True), ("b", False)):
        assert full_match(star, s) is want


def test_nfa_language_equals_ast_matcher_on_random_asts(small):
    table, vocab = small
    rng = random.Random(11)
    alphabet = "ab/"
    for case in range(200):
        pat = generate.random_regex_pattern(rng, 3) if case % 2 else \
            _small_pattern(rng)
        ast = rex.parse_regex(pat)
        dfa = anchored(nfa.build_nfa(ast))
        for n in range(0, 7):
            for tup in itertools.product(alphabet, repeat=n):
                s = "".join(tup)
                assert nfa.nfa_match(dfa, s) == \
                    ast_match(ast, s, full=True), (pat, s)


def _small_pattern(rng):
    atoms = ("a", "b", "/", ".", "[ab]", "[^a]")
    pieces = []
    for _ in range(rng.randint(1, 4)):
        piece = rng.choice(atoms)
        if rng.random() < 0.4:
            piece += rng.choice("*+?")
        pieces.append(piece)
    pat = "".join(pieces)
    if rng.random() < 0.3:
        pat = "%s|%s" % (pat, rng.choice(atoms))
    return pat


def test_serialize_single_char_is_two_records():
    blob = nfa.serialize_nfa(nfa.build_nfa(Char(ord("a"))))
    assert int.from_bytes(blob[:2], "little") == 2
    assert blob[2] == nfa.TAG_CHAR
    assert blob[5] == nfa.TAG_ACCEPT


def test_serialize_star_contains_backward_jump():
    blob = nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex("a*")))
    m = nfa.deserialize_nfa(blob)
    tags = _record_tags(blob)
    back = [(i, t) for i, t in enumerate(tags) if t == nfa.TAG_JUMP_BCK]
    assert back, "closure must loop backwards"
    assert full_match(m, "aaa")


def _record_tags(blob):
    count = int.from_bytes(blob[:2], "little")
    tags = []
    pos = 2
    for _ in range(count):
        tag = blob[pos]
        tags.append(tag)
        if tag in (nfa.TAG_CLASS, nfa.TAG_CLASS_NEG):
            pos += 2 + 2 * blob[pos + 1]
        else:
            pos += 3
    return tags


def _jump_targets(blob):
    count = int.from_bytes(blob[:2], "little")
    pos = 2
    for i in range(count):
        tag = blob[pos]
        if tag in (nfa.TAG_CLASS, nfa.TAG_CLASS_NEG):
            pos += 2 + 2 * blob[pos + 1]
            continue
        operand = int.from_bytes(blob[pos + 1:pos + 3], "little")
        pos += 3
        if tag in (nfa.TAG_JUMP_FWD, nfa.TAG_JUMP_BCK):
            yield i, tag, operand


def test_jump_index_invariant_on_emitted_streams(small):
    rng = random.Random(5)
    for _ in range(100):
        pat = generate.random_regex_pattern(rng, 4)
        blob = nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(pat)))
        for i, tag, target in _jump_targets(blob):
            if tag == nfa.TAG_JUMP_FWD:
                assert target > i, pat
            else:
                assert target < i, pat


def test_serialize_deserialize_preserves_bounded_language():
    rng = random.Random(21)
    for _ in range(200):
        pat = generate.random_regex_pattern(rng, 3)
        m = nfa.build_nfa(rex.parse_regex(pat))
        m2 = nfa.deserialize_nfa(nfa.serialize_nfa(m))
        assert m2.n_states == int.from_bytes(nfa.serialize_nfa(m)[:2], "little")
        alphabet = _pattern_alphabet(pat)
        equal, witness = bounded_language_equal(m, m2, alphabet, 6)
        assert equal, (pat, witness)


def _pattern_alphabet(pat, cap=8):
    chars = sorted(set(c for c in pat if c.isalnum() or c == "/"))[:cap - 1]
    return set(chars) | {"~"}


def test_deserialize_rejects_malformed():
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(b"")
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(b"\x00\x00")  # zero nodes
    good = nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex("ab")))
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(good[:4])  # truncated mid-record
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(b"\x02\x00" + bytes([nfa.TAG_JUMP_BCK, 1, 0]) +
                            bytes([nfa.TAG_ACCEPT, 0, 0]))  # backward jump forwards
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(b"\x01\x00" + bytes([nfa.TAG_CHAR, 97, 0]))  # flows off end
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(b"\x01\x00" + bytes([0xFF, 0, 0]))  # unknown tag


def test_deserialize_requires_accept():
    blob = b"\x02\x00" + bytes([nfa.TAG_CHAR, 97, 0]) + bytes([nfa.TAG_CLASS, 0])
    with pytest.raises(MalformedRegexBlob):
        nfa.deserialize_nfa(blob)


def test_nfa_to_regex_two_state_chain():
    m = nfa.Nfa(2, ((0, Char(ord("a")), 1),), 0, frozenset([1]))
    assert nfa.nfa_to_regex(m) == Char(ord("a"))


def test_nfa_to_regex_chain_with_self_loop():
    # three-state chain where the middle state loops on itself
    a, b = Char(ord("a")), Char(ord("b"))
    m = nfa.Nfa(3, ((0, a, 1), (1, b, 1), (1, a, 2)), 0, frozenset([2]))
    back = nfa.nfa_to_regex(m)
    rebuilt = nfa.build_nfa(back)
    equal, witness = bounded_language_equal(m, rebuilt, "ab", 7)
    assert equal, witness


def test_nfa_to_regex_language_preserved_on_random_asts():
    rng = random.Random(31)
    for _ in range(200):
        pat = generate.random_regex_pattern(rng, 3)
        m = nfa.build_nfa(rex.parse_regex(pat))
        back = nfa.nfa_to_regex(m)
        rebuilt = nfa.build_nfa(back)
        equal, witness = bounded_language_equal(
            m, rebuilt, _pattern_alphabet(pat), 6)
        assert equal, (pat, rex.print_regex(back), witness)


def test_reference_patterns_reverse_to_identical_text():
    for pat in REFERENCE_PATTERNS:
        m = nfa.deserialize_nfa(nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(pat))))
        assert rex.print_regex(nfa.nfa_to_regex(m)) == pat


def test_enumerate_commutes_with_serialization():
    rng = random.Random(41)
    for _ in range(40):
        pat = generate.random_regex_pattern(rng, 2)
        m = nfa.build_nfa(rex.parse_regex(pat))
        m2 = nfa.deserialize_nfa(nfa.serialize_nfa(m))
        equal, witness = bounded_language_equal(
            m, m2, _pattern_alphabet(pat, cap=5), 4)
        assert equal, (pat, witness)


def test_bounded_language_equal_detects_differences():
    pairs = (("a", "b", "a"), ("a*", "a+", ""), ("ab", "ab|ac", "ac"),
             ("a", "a|aa", "aa"), ("[ab]", "[abc]", "c"))
    for left, right, expected_witness in pairs:
        ml = nfa.build_nfa(rex.parse_regex(left))
        mr = nfa.build_nfa(rex.parse_regex(right))
        equal, witness = bounded_language_equal(ml, mr, "abc", 4)
        assert not equal, (left, right)
        if expected_witness is not None:
            assert witness == expected_witness, (left, right, witness)


def test_anchors_inside_pattern_agree_with_oracle():
    for pat, s, want_search in (
        ("^a", "ba", False),
        ("a$", "ab", False),
        ("a$", "ba", True),
        ("^$", "", True),
        ("^$", "x", False),
        ("^", "", True),
        ("$", "", True),
        ("$", "abc", True),
        ("^a$", "", False),
        ("a*$", "", True),
        ("$^", "", True),
        ("$^", "a", False),
        ("b|^$", "", True),
        ("(^|a)b", "b", True),
        ("(^|a)b", "cab", True),
        ("(^|a)b", "cb", False),
        ("a($|b)", "xa", True),
        # code points above 0xFF share one byte class
        (".", "\u0100", True),
        ("^.$", "\u4e00", True),
        ("[^a]", "\u0101", True),
        ("a[^/]b", "a\u20acb", True),
        ("^[^a-z]+$", "\u0100\u0101", True),
        ("[a-z]", "\u0100", False),
        ("[\x00-\x7f]", "\u0100", False),
        ("^a$", "\u0100a", False),
    ):
        ast = rex.parse_regex(pat)
        m = nfa.build_nfa(ast)
        assert ast_match(ast, s, full=False) is want_search, pat
        assert nfa.nfa_match(nfa.LazyDfa(m), s) is want_search, pat
        assert full_match(m, s) is ast_match(ast, s, full=True), pat


def test_lazy_dfa_flush_keeps_verdicts():
    # the DFA remembers the last ten characters: about 2**10 states; the
    # pattern ends in $, so a match is not decided before the string ends
    pat = "(a|b)*a" + "(a|b)" * 9 + "$"
    ast = rex.parse_regex(pat)
    m = nfa.build_nfa(ast)
    dfa, full = nfa.LazyDfa(m), anchored(m)
    rng = random.Random(7)
    for _ in range(120):
        s = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        assert nfa.nfa_match(dfa, s) is ast_match(ast, s, full=False), s
        assert nfa.nfa_match(full, s) is ast_match(ast, s, full=True), s
        assert dfa.cached_states <= nfa.DFA_STATE_CAP
        assert full.cached_states <= nfa.DFA_STATE_CAP
    assert dfa.flushes > 0 and full.flushes > 0


def test_lazy_dfa_pins_one_state(monkeypatch):
    # a new automaton, and each one just flushed, caches its initial state
    # and nothing else
    pinned = []
    pin = nfa.LazyDfa._pin

    def counted(dfa):
        pin(dfa)
        pinned.append(dfa.cached_states)

    monkeypatch.setattr(nfa.LazyDfa, "_pin", counted)
    monkeypatch.setattr(nfa, "DFA_STATE_CAP", 8)
    dfa = nfa.LazyDfa(nfa.build_nfa(rex.parse_regex("(a|b)*a(a|b)(a|b)(a|b)$")))
    assert dfa.cached_states == 1
    rng = random.Random(7)
    for _ in range(20):
        dfa.match("".join(rng.choice("ab") for _ in range(20)))
    assert dfa.flushes > 0
    assert pinned == [1] * (1 + dfa.flushes)


def test_jump_back_ladder_reverses_fast():
    # in index order each removed jump glued every edge into node 0 again:
    # 1.1 s at 1,000 records and about 147 s at 4,000
    program = nfa.deserialize_nfa(jump_back_ladder(4000))
    started = time.perf_counter()
    text = rex.print_regex(nfa.nfa_to_regex(program))
    assert time.perf_counter() - started < 0.1
    assert text == "a+"


@pytest.mark.parametrize("n", [200, 400])
def test_forward_jump_chain_reverses_fast(n):
    # in index order this took 5.2 s at 200 pairs and then raised
    # TooManyStates for about 10^59 leaves
    program = nfa.deserialize_nfa(forward_jump_chain(n))
    started = time.perf_counter()
    text = rex.print_regex(nfa.nfa_to_regex(program))
    assert time.perf_counter() - started < 0.1
    back = nfa.deserialize_nfa(nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(text))))
    equal, witness = bounded_language_equal(program, back, "ab", 7)
    assert equal, (text, witness)


def test_dense_program_past_the_glue_budget_is_refused():
    # removing the states of the complete graph on 40 states takes 26,664
    # glue steps in degree order, past the budget
    program = nfa.deserialize_nfa(dense_program(40))
    started = time.perf_counter()
    with pytest.raises(TooManyStates, match=f"more than {nfa.REVERSAL_GLUE_BUDGET} glue steps"):
        nfa.nfa_to_regex(program)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("n", [120, 128])
def test_forward_jump_nest_reverses_to_text_that_reparses(n):
    text = rex.print_regex(nfa.nfa_to_regex(nfa.deserialize_nfa(forward_jump_nest(n))))
    assert text == "(" * (n - 1) + "a?" + "a)?" * (n - 1)
    assert rex.print_regex(rex.parse_regex(text)) == text


@pytest.mark.parametrize("n", [129, 250, 2000])
def test_forward_jump_nest_past_the_group_limit_is_refused(n):
    # the reversal nests two levels per jump: past 255 levels it would
    # print more nested groups than parse_regex reads, and at 250 jumps
    # counting its leaves recursed past Python's limit
    program = nfa.deserialize_nfa(forward_jump_nest(n))
    started = time.perf_counter()
    with pytest.raises(TooManyStates, match=f"nests {2 * n - 1} levels deep"):
        nfa.nfa_to_regex(program)
    assert time.perf_counter() - started < 1.0


def test_nested_star_program_reverses_fast():
    # state elimination builds equal fragments apart; simplify compares them
    # by identity, where walking them as trees took 0.42 s
    depth = rex.MAX_GROUP_NESTING
    program = nfa.deserialize_nfa(nfa.serialize_nfa(nfa.build_nfa(
        rex.parse_regex("(" * depth + "a" + ")*" * depth))))
    started = time.perf_counter()
    back = nfa.nfa_to_regex(program)
    assert time.perf_counter() - started < 0.25
    assert rex.print_regex(back) == "a*"


def test_long_literal_reverses_without_throwaway_nodes(monkeypatch):
    # reversal glues fragments as tuples of parts, so a literal's chain of
    # states builds its Concat once, not once for each prefix
    rng = random.Random(4000)
    text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4000))
    program = nfa.deserialize_nfa(nfa.serialize_nfa(nfa.build_nfa(
        rex.parse_regex(text))))
    fresh = []
    new = rex._Node.__new__

    def counted(cls, *fields):
        ref = rex._live.get((cls, *fields))
        if cls is Concat and (ref is None or ref() is None):
            fresh.append(len(fields[0]))
        return new(cls, *fields)

    monkeypatch.setattr(rex._Node, "__new__", staticmethod(counted))
    assert rex.print_regex(nfa.nfa_to_regex(program)) == text
    assert len(fresh) <= 3, fresh


def test_group_nesting_limit(small):
    table, vocab = small
    deepest = "(" * rex.MAX_GROUP_NESTING + "a" + ")*" * rex.MAX_GROUP_NESTING
    ast = rex.parse_regex(deepest)
    assert rex.print_regex(rex.simplify(ast))
    assert nfa.build_nfa(ast).n_states

    pattern = "(" * 500 + "a" + ")" * 500
    started = time.perf_counter()
    with pytest.raises(RegexSyntaxError) as info:
        rex.parse_regex(pattern)
    assert time.perf_counter() - started < 1
    # offset of the "(" that opens group MAX_GROUP_NESTING + 1
    assert info.value.position == rex.MAX_GROUP_NESTING == 128
    assert "groups nested deeper than 128" in str(info.value)

    profile = sbpl.parse_sbpl(
        f'(version 1)\n(deny default)\n(allow file-read* (regex #"{pattern}"))\n')
    with pytest.raises(InvalidProfile) as info:
        codec.compile_profile(profile, table, vocab)
    assert [d.code for d in info.value.diagnostics] == ["BadRegex"]


@pytest.mark.parametrize("depth", [100, 128])
def test_simplify_deep_alternation_groups(depth):
    # (a|b(a|b...x...c)*c)*: deep enough that a rewrite pass or its fixed-point
    # test would exceed Python's recursion limit
    pattern = "x"
    for _ in range(depth):
        pattern = "(a|b" + pattern + "c)*"
    ast = rex.parse_regex(pattern)
    simplified = rex.simplify(ast)
    dfa = anchored(nfa.build_nfa(ast))
    for text in ("", "a", "aab", "bxc", "bbxcc", "abxca", "bac", "bbxc", "x"):
        assert ast_match(simplified, text) == dfa.match(text), text


def test_stacked_quantifier_limit(small):
    table, vocab = small
    limit = rex.MAX_GROUP_NESTING
    # the open groups plus the quantifiers on an atom, counting those inside
    # a group atom, reach the limit exactly
    for deepest in ("a" + "*" * limit,
                    "(" * 28 + "a" + "?" * 100 + ")" * 28,
                    "(a" + "+" * 100 + ")" + "*" * 28):
        ast = rex.parse_regex(deepest)
        assert rex.print_regex(rex.simplify(ast))
        assert nfa.build_nfa(ast).n_states

    for pattern, offset in (("a" + "*" * 3000, 129),
                            ("(" * 28 + "a" + "?" * 101 + ")" * 28, 129),
                            ("(a" + "+" * 100 + ")" + "*" * 3000, 131)):
        started = time.perf_counter()
        with pytest.raises(RegexSyntaxError) as info:
            rex.parse_regex(pattern)
        assert time.perf_counter() - started < 1
        assert info.value.position == offset
        assert pattern[offset] in "*+?"
        assert "nested deeper than 128" in str(info.value)

        profile = sbpl.parse_sbpl(
            f'(version 1)\n(deny default)\n(allow file-read* (regex #"{pattern}"))\n')
        started = time.perf_counter()
        with pytest.raises(InvalidProfile) as info:
            codec.compile_profile(profile, table, vocab)
        assert time.perf_counter() - started < 1
        assert [d.code for d in info.value.diagnostics] == ["BadRegex"]


# ---------------------------------------------------------------------------
# The process-wide regex memo

MEMOS = (nfa.pattern, nfa.program)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _memo_cases(small, large):
    tables = {"small": small, "large": large}
    for case in generate.CORPUS:
        yield sbpl.parse_sbpl(case.sbpl_text, name=case.name), tables[case.vocab]
    for seed in range(40):
        yield generate.ProfileGenerator(*small, seed=seed).generate(), small


def _memo_outputs(profile, table, vocab):
    """Compiled bytes, decompiled text and the verdicts of both evaluators
    over sampled contexts of the profile's own universe."""
    blob = codec.compile_profile(profile, table, vocab)
    text = decompile.decompile(blob, table, vocab)
    universe = evaluate.build_universe(
        evaluate.collect_atoms(profile, table, vocab), vocab)
    blob_ev = evaluate.BlobEvaluator(blob, table, vocab)
    ast_ev = evaluate.AstEvaluator(profile, table, vocab)
    verdicts = [(blob_ev.verdict(op, ctx).value, ast_ev.verdict(op, ctx).value)
                for ctx in evaluate.sampled_contexts(universe, 0, 12)
                for op in table.entries]
    return blob, text, verdicts


def test_memo_cold_and_warm_give_the_same_outputs(small, large):
    warm_hits = 0
    for profile, (table, vocab) in _memo_cases(small, large):
        _clear_memos()
        cold = _memo_outputs(profile, table, vocab)
        hits = sum(memo.cache_info().hits for memo in MEMOS)
        warm = _memo_outputs(profile, table, vocab)
        warm_hits += sum(memo.cache_info().hits for memo in MEMOS) - hits
        assert warm == cold, profile.name
    assert warm_hits > 0


@pytest.mark.parametrize("bad", ["a(b", "[z-a]", "a**)", "(" * 200 + "a"])
def test_bad_pattern_raises_the_same_error_every_call(bad, small):
    table, vocab = small
    _clear_memos()
    seen = []
    for _ in range(2):
        with pytest.raises(RegexSyntaxError) as info:
            nfa.pattern(bad)
        seen.append((str(info.value), info.value.position))
        assert nfa.pattern.cache_info().currsize == 0
    assert seen[0] == seen[1]
    with pytest.raises(RegexSyntaxError) as info:
        rex.parse_regex(bad)
    assert seen[0] == (str(info.value), info.value.position)
    profile = sbpl.parse_sbpl(
        f'(version 1)\n(deny default)\n(allow file-read* (regex #"{bad}"))\n')
    diagnostics = []
    for _ in range(2):
        with pytest.raises(InvalidProfile) as info:
            codec.compile_profile(profile, table, vocab)
        diagnostics.append([str(d) for d in info.value.diagnostics])
    assert diagnostics[0] == diagnostics[1] == [
        f"[BadRegex] file-read*: regex: {seen[0][0]}"]
    assert nfa.pattern.cache_info().currsize == 0


def _outcome(decode, view):
    try:
        return ("ok", decode(view).nfa if decode is nfa.program_at else decode(view))
    except MalformedRegexBlob as exc:
        return (type(exc), str(exc), exc.offset)


def test_memo_decodes_mutated_programs_like_deserialize(small, large):
    programs = []
    for profile, (table, vocab) in _memo_cases(small, large):
        bp = codec.decode_blob(codec.compile_profile(profile, table, vocab))
        for rec in bp.records:
            if rec.is_terminal:
                continue
            entry = vocab.by_code(rec.filter_key)
            if entry.kind.name == "REGEX_INDEX":
                view = bp.value_at(rec.unit, entry)
                programs.append(bytes(view[:nfa.wire_length(view) + 8]))
    assert len(programs) > 100
    rng = random.Random(1212)
    _clear_memos()
    failures = 0
    for i in range(3000):
        data = bytearray(programs[i % len(programs)])
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data))
            data[at] = rng.choice((0, 1, 2, 0xFF, rng.randrange(256)))
        if rng.random() < 0.2:
            del data[rng.randrange(1, len(data)):]
        view = memoryview(bytes(data))
        want = _outcome(nfa.deserialize_nfa, view)
        assert _outcome(nfa.program_at, view) == want  # cold or warm
        assert _outcome(nfa.program_at, view) == want  # warm when it decoded
        failures += want[0] != "ok"
    assert 300 < failures < 2700
    assert nfa.program.cache_info().currsize <= nfa.MEMO_CAPACITY


def test_memos_stay_within_their_capacity(large):
    table, vocab = large
    count = 3 * nfa.MEMO_CAPACITY
    filters = " ".join(f'(regex #"^/memo/{i}/[a-z]*$")' for i in range(count))
    profile = sbpl.parse_sbpl(
        f"(version 1)\n(deny default)\n(allow file-read* (require-any {filters}))\n")
    _clear_memos()
    blob = codec.compile_profile(profile, table, vocab)
    text = decompile.decompile(blob, table, vocab)
    assert text.count("(regex ") == count
    report = evaluate.check_equivalence(profile, blob, table, vocab,
                                        mode="sampled", samples=50)
    assert report.equivalent
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == nfa.MEMO_CAPACITY
        assert 0 < info.currsize <= nfa.MEMO_CAPACITY


def test_memo_keeps_no_key_past_its_limit():
    # a 21,000-character literal is 63,005 wire bytes and several MB of
    # automaton: both memos build it and hand it out, but keep neither
    rng = random.Random(21)
    text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(21000))
    _clear_memos()
    made = nfa.pattern(text)
    program = nfa.program(made.wire)
    assert len(program.wire) > nfa.MEMO_KEY_LIMIT
    assert nfa.pattern(text) is made and nfa.program(made.wire) is program
    refs = weakref.ref(made), weakref.ref(program)
    del made, program
    assert [ref() for ref in refs] == [None, None]
    for memo in MEMOS:
        assert memo.cache_info().currsize == 0
    assert nfa.nfa_match(nfa.pattern(text).dfa, "/" + text)
    assert nfa.pattern.cache_info().currsize == 0


def test_compile_parses_a_long_regex_once(large, monkeypatch):
    # the memo keeps no text past MEMO_KEY_LIMIT, so the compile holds the
    # Pattern that validation parsed until lowering has read its wire
    table, vocab = large
    text = "/" + "ab" * 750
    assert len(text) == 1501 > nfa.MEMO_KEY_LIMIT
    profile = sbpl.parse_sbpl(
        f'(version 1)\n(deny default)\n(allow file-read* (regex #"{text}"))\n')
    parsed = []
    parse_regex = rex.parse_regex

    def counted(pattern):
        parsed.append(pattern)
        return parse_regex(pattern)

    _clear_memos()
    monkeypatch.setattr(rex, "parse_regex", counted)
    blob = codec.compile_profile(profile, table, vocab)
    assert parsed == [text]
    assert decompile.decompile(blob, table, vocab) == sbpl.print_sbpl(profile)


def _writer_texts(large):
    """The nfa golden's 2,000 random patterns, then the regexes of the
    corpus and of container seeds 0-3."""
    rng = random.Random(1608)
    texts = [generate.random_regex_pattern(rng) for _ in range(2000)]
    profiles = [sbpl.parse_sbpl(case.sbpl_text, name=case.name) for case in generate.CORPUS]
    profiles += [generate.ProfileGenerator(*large, seed=seed, scale="container").generate()
                 for seed in range(4)]
    for profile in profiles:
        texts += [atom.value for rules in profile.rules.values() for rule in rules
                  if rule.filter is not None for atom in model.expr_atoms(rule.filter)
                  if atom.form is model.ValueForm.REGEX]
    return list(dict.fromkeys(texts))


def test_writer_hands_over_the_nfa_its_wire_decodes_to(large):
    # nfa_to_regex's output depends on edge order, so the Nfa the writer
    # makes as it writes must be deserialize_nfa's, transition order and
    # label objects included; a warm memo holds Programs it made
    texts = _writer_texts(large)
    assert len(texts) > 2000
    for text in texts:
        built = nfa.build_nfa(rex.parse_regex(text))
        wire, decoded = nfa.serialize_nfa(built, decoded=True)
        assert wire == nfa.serialize_nfa(built), text
        read = nfa.deserialize_nfa(wire)
        assert decoded.n_states == read.n_states and decoded.start == read.start
        assert decoded.transitions == read.transitions, text
        assert all(a is b for (_s, a, _d), (_s, b, _d) in zip(
            decoded.transitions, read.transitions))
        assert decoded.accepts == read.accepts
        program = nfa.pattern(text).program
        assert program is nfa.program(wire) and program.wire == wire
        assert program.nfa == read


def test_foreign_wire_is_still_validated(monkeypatch):
    text = r"^/private/var/(db|tmp)/[^/]+\.plist$"
    wire = nfa.pattern(text).wire
    decoded = []
    deserialize_nfa = nfa.deserialize_nfa

    def counted(data):
        decoded.append(bytes(data))
        return deserialize_nfa(data)

    monkeypatch.setattr(nfa, "deserialize_nfa", counted)
    assert nfa.program_at(wire + b"pad").wire == wire
    assert decoded == []  # the Pattern holds its Program, made by the writer
    _clear_memos()
    gc.collect()
    assert nfa.program_at(wire + b"pad").nfa == deserialize_nfa(wire)
    assert decoded == [wire]
    _clear_memos()
    gc.collect()

    def mutated(at, value):
        data = bytearray(wire)
        data[at] = value
        return bytes(data)

    # each error and offset as deserialize_nfa raised it before writers
    # handed over their Nfa
    for data, message, offset in [
            (wire[:-4], "truncated record", 107),
            (mutated(17, 0xEE), "unknown tag 0xee", 17),
            (mutated(45, 3), "forward jump going backwards", 44),
            (mutated(66, 0x30), "inverted class range", 64),
            (mutated(97, nfa.TAG_CHAR), "no accepting node", 0)]:
        for _ in range(2):
            with pytest.raises(MalformedRegexBlob) as info:
                nfa.program_at(data)
            assert (str(info.value), info.value.offset) == (
                f"bad regex blob at byte {offset}: {message}", offset)
    assert nfa.program.cache_info().currsize == 0


@pytest.mark.parametrize("ast, text", [
    (CharClass(False, ((ord("]"), ord("]")),)), r"[\]]"),
    (CharClass(False, ((ord("\\"), ord("\\")),)), r"[\\]"),
    (CharClass(True, ((ord("^"), ord("^")),)), r"[^\^]"),
    (CharClass(False, ((ord("-"), ord("-")),)), r"[\-]"),
    (CharClass(False, ((ord("-"), ord("^")),)), r"[\--\^]"),
    (CharClass(False, ((ord("\\"), ord("]")),)), r"[\\\]]"),
    (Empty(), "()"),
    (Concat((Char(ord("a")), Empty(), Char(ord("b")))), "a()b"),
], ids=["close", "backslash", "caret", "dash", "dash-to-caret", "backslash-close",
        "empty", "empty-in-concat"])
def test_printer_escapes_what_the_parser_reads_back(ast, text):
    assert rex.print_regex(ast) == text
    assert rex.parse_regex(text) == ast
