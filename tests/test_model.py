import random

import pytest

from sbprof import generate, sbpl, vocab as vocab_mod
from sbprof.errors import UnknownFilterKey, UnknownOperation, VocabularyError
from sbprof.model import (
    Atom,
    Decision,
    FilterKey,
    FilterVocabulary,
    OperationTable,
    RequireAll,
    RequireAny,
    RequireNot,
    Profile,
    Rule,
    ValueForm,
    ValueKind,
    canonicalize,
    validate_profile,
)

from oracles import exhaustive_contexts, expr_matches


def test_decision_negate_is_involution():
    for d in Decision:
        assert d.negate().negate() is d
        assert d.negate() is not d


def test_lookup_operation_default_is_index_zero(small):
    table, _ = small
    assert table.index("default") == 0


def test_lookup_operation_matches_list_position(small):
    table, _ = small
    assert table.index("file-read*") == table.entries.index("file-read*")


def test_lookup_operation_unknown(small):
    table, _ = small
    with pytest.raises(UnknownOperation):
        table.index("no-such-op")


def test_lookup_filter_codes(large):
    _, vocab = large
    for key, code, kind in (("literal", 0x01, ValueKind.LITERAL_STRING),
                            ("vnode-type", 0x1d, ValueKind.ENUM_NAMED),
                            ("socket-type", 0x0c, ValueKind.ENUM_NAMED),
                            ("regex", 0x81, ValueKind.REGEX_INDEX)):
        entry = vocab.by_name(key)
        assert (entry.code, entry.kind) == (code, kind)
    with pytest.raises(UnknownFilterKey):
        vocab.by_name("no-such-key")


def test_filter_enum_codes_from_reference_mappings(large):
    _, vocab = large
    assert vocab.by_name("vnode-type").named_values["REGULAR-FILE"] == 0x0001
    assert vocab.by_name("socket-type").named_values["SOCK_STREAM"] == 0x0001
    assert vocab.by_name("target").named_values["children"] == 0x0004


def test_vocab_code_name_round_trip(large):
    _, vocab = large
    for entry in vocab.entries:
        assert vocab.by_code(entry.code).name == entry.name
        assert vocab.by_name(entry.name).code == entry.code


def test_regex_key_carries_high_bit(large):
    _, vocab = large
    for entry in vocab.entries:
        if entry.kind is ValueKind.REGEX_INDEX:
            assert entry.code & 0x80
        if entry.kind is ValueKind.LITERAL_STRING:
            assert not entry.code & 0x80


FILTERS = "operation default\nfilter vnode-type code=0x1d kind=enum_named\n"


@pytest.mark.parametrize("text, message", [
    ("version a b", "line 1: version takes one tag"),
    ("operation", "line 1: operation needs a name"),
    ("operation default frob=1", "line 1: unknown option 'frob=1'"),
    ("filter", "line 1: filter needs a name"),
    ("filter x code=zz kind=numeric", "line 1: bad integer 'zz'"),
    ("filter x code=1 kind=frob", "line 1: unknown kind 'frob'"),
    ("filter x code=1 kind=numeric frob", "line 1: unknown option 'frob'"),
    ("filter x code=1", "line 1: filter needs code= and kind="),
    ("enumval x", "line 1: expected 'enumval <filter> NAME=code'"),
    ("enumval x A", "line 1: expected 'enumval <filter> NAME=code'"),
    ("enumval x A=1", "line 1: enumval before filter 'x'"),
    (FILTERS + "enumval vnode-type A=zz", "line 3: bad integer 'zz'"),
    ("frob", "line 1: unknown record 'frob'"),
    ("", 'operation table must start with "default"'),
    ("operation default\noperation a\noperation a", "duplicate operation names"),
    ("operation default\noperation a parent=b", "parent link a -> b names unknown op"),
    ("operation default\noperation a parent=a", "parent cycle through 'a'"),
    (FILTERS + "enumval vnode-type BIG=70000",
     "vnode-type: enum value BIG code out of range: 70000"),
    (FILTERS + "enumval vnode-type BIG=-1",
     "vnode-type: enum value BIG code out of range: -1"),
    (FILTERS, "vnode-type: enum filter without values"),
], ids=["version-tags", "operation-name", "operation-option", "filter-name",
        "filter-code", "filter-kind", "filter-option", "filter-fields",
        "enumval-fields", "enumval-equals", "enumval-order", "enumval-code",
        "record", "no-default", "operation-twice", "parent-unknown",
        "parent-cycle", "enum-past-u16", "enum-negative", "enum-empty"])
def test_parse_vocabulary_errors(text, message):
    with pytest.raises(VocabularyError) as info:
        vocab_mod.parse_vocabulary(text)
    assert str(info.value) == message


def test_load_builtin_unknown_name():
    with pytest.raises(VocabularyError) as info:
        vocab_mod.load_builtin("tiny")
    assert str(info.value) == "no builtin vocabulary 'tiny'"


def test_load_vocabulary_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.sbvocab"
    path.write_bytes(vocab_mod.builtin_path("small").read_bytes() + b"# \xff\n")
    with pytest.raises(VocabularyError) as info:
        vocab_mod.load_vocabulary(path)
    assert str(info.value) == \
        f"{path}: not UTF-8 text (byte {path.read_bytes().index(0xFF)})"


def _key(name, code, kind=ValueKind.LITERAL_STRING, values=None):
    return FilterKey(name, code, kind, values)


@pytest.mark.parametrize("build, message", [
    (lambda: FilterVocabulary((_key("a", 1), _key("a", 2))), "duplicate filter name 'a'"),
    (lambda: FilterVocabulary((_key("a", 1), _key("b", 1))), "duplicate filter code 0x01"),
    (lambda: FilterVocabulary((_key("a", 0x100),)), "filter code out of range: 256"),
    (lambda: FilterVocabulary((_key("a", 2, ValueKind.ENUM_NAMED, {}),)),
     "a: enum filter without values"),
    (lambda: FilterVocabulary((_key("a", 2, ValueKind.ENUM_NAMED, {"X": 1, "Y": 1}),)),
     "a: duplicate enum value codes"),
    (lambda: FilterVocabulary((_key("a", 2, ValueKind.ENUM_NAMED, {"X": 0x10000}),)),
     "a: enum value X code out of range: 65536"),
    (lambda: FilterVocabulary((_key("a", 2, ValueKind.REGEX_INDEX),)),
     "a: regex filter code needs high bit set"),
    (lambda: FilterVocabulary((_key("a", 0x82),)), "a: literal filter code has high bit set"),
    (lambda: OperationTable(()), 'operation table must start with "default"'),
    (lambda: OperationTable(("default", "a", "a")), "duplicate operation names"),
    (lambda: OperationTable(("default",), parents={"a": "default"}),
     "parent link a -> default names unknown op"),
    (lambda: OperationTable(("default", "a", "b"), parents={"a": "b", "b": "a"}),
     "parent cycle through 'a'"),
], ids=["filter-name", "filter-code", "code-range", "enum-empty", "enum-duplicate",
        "enum-range", "regex-bit", "literal-bit", "no-default", "operation-name",
        "parent-unknown", "parent-cycle"])
def test_model_tables_reject_bad_entries(build, message):
    with pytest.raises(VocabularyError) as info:
        build()
    assert str(info.value) == message


def test_vocab_rejects_duplicate_codes():
    with pytest.raises(VocabularyError):
        FilterVocabulary((
            FilterKey("a", 0x01, ValueKind.LITERAL_STRING),
            FilterKey("b", 0x01, ValueKind.LITERAL_STRING),
        ))


def test_operation_table_requires_default_first():
    with pytest.raises(VocabularyError):
        OperationTable(("file-read*", "default"))


def test_operation_table_rejects_parent_cycle():
    with pytest.raises(VocabularyError):
        OperationTable(("default", "a", "b"), parents={"a": "b", "b": "a"})
    with pytest.raises(VocabularyError):
        OperationTable(("default", "a"), parents={"a": "a"})
    with pytest.raises(VocabularyError):
        OperationTable(("default", "x", "a", "b", "c"),
                       parents={"x": "a", "a": "b", "b": "c", "c": "a"})


def _reference_owner(op, rules, table):
    """Nearest ancestor-or-self with rules, one parent link at a time."""
    while op is not None and not rules.get(op):
        op = table.parents.get(op)
    return op


def _random_forest_table(rng, size):
    """A table whose parent links form a forest; entries are shuffled, so
    children come both before and after their parents."""
    ops = [f"op{i}" for i in range(size)]
    parents = {}
    for i, op in enumerate(ops):
        if i and rng.random() < 0.8:  # the rest are roots
            parents[op] = ops[rng.randrange(i)]
    rng.shuffle(ops)
    return OperationTable(("default", *ops), parents=parents)


def test_parents_first_lists_every_operation_after_its_parent():
    rng = random.Random(5)
    for _ in range(50):
        table = _random_forest_table(rng, rng.randint(1, 40))
        order = table.parents_first
        assert sorted(order) == sorted(table.entries)
        position = {op: i for i, op in enumerate(order)}
        for child, parent in table.parents.items():
            assert position[parent] < position[child]
    flat = OperationTable(("default", "b", "a"))
    assert flat.parents_first == flat.entries


def test_owners_match_the_nearest_ancestor_walk():
    rng = random.Random(11)
    for _ in range(200):
        table = _random_forest_table(rng, rng.randint(1, 40))
        rules = {}
        for op in table.entries[1:]:
            roll = rng.random()
            if roll < 0.25:  # roots and mid-chain operations alike
                rules[op] = ("rule",)
            elif roll < 0.3:
                rules[op] = ()  # an empty rule list does not own
        owners = table.owners(rules)
        assert set(owners) == set(table.entries)
        for op in table.entries:
            assert owners[op] == _reference_owner(op, rules, table)


def _atom(key="literal", value="/x"):
    return Atom(key, value, ValueForm.STRING)


def test_canonicalize_removes_double_negation():
    a = _atom()
    assert canonicalize(RequireNot(RequireNot(a))) == a


def test_canonicalize_flattens_nested_combinators():
    a, b, c = _atom(value="/a"), _atom(value="/b"), _atom(value="/c")
    got = canonicalize(RequireAny((a, RequireAny((b, c)))))
    assert got == RequireAny((a, b, c))
    got = canonicalize(RequireAll((RequireAll((a, b)), c)))
    assert got == RequireAll((a, b, c))


def test_canonicalize_collapses_single_child():
    a = _atom()
    assert canonicalize(RequireAll((a,))) == a
    assert canonicalize(RequireAny((a,))) == a


def test_canonicalize_deduplicates():
    a, b = _atom(value="/a"), _atom(value="/b")
    assert canonicalize(RequireAny((b, a, b))) == RequireAny((a, b))


def test_canonicalize_sorts_by_key_code(small):
    _, vocab = small
    lit = _atom("literal", "/x")
    vn = Atom("vnode-type", "REGULAR-FILE", ValueForm.SYMBOL)
    rx = Atom("regex", "/x", ValueForm.REGEX)
    got = canonicalize(RequireAny((rx, vn, lit)), vocab)
    # literal 0x01 < vnode-type 0x1d < regex 0x81
    assert got == RequireAny((lit, vn, rx))


def test_canonicalize_idempotent_on_random_exprs(small):
    table, vocab = small
    gen = generate.ProfileGenerator(table, vocab, seed=99, max_depth=4)
    for _ in range(1000):
        expr = gen._random_expr(4)
        once = canonicalize(expr, vocab)
        assert canonicalize(once, vocab) == once


def test_validate_accepts_reference_profile(small):
    table, vocab = small
    profile = sbpl.parse_sbpl(
        '(deny default)\n'
        '(allow file-read* (require-any (regex #"/bin/*") (vnode-type REGULAR-FILE)))')
    assert validate_profile(profile, table, vocab) == []


def test_validate_missing_default(small):
    table, vocab = small
    profile = sbpl.parse_sbpl('(allow file-read* (literal "/x"))')
    codes = [d.code for d in validate_profile(profile, table, vocab)]
    assert "MissingDefault" in codes


def test_validate_unknown_filter_key(small):
    table, vocab = small
    profile = sbpl.parse_sbpl('(deny default)\n(allow file-read* (frobnicate "/x"))')
    codes = [d.code for d in validate_profile(profile, table, vocab)]
    assert "UnknownFilterKey" in codes


def test_validate_unknown_operation_and_enum_value(small):
    table, vocab = small
    profile = sbpl.parse_sbpl(
        '(deny default)\n(allow teleport (literal "/x"))\n'
        '(allow file-read* (vnode-type NOT-A-THING))')
    codes = {d.code for d in validate_profile(profile, table, vocab)}
    assert {"UnknownOperation", "UnknownFilterValue"} <= codes


def test_validate_flags_unreachable_rule(small):
    table, vocab = small
    profile = sbpl.parse_sbpl(
        '(deny default)\n(allow file-read*)\n(deny file-read* (literal "/x"))')
    codes = [d.code for d in validate_profile(profile, table, vocab)]
    assert "UnreachableRule" in codes


@pytest.mark.parametrize("rules, diagnostic", [
    ('(allow file-read* (file-mode 70000))',
     "[BadValue] file-read*: file-mode: expected 16-bit number, got 70000"),
    ('(allow file-read* (file-mode "rw"))',
     "[BadValue] file-read*: file-mode: expected 16-bit number, got 'rw'"),
    ('(allow file-read* (regex "/x"))',
     "[BadValue] file-read*: regex: expected a regex pattern"),
    ('(allow network-outbound (remote "localhost:22"))',
     "[BadValue] network-outbound: remote: expected (proto, address)"),
    ('(allow file-read* (literal 5))',
     "[BadValue] file-read*: literal: expected a string, got 5"),
    ('(allow default (literal "/x"))',
     "[BadDefaultRule] default: default takes a bare decision, nothing else"),
    ((Rule(Decision.ALLOW, RequireAny(())),),
     "[EmptyMetafilter] file-read*: RequireAny with no children"),
], ids=["number-range", "number-type", "regex-form", "endpoint", "string",
        "default-rule", "empty-metafilter"])
def test_validate_reports_bad_values(large, rules, diagnostic):
    table, vocab = large
    if isinstance(rules, str):  # SBPL cannot write an empty require-any
        profile = sbpl.parse_sbpl("(deny default)\n" + rules)
    else:
        profile = Profile("p", Decision.DENY, {"file-read*": rules})
    assert [str(d) for d in validate_profile(profile, table, vocab)] == [diagnostic]


def test_canonicalize_preserves_matching_semantics(small):
    from sbprof import evaluate

    table, vocab = small
    gen = generate.ProfileGenerator(table, vocab, seed=17, max_depth=4)
    for _ in range(150):
        expr = gen._random_expr(4)
        canon = canonicalize(expr, vocab)
        triples = []
        from sbprof.model import expr_atoms

        for atom in expr_atoms(expr):
            entry = vocab.by_name(atom.key)
            triples.append((entry.context_key, entry.kind, atom.value))
        universe = evaluate.build_universe(triples, vocab)
        for ctx in exhaustive_contexts(universe, cap=4096):
            assert expr_matches(expr, ctx, vocab) == \
                expr_matches(canon, ctx, vocab)
