import time

import pytest

from sbprof import codec, generate, sbpl
from sbprof.errors import SbplSyntaxError, UnsupportedConstruct, UnsupportedVersion
from sbprof.model import (
    Atom,
    Decision,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    Rule,
    ValueForm,
    canonicalize,
)

BLACKLIST = '''(deny default)
(deny file-read* (literal "/bin/secret.txt"))
(allow file-read* (regex #"/bin/*"))
'''


def test_parse_blacklist_profile():
    p = sbpl.parse_sbpl(BLACKLIST)
    assert p.default_decision is Decision.DENY
    rules = p.rules["file-read*"]
    assert rules[0] == Rule(Decision.DENY,
                            Atom("literal", "/bin/secret.txt", ValueForm.STRING))
    assert rules[1] == Rule(Decision.ALLOW, Atom("regex", "/bin/*", ValueForm.REGEX))


def test_parse_minimal_profile():
    p = sbpl.parse_sbpl("(version 1)\n(deny default)")
    assert p.default_decision is Decision.DENY
    assert p.rules == {}


def test_parse_trees_are_slotted_and_share_bare_tokens(large):
    # a container-scale profile repeats its filter names, operation names and
    # enum symbols thousands of times; with slotted nodes and one string per
    # distinct bare token, 8 parsed container profiles take 2.39 MiB, where
    # per-instance __dict__s and a string per token took 4.48 MiB
    classes = (Atom, RequireAll, RequireAny, RequireNot, Rule)
    for cls in classes:
        assert "__slots__" in vars(cls), cls
    rule = sbpl.parse_sbpl(
        '(deny default)\n(allow file-read* (require-all (require-not (literal "/a"))'
        ' (require-any (vnode-type DIRECTORY) (vnode-type SYMLINK))))').rules["file-read*"][0]
    nodes = [rule, rule.filter, *rule.filter.children, rule.filter.children[0].child]
    assert {type(node) for node in nodes} == set(classes)
    for node in nodes:
        assert not hasattr(node, "__dict__"), node

    table, vocab = large
    gen = generate.ProfileGenerator(table, vocab, seed=0, scale="container")
    profile = sbpl.parse_sbpl(sbpl.print_sbpl(gen.generate(), table))
    first = {}  # token text -> the object every equal bare token must be

    def token(text):
        assert first.setdefault(text, text) is text, text

    def walk(node):
        assert not hasattr(node, "__dict__"), node
        if isinstance(node, Atom):
            token(node.key)
            if node.form is ValueForm.SYMBOL:
                token(node.value)
            elif node.form is ValueForm.ENDPOINT:
                token(node.value[0])
        elif isinstance(node, RequireNot):
            walk(node.child)
        else:
            for child in node.children:
                walk(child)

    for op, rules in profile.rules.items():
        token(op)
        for rule in rules:
            assert not hasattr(rule, "__dict__"), rule
            if rule.filter is not None:
                walk(rule.filter)


def test_sibling_filters_parse_as_require_any():
    sugar = sbpl.parse_sbpl(
        '(deny default)\n'
        '(allow file-read* (regex #"/bin/*") (vnode-type REGULAR-FILE))')
    explicit = sbpl.parse_sbpl(
        '(deny default)\n'
        '(allow file-read* (require-any (regex #"/bin/*") (vnode-type REGULAR-FILE)))')
    assert sugar == explicit
    filt = sugar.rules["file-read*"][0].filter
    assert isinstance(filt, RequireAny) and len(filt.children) == 2


def test_version_clause():
    assert sbpl.parse_sbpl("(version 1)\n(deny default)").default_decision
    with pytest.raises(UnsupportedVersion):
        sbpl.parse_sbpl("(version 2)\n(deny default)")


def test_comments_and_whitespace():
    p = sbpl.parse_sbpl(
        "; leading comment\n(deny default) ; trailing\n"
        ";; another\n(allow signal (target self))\n")
    assert "signal" in p.rules


def test_string_escapes_round_trip():
    p = sbpl.parse_sbpl(r'(deny default)(allow file-read* (literal "/a\"b\\c"))')
    atom = p.rules["file-read*"][0].filter
    assert atom.value == '/a"b\\c'
    text = sbpl.print_sbpl(p)
    assert sbpl.parse_sbpl(text) == p


def test_regex_literal_keeps_backslashes():
    p = sbpl.parse_sbpl(r'(deny default)(allow file-read* (regex #"^/a\.b[^/]+$"))')
    assert p.rules["file-read*"][0].filter.value == r"^/a\.b[^/]+$"


def test_scheme_constructs_rejected_in_profiles():
    with pytest.raises(UnsupportedConstruct):
        sbpl.parse_sbpl("(deny default)\n(if (allowed? x) (allow signal))")
    with pytest.raises(UnsupportedConstruct):
        sbpl.parse_sbpl("(define (f x) x)\n(deny default)")


def test_require_not_arity():
    with pytest.raises(SbplSyntaxError):
        sbpl.parse_sbpl('(deny default)(allow signal (require-not))')
    with pytest.raises(SbplSyntaxError):
        sbpl.parse_sbpl(
            '(deny default)(allow signal (require-not (target self) (target self)))')


def test_unbalanced_input_rejected():
    with pytest.raises(SbplSyntaxError):
        sbpl.parse_sbpl("(deny default")
    with pytest.raises(SbplSyntaxError):
        sbpl.parse_sbpl("(deny default))")


def test_every_mid_form_truncation_rejected():
    text = BLACKLIST
    starts = [i for i, ch in enumerate(text) if ch == "("]
    checked = 0
    for start in starts:
        # cut inside the form that opens at `start`
        for cut in (start + 1, start + 5):
            prefix = text[:cut]
            if prefix.count("(") == prefix.count(")"):
                continue
            checked += 1
            with pytest.raises(SbplSyntaxError):
                sbpl.parse_sbpl(prefix)
    assert checked > 3


def test_print_minimal():
    p = sbpl.parse_sbpl("(deny default)")
    assert sbpl.print_sbpl(p) == "(version 1)\n(deny default)\n"


def test_print_orders_by_table(small):
    table, _ = small
    p = sbpl.parse_sbpl(
        "(deny default)\n(allow signal (target self))\n"
        '(allow file-read* (literal "/x"))')
    text = sbpl.print_sbpl(p, table)
    assert text.index("file-read*") < text.index("signal")


def test_print_parse_round_trip_on_random_profiles(small):
    table, vocab = small
    for seed in range(500):
        gen = generate.ProfileGenerator(table, vocab, seed=seed)
        p = gen.generate()
        text = sbpl.print_sbpl(p, table)
        back = sbpl.parse_sbpl(text, name=p.name)
        assert back.default_decision is p.default_decision, seed
        assert set(back.rules) == set(p.rules), seed
        for op in p.rules:
            got = [(r.decision, canonicalize(r.filter, vocab) if r.filter else None)
                   for r in back.rules[op]]
            want = [(r.decision, canonicalize(r.filter, vocab) if r.filter else None)
                    for r in p.rules[op]]
            assert got == want, (seed, op)


def test_endpoint_value_round_trip():
    p = sbpl.parse_sbpl('(deny default)(allow network-outbound (remote tcp "h:22"))')
    atom = p.rules["network-outbound"][0].filter
    assert atom.value == ("tcp", "h:22") and atom.form is ValueForm.ENDPOINT
    assert sbpl.parse_sbpl(sbpl.print_sbpl(p)) == p


def test_long_rule_wraps_and_reparses(small):
    table, vocab = small
    p = sbpl.parse_sbpl(
        '(deny default)\n(allow file-read* (require-all '
        '(require-any (literal "/very/long/path/one") (literal "/very/long/path/two"))'
        '(require-not (vnode-type REGULAR-FILE))'
        '(regex #"^/something/quite/long[0-9]*$")))')
    text = sbpl.print_sbpl(p, table)
    assert any(len(line) <= 79 for line in text.splitlines())
    assert sbpl.parse_sbpl(text) == p


def test_implicit_rules_file_parses(implicit_rules):
    ops = {item.operation for item in implicit_rules.rules}
    assert ops == {"mach-bootstrap", "network-outbound", "signal"}
    conded = [it for it in implicit_rules.rules if it.condition is not None]
    assert len(conded) == 2


@pytest.mark.parametrize("text, column", [
    ("(allow)", 1),
    ("(allow (x))", 1),
    ("(if (allowed? a) (allow))", 18),
])
def test_malformed_implicit_rule_is_a_syntax_error(text, column):
    with pytest.raises(SbplSyntaxError, match="operation name") as info:
        sbpl.parse_implicit_rules(text)
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text, column", [
    ("(allow default)", 1),
    ("(deny default (literal \"/x\"))", 1),
    ("(if (allowed? signal)\n  (deny default))", 3),
], ids=["unconditional", "filtered", "guarded"])
def test_implicit_rules_file_cannot_set_the_default(text, column):
    # the profile's own default decides; the standard policy adds only rules
    with pytest.raises(SbplSyntaxError) as info:
        sbpl.parse_implicit_rules(text)
    line = text.count("\n") + 1
    assert str(info.value) == \
        f"{line}:{column}: implicit-rules file cannot set the default decision"


def test_condition_evaluation(implicit_rules):
    p = sbpl.parse_sbpl("(deny default)\n(allow mach-lookup)")
    conds = {it.operation: it.condition for it in implicit_rules.rules
             if it.condition}
    assert sbpl.condition_holds(conds["mach-bootstrap"], p)
    # default deny means file-read* can return deny, so the guarded
    # webdav rule stays out
    assert not sbpl.condition_holds(conds["network-outbound"], p)


def _require_not_chain(depth):
    """A rule whose lists nest `depth` deep: the rule, then require-not
    wrappers, then the literal filter."""
    return ("(version 1)\n(deny default)\n(allow file-read* "
            + "(require-not " * (depth - 2) + '(literal "/x")' + ")" * (depth - 1) + "\n")


def test_nesting_limit(small):
    table, vocab = small
    text = _require_not_chain(5000)
    started = time.perf_counter()
    with pytest.raises(SbplSyntaxError) as info:
        sbpl.parse_sbpl(text)
    assert time.perf_counter() - started < 1
    # the error names the "(" that opens list number MAX_NESTING + 1
    opening = text.index("(require-not") + len("(require-not ") * (sbpl.MAX_NESTING - 1)
    line_start = text.rfind("\n", 0, opening) + 1
    assert str(info.value) == f"3:{opening - line_start + 1}: nesting deeper than 256"
    assert sbpl.MAX_NESTING == 256
    with pytest.raises(SbplSyntaxError):
        sbpl.parse_sbpl(_require_not_chain(sbpl.MAX_NESTING + 1))

    at_limit = sbpl.parse_sbpl(_require_not_chain(sbpl.MAX_NESTING))
    assert codec.decode_blob(codec.compile_profile(at_limit, table, vocab)).records


@pytest.mark.parametrize("text, message, line, column", [
    ('("allow" file-read*)', "expected a rule", 1, 1),
    ('(#"deny" network*)', "expected a rule", 1, 1),
    ('(if (not (denied? file-read*)) (#"deny" network*))', "if body must be rules", 1, 32),
    ('(if (allowed? signal)\n  ("allow" signal))', "if body must be rules", 2, 3),
])
def test_implicit_rule_head_must_be_a_symbol(text, message, line, column):
    with pytest.raises(SbplSyntaxError) as info:
        sbpl.parse_implicit_rules(text)
    assert str(info.value) == f"{line}:{column}: {message}"


@pytest.mark.parametrize("text, message", [
    ("(allow file-read* 5)\n(allow", "2:1: unclosed list"),
    ("(frob)\n)", "2:1: unexpected )"),
    ('(deny default)\n(frob)\n"abc', "3:1: unterminated string"),
    ("(frob)\n" + "(" * 257, "2:257: nesting deeper than 256"),
], ids=["unclosed-list", "stray-close", "unterminated-string", "too-deep"])
def test_reader_error_wins_over_an_earlier_form(text, message):
    with pytest.raises(SbplSyntaxError) as info:
        sbpl.parse_sbpl(text)
    assert type(info.value) is SbplSyntaxError and str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("(deny default)\r\n (frob)", "2:2: unknown rule head 'frob'"),
    ("(deny default)\r\n\r (allow)", "2:3: rule needs an operation name"),
    ("; a comment (\n(deny default) (allow)", "2:16: rule needs an operation name"),
    ('(deny default)\n(allow file-read* (literal "a\nb") (frob "x" "y"))',
     "3:5: cannot read value of filter 'frob'"),
    ('(deny default) ; "(\n  (if (allowed? x) (allow signal))',
     "2:3: (if ...) is only valid in the implicit-rules file"),
])
def test_structural_error_positions(text, message):
    with pytest.raises(SbplSyntaxError) as info:
        sbpl.parse_sbpl(text)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: sbpl.print_sbpl(Profile("p", None, {})), "0:0: profile has no default decision"),
    (lambda: sbpl.parse_implicit_rules('(allow signal)\n"allow"'),
     "2:1: top-level form must be a list"),
    (lambda: sbpl.parse_implicit_rules("(if (allowed? signal))"),
     "1:1: if needs a condition and a body"),
    (lambda: sbpl.parse_implicit_rules("(frob signal)"),
     "1:1: unknown form 'frob' in implicit-rules file"),
    (lambda: sbpl.parse_implicit_rules("(if (maybe? signal) (allow signal))"),
     "1:5: unsupported condition in implicit-rules file"),
], ids=["print-without-default", "top-level-atom", "if-without-body", "unknown-form",
        "unknown-condition"])
def test_sbpl_structured_errors(call, message):
    with pytest.raises(SbplSyntaxError) as info:
        call()
    assert str(info.value) == message
