"""Behaviour guard for the SBPL reader.

The digests were computed with the per-character recursive reader, before it
was replaced by the token-pattern reader. They pin a canonical dump of
`read_forms` (every node's kind, text, line and column) and of `parse_sbpl`
(the Profile's repr, or the error's class, message, line and column) over the
golden corpus, generated profiles, container-scale profiles, the
implicit-rules file and seeded mutants of them. They do not depend on
PYTHONHASHSEED (checked with 0, 1 and 123).
"""

import hashlib
import random

import pytest

from sbprof import generate, sbpl, vocab
from sbprof.errors import SbplSyntaxError

DIGESTS = {  # group: (read_forms, parse_sbpl)
    "corpus": (
        "fc0639a516c48de19e88d600bf554123e9f7df2bcc3edf0c889c8d41434620c7",
        "d85cb3090b98f2c8fdb30b1cbb849b8769460b2afe839b8b5cfb1f37e05fd610",
    ),
    "generated": (
        "85e7e87f5443b5f18590050ffc8a53d00f374995ca04f708acdfcb916f78f4bd",
        "5a37fff731ca77458f027305c97e8d3668a67bde9ef2eb15058e4f0019cabf45",
    ),
    "container": (
        "94fce2681cce838d6e48b917d8fc8470aba6f02b1b480c584be99bbd8c33f49e",
        "acb5045fef489fa1fe7d5cd5d4f650e529f2670acfe3824932ba6a98da573b5d",
    ),
    "implicit": (
        "f9ccc57d95c2180247909ccb900e6c9415dd8f2b3ff69ad4798fae872ead53c5",
        "1060234fd037ba42c56e122d65182dede835c8ecc66ac349e9a58453c2c710b0",
    ),
    "mutants": (
        "d22553b5785b3a89bc3337f1b36065e564965b8761a0b5a40b011dfdd2fcefc3",
        "b0ab82d54040b580f3192c34fe842fe5505a413fb741f58cd1e827277610452e",
    ),
}

# Characters a mutant edit inserts or substitutes: every character the reader
# treats specially, plus a few that end up inside bare tokens.
MUTANT_CHARS = '()"#\\;\n \t\x0ba1-_'


def _dump_forms(forms, out):
    todo = list(reversed(forms))
    while todo:
        node = todo.pop()
        if isinstance(node, sbpl.SList):
            out.append(repr(("list", len(node.items), node.line, node.column)))
            todo.extend(reversed(node.items))
        else:
            out.append(repr((node.kind, node.text, node.line, node.column)))


def _dump_error(exc, out):
    out.append(repr(("error", type(exc).__name__, str(exc),
                     getattr(exc, "line", None), getattr(exc, "column", None))))


def _digests(texts):
    read_hash, parse_hash = hashlib.sha256(), hashlib.sha256()
    for text in texts:
        out = []
        try:
            _dump_forms(sbpl.read_forms(text), out)
        except Exception as exc:
            _dump_error(exc, out)
        read_hash.update(("\n".join(out) + "\n\x00\n").encode())
        out = []
        try:
            out.append(repr(sbpl.parse_sbpl(text, name="p")))
        except Exception as exc:
            _dump_error(exc, out)
        parse_hash.update(("\n".join(out) + "\n\x00\n").encode())
    return read_hash.hexdigest(), parse_hash.hexdigest()


def _generated(small):
    table, voc = small
    return [sbpl.print_sbpl(generate.ProfileGenerator(table, voc, seed=s).generate(), table)
            for s in range(40)]


def _mutants(bases, count=2000):
    rng = random.Random(1608)
    out = []
    for _ in range(count):
        chars = list(rng.choice(bases))
        for _ in range(rng.randint(1, 4)):
            edit = rng.choice(("insert", "delete", "replace"))
            at = rng.randrange(len(chars) + 1)
            if edit == "insert":
                chars.insert(at, rng.choice(MUTANT_CHARS))
            elif at < len(chars):
                if edit == "delete":
                    del chars[at]
                else:
                    chars[at] = rng.choice(MUTANT_CHARS)
        out.append("".join(chars))
    return out


@pytest.fixture(scope="module")
def inputs(small, large):
    table, voc = large
    corpus = [case.sbpl_text for case in generate.CORPUS]
    generated = _generated(small)
    implicit = [vocab.implicit_rules_path().read_text(encoding="utf-8")]
    return {
        "corpus": corpus,
        "generated": generated,
        "container": [
            sbpl.print_sbpl(generate.ProfileGenerator(
                table, voc, seed=s, scale="container").generate(), table)
            for s in range(3)],
        "implicit": implicit,
        "mutants": _mutants(corpus + generated + implicit),
    }


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_reader_and_parser_digests(inputs, group):
    assert _digests(inputs[group]) == DIGESTS[group]


# ---------------------------------------------------------------------------
# Edge cases, spelled out


def _atoms(text):
    return [(f.kind, f.text, f.line, f.column) for f in sbpl.read_forms(text)]


def test_escapes_in_both_string_modes():
    # "..." strings: \\ and \" collapse, any other escape keeps its backslash
    assert _atoms(r'"a\\b" "a\"b" "a\nb"') == [
        ("string", "a\\b", 1, 1), ("string", 'a"b', 1, 8), ("string", "a\\nb", 1, 15)]
    # #"..." regex literals: only \" collapses, so regex escapes pass through
    assert _atoms(r'#"a\\b" #"a\"b" #"a\.b"') == [
        ("regex", "a\\\\b", 1, 1), ("regex", 'a"b', 1, 9), ("regex", "a\\.b", 1, 17)]
    # an escaped backslash before the closing quote does not escape it
    assert _atoms(r'"a\\" x') == [("string", "a\\", 1, 1), ("symbol", "x", 1, 7)]
    assert _atoms(r'#"a\\" x') == [("regex", "a\\\\", 1, 1), ("symbol", "x", 1, 8)]


def test_hash_not_followed_by_quote_is_a_bare_token():
    assert _atoms('#t #a#b # ##"x"') == [
        ("symbol", "#t", 1, 1), ("symbol", "#a#b", 1, 4), ("symbol", "#", 1, 9),
        ("symbol", "##", 1, 11), ("string", "x", 1, 13)]


def test_string_spanning_lines_shifts_later_positions():
    assert _atoms('"one\ntwo" x\n  y') == [
        ("string", "one\ntwo", 1, 1), ("symbol", "x", 2, 6), ("symbol", "y", 3, 3)]


def test_comment_at_end_without_newline():
    assert _atoms("a ; trailing") == [("symbol", "a", 1, 1)]
    assert _atoms("; only a comment") == []


def test_crlf_line_endings():
    # CR is a blank and takes a column; only LF starts a new line
    assert _atoms("a\r\n b\r\n\r\nc") == [
        ("symbol", "a", 1, 1), ("symbol", "b", 2, 2), ("symbol", "c", 4, 1)]


def test_int_classification_is_python_int():
    assert _atoms("1_0 +1 ٣ \x0b3 -7 1- _1 0x1") == [
        ("int", "1_0", 1, 1), ("int", "+1", 1, 5), ("int", "٣", 1, 8),
        ("int", "\x0b3", 1, 10), ("int", "-7", 1, 13), ("symbol", "1-", 1, 16),
        ("symbol", "_1", 1, 19), ("symbol", "0x1", 1, 22)]


def test_list_positions():
    (outer,) = sbpl.read_forms(" (a\n  (b) )")
    assert (outer.line, outer.column) == (1, 2)
    inner = outer.items[1]
    assert (inner.line, inner.column, inner.items[0].text) == (2, 3, "b")


@pytest.mark.parametrize("text, message, line, column", [
    ('(a "abc', "unterminated string", 1, 4),
    ('(a #"abc', "unterminated string", 1, 5),  # a regex literal's error points at its quote
    ('x\n "ab\\', "unterminated string", 2, 2),
    ('x\n #"ab\\"', "unterminated string", 2, 3),
    ("(a (b\n c)", "unclosed list", 1, 1),
    ("(a\n  (b c", "unclosed list", 2, 3),
    ("(a) )", "unexpected )", 1, 5),
    ("a\n\n  )", "unexpected )", 3, 3),
])
def test_syntax_error_messages_and_positions(text, message, line, column):
    with pytest.raises(SbplSyntaxError) as info:
        sbpl.read_forms(text)
    assert (str(info.value), info.value.line, info.value.column) == \
        (f"{line}:{column}: {message}", line, column)
