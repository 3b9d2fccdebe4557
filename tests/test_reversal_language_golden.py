"""Language law for reversal: the order in which state removal takes the
states may change the printed text, never its language.

For every distinct regex program that compiling the golden corpus, small
generated seeds 0-59 and container seed 0 writes, the printed `nfa_to_regex`
of the program parses and compiles back to a program, and the two programs'
full-match languages agree on every string of at most 7 characters by
`oracles.bounded_language_equal`. The alphabet holds one letter per byte
class of the two programs, and one code point above 0xFF, so no string of
that length that tells them apart is left out. The law does not depend on
PYTHONHASHSEED.
"""

from sbprof import generate, model, nfa, rex, sbpl
from sbprof.rex import Char, CharClass

from oracles import bounded_language_equal

MAX_LEN = 7


def _profiles(small, large):
    tables = {"small": small, "large": large}
    for case in generate.CORPUS:
        yield sbpl.parse_sbpl(case.sbpl_text, name=case.name), tables[case.vocab]
    for seed in range(60):
        yield generate.ProfileGenerator(*small, seed=seed).generate(), small
    yield generate.ProfileGenerator(*large, seed=0, scale="container").generate(), large


def _programs(small, large):
    """The distinct regex programs the profiles compile to, in first-seen
    order."""
    wires = {}
    for profile, _tables in _profiles(small, large):
        for rules in profile.rules.values():
            for rule in rules:
                if rule.filter is None:
                    continue
                for atom in model.expr_atoms(rule.filter):
                    if atom.form is model.ValueForm.REGEX:
                        wires.setdefault(nfa.serialize_nfa(nfa.build_nfa(
                            rex.parse_regex(atom.value))), None)
    return list(wires)


def _class_letters(*programs) -> str:
    """One letter per byte class of the labels of programs, and one code
    point above 0xFF."""
    cuts = {0, 0x100}
    for program in programs:
        for _src, label, _dst in program.transitions:
            if isinstance(label, Char):
                cuts.update((label.byte, label.byte + 1))
            elif isinstance(label, CharClass):
                for lo, hi in label.ranges:
                    cuts.update((lo, hi + 1))
    return "".join(map(chr, sorted(cuts)))


def test_reversed_text_recompiles_to_the_same_language(small, large):
    wires = _programs(small, large)
    assert len(wires) > 100
    for wire in wires:
        program = nfa.deserialize_nfa(wire)
        text = rex.print_regex(nfa.nfa_to_regex(program))
        back = nfa.deserialize_nfa(nfa.serialize_nfa(nfa.build_nfa(rex.parse_regex(text))))
        equal, witness = bounded_language_equal(
            program, back, _class_letters(program, back), MAX_LEN)
        assert equal, (text, witness)
