"""Behaviour guard for the equivalence checker's value universe.

The digests were computed before the lazy DFA's walk steps gained class masks
and distance pruning. They pin `build_universe(collect_atoms(source))` (every
context key in order, then its value list in order) for the golden corpus,
40 small generated profiles and 3 container-scale profiles, each taken both
as its AST and as its compiled blob. They do not depend on PYTHONHASHSEED
(checked with 0, 1 and 123).

The AST-side digests of "generated" and "container" were recomputed when a
pattern text began to match and sample through the automaton of its own
compiled program: only generated seed 15 and container seed 2 changed, each
in one sample of its `path` key, and every AST universe now holds the same
values as its blob's (`tests/test_evaluate.py`). The blob-side digests and
the corpus digests did not change.
"""

import hashlib

import pytest

from sbprof import codec, evaluate, generate, sbpl, vocab

DIGESTS = {  # group: (from the ASTs, from the compiled blobs)
    "corpus": (
        "d83ec6c8d0f2e41084ae8f5b41b9834e7f3d10456fb98b6e9e0e495d01ca849b",
        "73177d49a5d413f74cf3c53b0d4cb090996e6d2422e6a7e83b31669f45848b42",
    ),
    "generated": (
        "fb35abf7c7140aff26a5162d90850ae379adbb3cbefe5372d2547ad8639c840b",
        "61fd3b3d9aa354dc5a7e352fc234a83c0f27cf31930fd23d13ab94e809554462",
    ),
    "container": (
        "d4c92768056db0031ab28d074a13f5c8e81c055022fa22cb3ebadc2ef71176a0",
        "53fbeff7e91e2d6ebf9c58ac3f957b4e9ee733b6f664a98886d608046f2ff0ff",
    ),
}


def _digests(sources):
    """sources: (profile, table, vocab) triples."""
    ast_hash, blob_hash = hashlib.sha256(), hashlib.sha256()
    for profile, table, voc in sources:
        blob = codec.compile_profile(profile, table, voc)
        for thing, digest in ((profile, ast_hash), (blob, blob_hash)):
            universe = evaluate.build_universe(
                evaluate.collect_atoms(thing, table, voc), voc)
            out = []
            for key, values in universe.items():
                out.append(repr(key))
                out.append(repr(values))
            digest.update(("\n".join(out) + "\n\x00\n").encode())
    return ast_hash.hexdigest(), blob_hash.hexdigest()


def _corpus():
    tables = {name: vocab.load_builtin(name) for name in ("small", "large")}
    for case in generate.CORPUS:
        table, voc = tables[case.vocab]
        yield sbpl.parse_sbpl(case.sbpl_text, name=case.name), table, voc


def _generated(small):
    table, voc = small
    for seed in range(40):
        yield generate.ProfileGenerator(table, voc, seed=seed).generate(), table, voc


def _container(large):
    table, voc = large
    for seed in range(3):
        yield generate.ProfileGenerator(
            table, voc, seed=seed, scale="container").generate(), table, voc


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_universe_digests(group, small, large):
    sources = {"corpus": lambda: _corpus(),
               "generated": lambda: _generated(small),
               "container": lambda: _container(large)}[group]()
    assert _digests(sources) == DIGESTS[group]
