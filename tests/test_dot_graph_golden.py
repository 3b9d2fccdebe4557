"""Behaviour guard for the Graphviz dump.

The digest was computed while `dot_graph` still named a terminal entry on a
branch of its own and wrote node labels and edges in two loops. It pins
`dot_graph(bp, index, vocab, op)` (text, node count and edge count), or the
error's (class, message), for every operation of the golden corpus, small
generated seeds 0-59 and container seed 0, in that order. The digest does
not depend on PYTHONHASHSEED (checked with 0 and 123).

DIGEST was recomputed when regex reversal began to remove states in order of
least in-degree times out-degree: 11 of the 1,713 graphs label a regex node
with a shorter pattern of the same language, and their node and edge counts
stayed as they were.
"""

import hashlib

from sbprof import codec, decompile, generate, sbpl
from sbprof.errors import SandboxError

DIGEST = "986b9cf94f59a4b8746b816a77d28d1210af6e4b54038dc154fd681393b40e2f"


def _profiles(small, large):
    tables = {"small": small, "large": large}
    for case in generate.CORPUS:
        yield sbpl.parse_sbpl(case.sbpl_text, name=case.name), tables[case.vocab]
    for seed in range(60):
        yield generate.ProfileGenerator(*small, seed=seed).generate(), small
    yield generate.ProfileGenerator(*large, seed=0, scale="container").generate(), large


def test_dot_graph_digest(small, large):
    digest = hashlib.sha256()
    for profile, (table, voc) in _profiles(small, large):
        bp = codec.decode_blob(codec.compile_profile(profile, table, voc))
        for index, op in enumerate(table.entries):
            try:
                outcome = decompile.dot_graph(bp, index, voc, op)
            except SandboxError as exc:
                outcome = (type(exc).__name__, str(exc))
            digest.update(repr(outcome).encode())
            digest.update(b"\x00")
    assert digest.hexdigest() == DIGEST
