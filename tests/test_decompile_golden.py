"""Behaviour guard for decompiling.

The digest was computed while normalization still spliced constant nodes in
a pass of its own and aggregation walked the graph again. It pins, in this
order:

- the text of `decompile(blob, table, vocab, permissive=True)`, or the
  error's (class, message), for the golden corpus, small generated seeds
  0-299, container seeds 0-11 and 3,000 seeded edge mutations of the blobs
  of small seeds 0-59 (each rewrites the match or unmatch field of 1-3
  filter records to a random unit inside the record block);
- `(entry, aggregate(...))`, or the error's (class, message), of
  `normalize_graph(random_op_graph(seed, vocab, 16), default)` for seeds
  0-2,999 under both defaults.

The digest does not depend on PYTHONHASHSEED.

DIGEST was recomputed when regex reversal began to remove states in order of
least in-degree times out-degree: 37 of the 300 small seeds and 272 of the
3,000 mutations decompile to other text, each with a shorter regex, and the
corpus, the container seeds and every aggregate row stayed byte-identical.
No row changed between text and error.
"""

import hashlib
import random
import struct

from sbprof import codec, decompile, generate, sbpl
from sbprof.errors import SandboxError
from sbprof.model import Decision

from oracles import random_op_graph

DIGEST = "91ca718e47fa3b506c99abf81a96e5a4e7fc04d13057e21b95eacd5608d3477a"
MUTATIONS = 3000


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except SandboxError as exc:
        return (type(exc).__name__, str(exc))


def _text(blob, table, voc):
    return _outcome(decompile.decompile, blob, table, voc, None, True)


def _edge_target(blob):
    """(blob, units of its filter records, units of its record block)."""
    bp = codec.decode_blob(blob)
    block = range(bp.node_base, bp.node_base + len(bp.node_types))
    return blob, [u for u in block if bp.decision_at(u) is None], block


def _mutate(rng, blob, filters, block):
    """Point the match or unmatch edge of 1-3 filter records at random units
    of the record block."""
    data = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        unit = rng.choice(filters)
        field = rng.choice((4, 6))
        struct.pack_into("<H", data, 8 * unit + field, rng.choice(block))
    return bytes(data)


def _aggregate(g, default):
    ng = decompile.normalize_graph(g, default)
    return ng.entry, decompile.aggregate(ng)


def test_decompile_outcomes_digest(small, large):
    digest = hashlib.sha256()

    def add(outcome):
        digest.update(repr(outcome).encode())
        digest.update(b"\x00")

    tables = {"small": small, "large": large}
    for case in generate.CORPUS:
        table, voc = tables[case.vocab]
        blob = codec.compile_profile(
            sbpl.parse_sbpl(case.sbpl_text, name=case.name), table, voc)
        add(_text(blob, table, voc))
    small_blobs = []
    for seed in range(300):
        blob = codec.compile_profile(
            generate.ProfileGenerator(*small, seed=seed).generate(), *small)
        small_blobs.append(blob)
        add(_text(blob, *small))
    for seed in range(12):
        blob = codec.compile_profile(generate.ProfileGenerator(
            *large, seed=seed, scale="container").generate(), *large)
        add(_text(blob, *large))
    rng = random.Random(2006)
    # the seeds whose blobs have a filter record to mutate
    bases = [t for t in map(_edge_target, small_blobs[:60]) if t[1]]
    for i in range(MUTATIONS):
        blob, filters, block = bases[i % len(bases)]
        add(_text(_mutate(rng, blob, filters, block), *small))
    _table, voc = small
    for seed in range(3000):
        for default in (Decision.DENY, Decision.ALLOW):
            add(_outcome(_aggregate, random_op_graph(seed, voc, 16), default))
    assert digest.hexdigest() == DIGEST
