"""Behaviour guard for the blob and bundle decoders.

The digest was computed with the decoder as it stood when it still built one
record object per node record. It pins the outcome of `decode_blob`,
`unpack_bundle(scan=False)` and `unpack_bundle` with a garbage prefix over
3,000 seeded mutations of compiled blobs: small seeds 0-5, large seeds 0-2,
container seed 0 and one bundle of small seeds 0-7. A mutation sets random
bytes, truncates, writes a random u16, or writes a chosen value into one
field of one node record. An outcome is the decoded views' fields, with the
records as (unit, type, key, value, match, unmatch) tuples, or the error's
(class, message, offset). The digest does not depend on PYTHONHASHSEED.
The blobs and the mutation stream are `oracles.decode_bases` and
`oracles.decode_mutations`, which other tests replay.
"""

import hashlib

from sbprof import codec
from sbprof.errors import SandboxError

from oracles import decode_bases, decode_mutations

OUTCOMES_DIGEST = "0165368c8264957b19b2e578e884f2a66bc24304eef0bae98e67bfc0762352e0"


def _view(bp):
    return (bp.format_id, bp.op_count, bp.pool_count, tuple(bp.op_pointers),
            bp.node_base, tuple(bp.pool_pointers), bp.pool_start, bp.name,
            hashlib.sha256(bp.raw).hexdigest(),
            tuple((r.unit, r.node_type, r.filter_key, r.filter_value,
                   r.match_offset, r.unmatch_offset) for r in bp.records))


def _outcome(decode, data):
    try:
        return ("ok", decode(data))
    except SandboxError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "offset", None))


def _decode(data):
    return _view(codec.decode_blob(data))


def _unpack(data, scan=True):
    offset, views = codec.unpack_bundle(data, scan=scan)
    return offset, [(name, _view(view)) for name, view in views]


def test_decode_outcomes_digest(small, large):
    digest = hashlib.sha256()
    for _i, data, garbage in decode_mutations(decode_bases(small, large)):
        line = (_outcome(_decode, data),
                _outcome(lambda d: _unpack(d, scan=False), data),
                _outcome(_unpack, garbage + data))
        digest.update(repr(line).encode())
    assert digest.hexdigest() == OUTCOMES_DIGEST
