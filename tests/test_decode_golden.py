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
"""

import hashlib
import random
import struct

from sbprof import codec, generate
from sbprof.errors import SandboxError

OUTCOMES_DIGEST = "0165368c8264957b19b2e578e884f2a66bc24304eef0bae98e67bfc0762352e0"
MUTATIONS = 3000


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


def _bases(small, large):
    out = []
    for seed in range(6):
        out.append(codec.compile_profile(
            generate.ProfileGenerator(*small, seed=seed).generate(), *small))
    for seed in range(3):
        out.append(codec.compile_profile(
            generate.ProfileGenerator(*large, seed=seed).generate(), *large))
    out.append(codec.compile_profile(generate.ProfileGenerator(
        *large, seed=0, scale="container").generate(), *large))
    members = []
    for seed in range(8):
        p = generate.ProfileGenerator(*small, seed=seed).generate()
        members.append(type(p)(f"p{seed}", p.default_decision, p.rules))
    out.append(codec.pack_bundle(members, *small))
    return out


def _mutate(rng, blob, first, count):
    """One seeded mutation of blob, whose count node records start at byte
    first."""
    data = bytearray(blob)
    kind = rng.random()
    if kind < 0.3:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif kind < 0.4:
        data = data[:rng.randrange(1, len(data))]
    elif kind < 0.55:
        struct.pack_into("<H", data, rng.randrange(len(data) - 1), rng.randrange(0x10000))
    else:
        at = first + 8 * rng.randrange(count)
        field = rng.randrange(5)
        if field < 2:
            data[at + field] = rng.choice((0, 1, 2, 0xFF, rng.randrange(256)))
        else:
            base = first // 8
            value = rng.choice((0, base - 1, base, base + count - 1, base + count,
                                rng.randrange(0x10000)))
            struct.pack_into("<H", data, at + 2 * field - 2, value)
    return bytes(data)


def test_decode_outcomes_digest(small, large):
    rng = random.Random(1904)
    digest = hashlib.sha256()
    bases = []
    for blob in _bases(small, large):
        if blob[:2] == b"\x00\x80":
            _offset, [(_name, bp), *_rest] = codec.unpack_bundle(blob, scan=False)
        else:
            bp = codec.decode_blob(blob)
        bases.append((blob, 8 * bp.node_base, len(bp.records)))
    for i in range(MUTATIONS):
        blob, first, count = bases[i % len(bases)]
        data = _mutate(rng, blob, first, count)
        garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        line = (_outcome(_decode, data),
                _outcome(lambda d: _unpack(d, scan=False), data),
                _outcome(_unpack, garbage + data))
        digest.update(repr(line).encode())
    assert digest.hexdigest() == OUTCOMES_DIGEST
