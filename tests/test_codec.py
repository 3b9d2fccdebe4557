import struct
import time

import pytest

from sbprof import codec, sbpl
from sbprof.errors import (
    CapacityExceeded,
    InvalidProfile,
    MalformedBlob,
    NoBundleFound,
    SandboxError,
    WrongFormatId,
)
from sbprof.model import Atom, Decision, Profile, Rule, validate_profile

SIBLINGS = '''(version 1)
(deny default)
(allow file-read*
    (regex #"/bin/*")
    (vnode-type REGULAR-FILE))
'''

REFERENCE_NODE_BYTES = bytes.fromhex("0081000023002200001d010023002400")


def test_two_filter_profile_reference_records(large):
    table, vocab = large
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    bp = codec.decode_blob(blob)
    nonterm = [r for r in bp.records if not r.is_terminal]
    assert len(nonterm) == 2
    first, second = nonterm
    assert (first.node_type, first.filter_key, first.filter_value) == (0x00, 0x81, 0x0000)
    assert (second.node_type, second.filter_key, second.filter_value) == (0x00, 0x1d, 0x0001)
    allow_unit = next(r.unit for r in bp.records
                      if r.is_terminal and r.decision is Decision.ALLOW)
    assert first.unmatch_offset == second.unit
    assert first.match_offset == allow_unit
    assert second.match_offset == allow_unit


def test_reference_layout_units_with_large_table(large):
    # 125 operations and one pooled regex place the node section at unit
    # 0x21, reproducing the documented record bytes exactly
    table, vocab = large
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    bp = codec.decode_blob(blob)
    assert bp.node_base == 0x21
    assert blob[bp.node_base * 8:bp.node_base * 8 + 16] == REFERENCE_NODE_BYTES


def test_reference_record_bytes_decode(large):
    # the documented record bytes decode to the expected field values when
    # placed in a blob with the matching layout
    table, vocab = large
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    bp = codec.decode_blob(blob)
    rec = bp.record_at(0x21)
    assert (rec.filter_key, rec.filter_value) == (0x81, 0x0000)
    assert (rec.match_offset, rec.unmatch_offset) == (0x0023, 0x0022)
    rec2 = bp.record_at(0x22)
    assert (rec2.filter_key, rec2.filter_value) == (0x1d, 0x0001)
    assert (rec2.match_offset, rec2.unmatch_offset) == (0x0023, 0x0024)


def test_default_only_profile_points_everything_at_deny(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl("(deny default)"), table, vocab)
    bp = codec.decode_blob(blob)
    deny_unit = next(r.unit for r in bp.records
                     if r.is_terminal and r.decision is Decision.DENY)
    assert all(ptr == deny_unit for ptr in bp.op_pointers)
    assert bp.op_count == len(table)
    assert bp.default_decision() is Decision.DENY


def test_compile_requires_valid_profile(small):
    table, vocab = small
    bad = sbpl.parse_sbpl('(deny default)\n(allow file-read* (frobnicate "/x"))')
    with pytest.raises(InvalidProfile):
        codec.compile_profile(bad, table, vocab)


def test_compile_is_deterministic(small):
    table, vocab = small
    p = sbpl.parse_sbpl(SIBLINGS)
    assert codec.compile_profile(p, table, vocab) == \
        codec.compile_profile(p, table, vocab)


def test_decode_reencode_byte_identical(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    assert codec.extract_profile(codec.decode_blob(blob), vocab) == blob


def test_every_offset_lands_on_a_record(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    bp = codec.decode_blob(blob)
    lo, hi = bp.node_base, bp.node_base + len(bp.records)
    for rec in bp.records:
        if rec.is_terminal:
            continue
        assert lo <= rec.match_offset < hi
        assert lo <= rec.unmatch_offset < hi
    for ptr in bp.op_pointers:
        assert lo <= ptr < hi


def test_decode_rejects_garbage():
    with pytest.raises(MalformedBlob):
        codec.decode_blob(b"\x00\x00\x01")
    with pytest.raises(WrongFormatId):
        codec.decode_blob(b"\x34\x12" + b"\x00" * 30)


def test_decode_rejects_a_profile_with_no_operations():
    # header with op_count 0, then the deny and the allow terminal: nothing
    # points at the default operation's decision
    terminals = struct.pack("<BBHHH", codec.NODE_TERMINAL, codec.TERMINAL_DENY, 0, 0, 0) \
        + struct.pack("<BBHHH", codec.NODE_TERMINAL, codec.TERMINAL_ALLOW, 0, 0, 0)
    separated = struct.pack("<HHH", codec.FORMAT_SEPARATED, 0, 0) + b"\x00\x00" + terminals
    assert len(separated) == 24
    with pytest.raises(MalformedBlob) as err:
        codec.decode_blob(separated)
    assert err.value.offset == 4  # the operation-count field
    # one profile named "p": its name pointer and the pool pointer both
    # point at the name string, after the terminals
    bundle = struct.pack("<HHHHHH", codec.FORMAT_BUNDLED, 1, 0, 1, 4, 4) \
        + b"\x00" * 4 + terminals + codec._pack_string("p")
    with pytest.raises(MalformedBlob) as err:
        codec.unpack_bundle(bundle, scan=False)
    assert err.value.offset == 4


def test_decode_rejects_out_of_range_pointer(small):
    table, vocab = small
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl("(deny default)"),
                                           table, vocab))
    struct.pack_into("<H", blob, 6, 0xFFF0)  # first op pointer far past end
    with pytest.raises(MalformedBlob):
        codec.decode_blob(bytes(blob))


def test_pointer_errors_carry_the_pointer_offset(small):
    # both formats name the byte offset of the bad table entry itself
    table, vocab = small
    profile = sbpl.parse_sbpl(SIBLINGS, name="only")
    separated = codec.compile_profile(profile, table, vocab)
    bundle = codec.pack_bundle([profile], table, vocab)
    ops = len(table)
    cases = [  # (blob, byte offset of a pointer, reader)
        (separated, 6 + 2 * 3, codec.decode_blob),            # operation 3
        (separated, 6 + 2 * ops, codec.decode_blob),          # pool pointer 0
        (bundle, 8 + 2 + 2 * 3, lambda b: codec.unpack_bundle(b, scan=False)),
        (bundle, 8 + 2 + 2 * ops, lambda b: codec.unpack_bundle(b, scan=False)),
        (bundle, 8, lambda b: codec.unpack_bundle(b, scan=False)),  # the name
    ]
    for blob, at, read in cases:
        bad = bytearray(blob)
        struct.pack_into("<H", bad, at, 0xFFF0)
        with pytest.raises(MalformedBlob) as err:
            read(bytes(bad))
        assert err.value.offset == at, (at, str(err.value))


def test_decode_rejects_bad_terminal_census(small):
    table, vocab = small
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl("(deny default)"),
                                           table, vocab))
    bp = codec.decode_blob(bytes(blob))
    allow_rec = next(r for r in bp.records if r.is_terminal
                     and r.decision is Decision.ALLOW)
    struct.pack_into("<BB", blob, allow_rec.unit * 8, 0x01, 0x00)  # second deny
    with pytest.raises(MalformedBlob):
        codec.decode_blob(bytes(blob))


def test_node_dedup_shares_identical_subtrees(small):
    table, vocab = small
    shared = '(deny default)\n(allow file-read* (literal "/x"))\n' \
             '(allow file-write* (literal "/x"))\n'
    blob = codec.compile_profile(sbpl.parse_sbpl(shared), table, vocab)
    bp = codec.decode_blob(blob)
    nonterm = [r for r in bp.records if not r.is_terminal]
    assert len(nonterm) == 1  # both operations reuse one record


def test_pack_bundle_header_and_round_trip(small):
    table, vocab = small
    pa = sbpl.parse_sbpl(SIBLINGS, name="alpha")
    pb = sbpl.parse_sbpl('(deny default)\n(allow signal (target self))', name="beta")
    bundle = codec.pack_bundle([pa, pb], table, vocab)
    assert struct.unpack_from("<H", bundle, 0)[0] == 0x8000
    offset, views = codec.unpack_bundle(bundle)
    assert offset == 0
    assert [name for name, _ in views] == ["alpha", "beta"]
    for (name, view), profile in zip(views, (pa, pb)):
        assert codec.extract_profile(view, vocab) == \
            codec.compile_profile(profile, table, vocab)


def test_bundle_shares_nodes_across_profiles(small):
    table, vocab = small
    pa = sbpl.parse_sbpl(SIBLINGS, name="a")
    pb = sbpl.parse_sbpl(SIBLINGS.replace("file-read*", "file-write*"), name="b")
    bundle = codec.pack_bundle([pa, pb], table, vocab)
    sep_a = codec.compile_profile(pa, table, vocab)
    sep_b = codec.compile_profile(pb, table, vocab)
    _off, views = codec.unpack_bundle(bundle)
    shared_nodes = len(views[0][1].records)
    separate_nodes = len(codec.decode_blob(sep_a).records) + \
        len(codec.decode_blob(sep_b).records)
    assert shared_nodes < separate_nodes


def test_bundle_requires_unique_names(small):
    table, vocab = small
    p = sbpl.parse_sbpl("(deny default)", name="same")
    with pytest.raises(SandboxError):
        codec.pack_bundle([p, p], table, vocab)


def test_unpack_scans_past_garbage(small):
    table, vocab = small
    import random

    rng = random.Random(3)
    names = [f"p{i}" for i in range(3)]
    profiles = [sbpl.parse_sbpl("(deny default)", name=n) for n in names]
    bundle = codec.pack_bundle(profiles, table, vocab)
    junk = bytes(rng.randrange(1, 255) for _ in range(64))
    offset, views = codec.unpack_bundle(junk + bundle)
    assert offset == 64
    assert [n for n, _ in views] == names


def test_unpack_rejects_zeros_and_separated(small):
    table, vocab = small
    separated = codec.compile_profile(sbpl.parse_sbpl("(deny default)"),
                                      table, vocab)
    with pytest.raises(WrongFormatId):
        codec.unpack_bundle(separated, scan=False)
    with pytest.raises(NoBundleFound):
        codec.unpack_bundle(b"\x11" * 256)
    with pytest.raises(NoBundleFound):
        codec.unpack_bundle(b"\x00" * 256)


def test_unpack_scan_tolerates_zero_padding(small):
    table, vocab = small
    p = sbpl.parse_sbpl("(deny default)", name="only")
    bundle = codec.pack_bundle([p], table, vocab)
    offset, views = codec.unpack_bundle(b"\x00" * 512 + bundle)
    assert offset == 512 and views[0][0] == "only"


def test_bundle_views_retain_less_than_three_times_the_bundle(large):
    # the views of this bundle (414,884 bytes, 15,448 records) retained 4.8 MB
    # with one object per node record, and retain 0.57 MB as columns
    import gc
    import tracemalloc

    from sbprof import generate

    table, vocab = large
    profiles = []
    for seed in range(8):
        p = generate.ProfileGenerator(table, vocab, seed=seed, scale="container").generate()
        profiles.append(Profile(f"c{seed}", p.default_decision, p.rules))
    data = b"\xff" * 4096 + codec.pack_bundle(profiles, table, vocab)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        offset, views = codec.unpack_bundle(data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert offset == 4096 and len(views) == 8
    assert retained < 3 * (len(data) - offset), retained


def test_pack_bundle_traced_peak(large):
    """The traced peak of packing container seeds 0-7 (large vocabulary) into
    one bundle, after a first pack has warmed the regex memo. CPython 3.11.7,
    with and without -X dev: 3.45 MiB with packed-int rows and a writer that
    fills one buffer sized once; 5.65 MiB with tuple rows, a dict of node
    positions and a bytearray grown record by record. The 4.5 MiB bound is
    30% above the first and 20% below the second. It was calibrated on 3.11
    alone: 3.10, 3.12 and 3.13, which CI also runs, are unmeasured."""
    import gc
    import tracemalloc

    from sbprof import generate

    table, vocab = large
    profiles = []
    for seed in range(8):
        p = generate.ProfileGenerator(table, vocab, seed=seed, scale="container").generate()
        profiles.append(Profile(f"c{seed}", p.default_decision, p.rules))
    first = codec.pack_bundle(profiles, table, vocab)
    gc.collect()
    tracemalloc.start()
    try:
        second = codec.pack_bundle(profiles, table, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < 4.5 * 2**20, peak


def test_unpack_scan_is_linear_in_candidates():
    # every even offset of this 1 MiB input starts a candidate header. On a
    # 2-vCPU x86-64 guest, copying the tail at each candidate took 11 s;
    # reading each candidate in place takes about 1.5 s
    start = time.perf_counter()
    with pytest.raises(NoBundleFound):
        codec.unpack_bundle(b"\x00\x80" * (1 << 19))
    assert time.perf_counter() - start < 5.0


def test_capacity_exceeded(small):
    table, vocab = small
    # enough distinct literals to overflow 16-bit pool offsets
    lines = ["(deny default)"]
    lines += [f'(allow file-read* (literal "/p/{i}"))' for i in range(40000)]
    pool_overflow = sbpl.parse_sbpl("\n".join(lines), name="pool")
    # enough chained enum tests (inline values, no pool) to overflow the
    # 16-bit offsets of the node records themselves
    rule = Rule(Decision.ALLOW, Atom("vnode-type", "REGULAR-FILE"))
    node_overflow = Profile("nodes", Decision.DENY, {"file-read*": (rule,) * 65600})
    for profile in (pool_overflow, node_overflow):
        with pytest.raises(CapacityExceeded):
            codec.compile_profile(profile, table, vocab)
        with pytest.raises(CapacityExceeded):
            codec.pack_bundle([profile], table, vocab)


def test_section_sizes_cover_blob(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    sizes = codec.section_sizes(blob)
    assert sum(sizes.values()) == len(blob)


def test_dedup_never_changes_verdicts(small):
    from sbprof import evaluate, generate

    # the AST evaluator shares nothing, so it checks every shared record
    table, vocab = small
    for seed in range(25):
        p = generate.ProfileGenerator(table, vocab, seed=seed).generate()
        shared = codec.compile_profile(p, table, vocab)
        report = evaluate.check_equivalence(p, shared, table, vocab)
        assert report.equivalent, (seed, str(report))


def test_separated_and_bundled_encodings_are_equivalent(small):
    from sbprof import evaluate, generate

    table, vocab = small
    profiles = []
    for seed in range(4):
        p = generate.ProfileGenerator(table, vocab, seed=seed).generate()
        profiles.append(type(p)(f"p{seed}", p.default_decision, p.rules))
    bundle = codec.pack_bundle(profiles, table, vocab)
    _off, views = codec.unpack_bundle(bundle)
    for (name, view), profile in zip(views, profiles):
        separated = codec.compile_profile(profile, table, vocab)
        report = evaluate.check_equivalence(separated, view, table, vocab)
        assert report.equivalent, (name, str(report))


def test_regex_blob_lookup_does_not_copy(small):
    from sbprof import generate, nfa
    from sbprof.model import ValueKind

    table, vocab = small
    regex_keys = {e.code for e in vocab.entries if e.kind is ValueKind.REGEX_INDEX}
    looked_up = 0
    for seed in range(10):
        p = generate.ProfileGenerator(table, vocab, seed=seed).generate()
        bp = codec.decode_blob(codec.compile_profile(p, table, vocab))
        for rec in bp.records:
            if rec.is_terminal or rec.filter_key not in regex_keys:
                continue
            blob = bp.value_at(rec.unit, vocab.by_code(rec.filter_key))
            assert isinstance(blob, memoryview) and blob.obj is bp.raw
            offset = bp.pool_pointers[rec.filter_value] * 8
            assert blob.nbytes == len(bp.raw) - offset
            assert nfa.deserialize_nfa(blob) == nfa.deserialize_nfa(bp.raw[offset:])
            looked_up += 1
    assert looked_up > 5


def _patch_value(blob: bytes, value: int):
    """blob with its one filter record's u16 value set to value, and that
    record's unit."""
    (rec,) = [r for r in codec.decode_blob(blob).records if not r.is_terminal]
    out = bytearray(blob)
    struct.pack_into("<H", out, 8 * rec.unit + 2, value)
    return bytes(out), rec.unit


def test_crafted_record_values_raise_structured_errors(small):
    from sbprof import decompile, evaluate
    from sbprof.errors import DecompileError, UnknownFilterValue

    table, vocab = small
    ctx = evaluate.QueryContext({})

    def compiled(body):
        text = f"(version 1)\n(deny default)\n(allow file-read* {body})\n"
        return codec.compile_profile(sbpl.parse_sbpl(text), table, vocab)

    # an enum code the vocabulary does not name
    enum_blob, _unit = _patch_value(compiled("(vnode-type REGULAR-FILE)"), 0x00FF)
    with pytest.raises(UnknownFilterValue):
        evaluate.BlobEvaluator(enum_blob, table, vocab).verdict("file-read*", ctx)
    with pytest.raises(DecompileError) as info:
        decompile.decompile(enum_blob, table, vocab)
    assert isinstance(info.value.cause, UnknownFilterValue)
    # extraction copies inline values as stored
    assert codec.extract_profile(codec.decode_blob(enum_blob), vocab) == enum_blob

    # a literal string pointing past the end of a one-item pool
    # the error names the record's value field
    literal = compiled('(literal "/bin/ls")')
    assert codec.decode_blob(literal).pool_count == 1
    pool_blob, unit = _patch_value(literal, 9)
    with pytest.raises(MalformedBlob) as bad:
        evaluate.BlobEvaluator(pool_blob, table, vocab).verdict("file-read*", ctx)
    assert bad.value.offset == 8 * unit + 2
    with pytest.raises(MalformedBlob) as bad:
        codec.extract_profile(codec.decode_blob(pool_blob), vocab)
    assert bad.value.offset == 8 * unit + 2
    with pytest.raises(DecompileError) as info:
        decompile.decompile(pool_blob, table, vocab)
    assert isinstance(info.value.cause, MalformedBlob)
    assert info.value.cause.offset == 8 * unit + 2

    # in a bundle found past leading garbage, offsets count from its start
    profile = sbpl.parse_sbpl('(deny default)\n(allow file-read* (literal "/bin/ls"))',
                              name="p")
    bundle = bytearray(codec.pack_bundle([profile], table, vocab))
    _off, [(_name, view)] = codec.unpack_bundle(bytes(bundle), scan=False)
    (rec,) = [r for r in view.records if not r.is_terminal]
    struct.pack_into("<H", bundle, 8 * rec.unit + 2, 9)
    offset, [(_name, view)] = codec.unpack_bundle(b"\xff" * 24 + bundle)
    assert offset == 24
    with pytest.raises(MalformedBlob) as bad:
        codec.extract_profile(view, vocab)
    assert bad.value.offset == 8 * rec.unit + 2


def _bundle(table, vocab, *names):
    return codec.pack_bundle([sbpl.parse_sbpl("(deny default)", name=n) for n in names],
                             table, vocab)


def _default_at_a_filter_node(table, vocab):
    # the default operation's pointer moved onto the first filter record
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab))
    struct.pack_into("<H", blob, 6, codec.decode_blob(bytes(blob)).node_base)
    return codec.decode_blob(bytes(blob)).default_decision()


def _duplicate_member_names(table, vocab):
    # the second profile's name offset set to the first's
    bundle = bytearray(_bundle(table, vocab, "a", "b"))
    struct.pack_into("<H", bundle, 8 + 2 + 2 * len(table),
                     struct.unpack_from("<H", bundle, 8)[0])
    return codec.unpack_bundle(bytes(bundle), scan=False)


def _literal(text):
    return sbpl.parse_sbpl(f'(deny default)\n(allow file-read* (literal "{text}"))',
                           name="p")


@pytest.mark.parametrize("call, error, message", [
    (lambda t, v: codec.compile_profile(_literal("x" * 70000), t, v),
     CapacityExceeded, "pool string longer than 65535 bytes"),
    (lambda t, v: codec.compile_profile(_literal("/a\udc80"), t, v),
     SandboxError, "pool string '/a\\udc80': UTF-8 cannot encode character 2"),
    (lambda t, v: _bundle(t, v, "\udcffname"),
     SandboxError, "pool string '\\udcffname': UTF-8 cannot encode character 0"),
    # SIBLINGS on the small table: 16 operation and 1 pool pointers put the
    # first record at byte 40
    (_default_at_a_filter_node, MalformedBlob,
     "bad profile blob at byte 40: default operation does not point at a terminal"),
    (lambda t, v: codec.unpack_bundle(struct.pack("<HHHH", codec.FORMAT_BUNDLED, 0, 1, 0),
                                      scan=False),
     MalformedBlob, "bad profile blob at byte 0: bundle with no profiles"),
    (_duplicate_member_names, MalformedBlob,
     "bad profile blob at byte 42: duplicate profile name 'a'"),
    (lambda t, v: codec.pack_bundle([], t, v),
     SandboxError, "a bundle needs at least one profile"),
], ids=["long-pool-string", "unencodable-literal", "unencodable-name",
        "default-not-terminal", "no-profiles", "duplicate-names", "empty-bundle"])
def test_codec_structured_errors(small, call, error, message):
    with pytest.raises(error) as info:
        call(*small)
    assert type(info.value) is error and str(info.value) == message


def test_unencodable_literal_passes_validation(small):
    # only compile can tell: validate_profile reports nothing
    assert validate_profile(_literal("/a\udc80"), *small) == []


def test_pack_bundle_reports_the_first_failing_member(small):
    # members are validated and lowered in order: an earlier member that
    # cannot be encoded is reported before a later invalid one
    table, vocab = small
    too_long = _literal("x" * 70000)
    invalid = sbpl.parse_sbpl("(allow file-read*)", name="invalid")
    with pytest.raises(CapacityExceeded):
        codec.pack_bundle([too_long, invalid], table, vocab)
    with pytest.raises(InvalidProfile) as info:
        codec.pack_bundle([invalid, too_long], table, vocab)
    assert [d.code for d in info.value.diagnostics] == ["MissingDefault"]
