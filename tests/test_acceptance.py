"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated time budget. Run with `pytest tests/test_acceptance.py -v`.
"""

import random
import struct
import time

from sbprof import codec, decompile, evaluate, generate, nfa, rex, sbpl
from sbprof.decompile import aggregate, build_graph, normalize_graph
from sbprof.errors import SandboxError
from sbprof.model import (
    Decision,
    RequireAll,
    RequireAny,
    RequireNot,
    canonicalize,
)

from oracles import bounded_language_equal, random_op_graph

SIBLINGS = '''(version 1)
(deny default)
(allow file-read*
    (regex #"/bin/*")
    (vnode-type REGULAR-FILE))
'''


def _report(number, description, elapsed, budget):
    print(f"PASS criterion {number}: {description} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_two_filter_golden_records(large):
    started = time.time()
    table, vb = large
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vb)
    bp = codec.decode_blob(blob)
    nonterm = [r for r in bp.records if not r.is_terminal]
    assert len(nonterm) == 2
    first, second = nonterm
    assert (first.node_type, first.filter_key, first.filter_value) == (0x00, 0x81, 0x0000)
    assert (second.node_type, second.filter_key, second.filter_value) == (0x00, 0x1d, 0x0001)
    allow_unit = next(r.unit for r in bp.records
                      if r.is_terminal and r.decision is Decision.ALLOW)
    assert first.unmatch_offset == second.unit
    assert first.match_offset == allow_unit and second.match_offset == allow_unit
    _report(1, "two-filter profile lowers to the documented records",
            time.time() - started, 1.0)


def _hand_encoded_nested_graph(table):
    """Hand-built blob: A gates an alternative pair, one branch negated.
    A: match->B unmatch->deny; B: match->C unmatch->allow;
    C: match->allow unmatch->deny."""
    op_count = len(table)
    pool_count = 0
    head = 6 + 2 * op_count
    node_start = (head + 7) & ~7
    base = node_start // 8
    a, b, c, allow, deny = base, base + 1, base + 2, base + 3, base + 4
    records = [
        (0x00, 0x0e, 0x0002, b, deny),      # A = target pgrp
        (0x00, 0x1d, 0x0001, c, allow),     # B = vnode-type REGULAR-FILE
        (0x00, 0x0e, 0x0001, allow, deny),  # C = target self
        (0x01, 0x01, 0, 0, 0),              # allow terminal
        (0x01, 0x00, 0, 0, 0),              # deny terminal
    ]
    out = [struct.pack("<HHH", 0x0000, pool_count, op_count)]
    pointers = [deny] * op_count
    pointers[0] = deny
    pointers[table.index("file-read*")] = a
    out.append(struct.pack(f"<{op_count}H", *pointers))
    out.append(b"\x00" * (node_start - head))
    for rec in records:
        out.append(struct.pack("<BBHHH", *rec))
    return b"".join(out)


def test_criterion_2_nested_graph_reconstruction(small):
    started = time.time()
    table, vb = small
    blob = _hand_encoded_nested_graph(table)
    bp = codec.decode_blob(blob)
    graph = build_graph(bp, table.index("file-read*"), vb)
    expr = aggregate(normalize_graph(graph, Decision.DENY))
    a = graph.nodes[graph.entry].expr
    b = graph.nodes[graph.nodes[graph.entry].match].expr
    c_node = graph.nodes[graph.nodes[graph.nodes[graph.entry].match].match].expr
    want = RequireAll((a, RequireAny((RequireNot(b), c_node))))
    assert canonicalize(expr, vb) == canonicalize(want, vb)
    _report(2, "hand-encoded nested graph reverses to all(A, any(not(B), C))",
            time.time() - started, 1.0)


def test_criterion_3_normalization_invariant(small):
    started = time.time()
    _table, vb = small
    checked_edges = 0
    for seed in range(1000):
        g = random_op_graph(seed, vb)
        ng = normalize_graph(g, Decision.DENY)
        for node in ng.nodes.values():
            assert node.match != Decision.DENY
            assert node.unmatch != Decision.ALLOW
            checked_edges += 2
    assert checked_edges > 1000
    _report(3, f"1000 normalized graphs keep the match-edge invariant "
               f"({checked_edges} edges)", time.time() - started, 10.0)


def test_criterion_4_semantic_round_trip(small, large):
    started = time.time()
    tables = {"small": small, "large": large}
    failures = []
    cases = [(c.name, sbpl.parse_sbpl(c.sbpl_text), *tables[c.vocab])
             for c in generate.CORPUS]
    t, vb = tables["small"]
    for seed in range(500):
        cases.append((f"seed-{seed}",
                      generate.ProfileGenerator(t, vb, seed=seed).generate(), t, vb))
    for name, profile, table, vb in cases:
        blob = codec.compile_profile(profile, table, vb)
        text = decompile.decompile(blob, table, vb)
        blob2 = codec.compile_profile(sbpl.parse_sbpl(text), table, vb)
        report = evaluate.check_equivalence(blob, blob2, table, vb)
        if not report.equivalent:
            failures.append((name, str(report)))
    assert not failures, failures[:3]
    _report(4, f"{len(cases)} profiles decompile and recompile equivalently",
            time.time() - started, 60.0)


def test_criterion_5_regex_round_trip():
    started = time.time()
    patterns = ["/bin/*", "^/dev/ttys[0-9]*",
                r"^/private/tmp/\.webdavUDS\.[^/]+$"]
    rng = random.Random(17)
    while len(patterns) < 203:
        patterns.append(generate.random_regex_pattern(rng, 3))
    for pat in patterns:
        ast = rex.parse_regex(pat)
        original = nfa.build_nfa(ast)
        decoded = nfa.deserialize_nfa(nfa.serialize_nfa(original))
        rebuilt = nfa.build_nfa(nfa.nfa_to_regex(decoded))
        chars = sorted(set(c for c in pat if c.isalnum() or c == "/"))[:7]
        alphabet = set(chars) | {"~"}
        equal, witness = bounded_language_equal(original, decoded, alphabet, 8)
        assert equal, (pat, "serialize", witness)
        equal, witness = bounded_language_equal(original, rebuilt, alphabet, 8)
        assert equal, (pat, "reverse", witness)
    _report(5, f"{len(patterns)} regexes keep their bounded language through "
               f"serialize/deserialize/reverse/rebuild", time.time() - started, 120.0)


def test_criterion_6_container_scale(large):
    started = time.time()
    table, vb = large
    gen = generate.ProfileGenerator(table, vb, seed=7, scale="container")
    profile = gen.generate()
    blob = codec.compile_profile(profile, table, vb)
    bp = codec.decode_blob(blob)
    nonterm = [r for r in bp.records if not r.is_terminal]
    regex_nodes = [r for r in nonterm if r.filter_key == 0x81]
    assert abs(len(nonterm) - 1964) <= 196
    assert abs(len(regex_nodes) - 131) <= 33
    t0 = time.time()
    text = decompile.decompile(blob, table, vb)
    decompile_time = time.time() - t0
    assert decompile_time < 1.0, f"decompile took {decompile_time:.2f}s"
    blob2 = codec.compile_profile(sbpl.parse_sbpl(text), table, vb)
    report = evaluate.check_equivalence(blob, blob2, table, vb,
                                        mode="sampled", seed=3, samples=10_000)
    assert report.equivalent, str(report)
    _report(6, f"container-scale profile ({len(nonterm)} nodes, "
               f"{len(regex_nodes)} regex) decompiles in {decompile_time:.2f}s "
               f"and passes {report.checked} sampled checks",
            time.time() - started, 120.0)


def test_criterion_7_bundle_format(small):
    started = time.time()
    table, vb = small
    rng = random.Random(23)
    profiles = [generate.ProfileGenerator(table, vb, seed=s).generate()
                for s in range(8)]
    profiles = [type(p)(f"profile-{i}", p.default_decision, p.rules)
                for i, p in enumerate(profiles)]
    bundle = codec.pack_bundle(profiles, table, vb)
    assert struct.unpack_from("<H", bundle, 0)[0] == 0x8000
    offset, views = codec.unpack_bundle(bundle)
    assert offset == 0 and len(views) == 8
    for (name, view), profile in zip(views, profiles):
        assert name == profile.name
        standalone = codec.compile_profile(profile, table, vb)
        assert struct.unpack_from("<H", standalone, 0)[0] == 0x0000
        assert codec.extract_profile(view, vb) == standalone
    for padding in (b"\x00" * 4096,
                    bytes(rng.randrange(1, 255) for _ in range(4096))):
        offset, views = codec.unpack_bundle(padding + bundle)
        assert offset == 4096 and len(views) == 8
    _report(7, "8-profile bundle round-trips byte-identically and scans past "
               "4 KiB of padding", time.time() - started, 30.0)


def test_criterion_8_cleanup(small, implicit_rules):
    started = time.time()
    table, vb = small
    source = sbpl.parse_sbpl(
        '(deny default)\n'
        '(allow file-read* (regex #"/bin/*"))\n'
        '(allow mach-lookup)\n'
        '(deny file-write* (literal "/private/etc/master"))\n')
    injected = decompile.inject_implicit(source, implicit_rules)
    assert any(op == "signal" for op in injected.rules)
    blob = codec.compile_profile(injected, table, vb)
    cleaned_text = decompile.decompile(blob, table, vb, implicit=implicit_rules)
    assert "(allow signal" not in cleaned_text
    cleaned = sbpl.parse_sbpl(cleaned_text)
    report = evaluate.check_equivalence(source, cleaned, table, vb)
    assert report.equivalent, str(report)
    _report(8, "implicit rules inject, strip, and leave the source semantics",
            time.time() - started, 30.0)


def test_criterion_9_fuzz_robustness(small, large):
    started = time.time()
    tables = {"small": small, "large": large}
    bases = []
    for case in generate.CORPUS:
        table, vb = tables[case.vocab]
        bases.append((codec.compile_profile(sbpl.parse_sbpl(case.sbpl_text),
                                            table, vb), table, vb))
    rng = random.Random(99)
    worst = 0.0
    for case_no in range(10_000):
        blob, table, vb = bases[rng.randrange(len(bases))]
        data = bytearray(blob)
        kind = rng.random()
        if kind < 0.75:
            for _ in range(rng.randint(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif kind < 0.9:
            data = data[:rng.randrange(1, len(data))]
        else:
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(0, len(data) - 1)
                struct.pack_into("<H", data, pos, rng.randrange(0x10000))
        t0 = time.time()
        try:
            decompile.decompile(bytes(data), table, vb, permissive=True)
        except SandboxError:
            pass  # structured rejection is the expected outcome
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 5.0, f"case {case_no} took {elapsed:.1f}s"
    _report(9, f"10000 mutated blobs handled, worst case {worst * 1000:.0f}ms",
            time.time() - started, 300.0)
