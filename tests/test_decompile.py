import struct
import time

import pytest

from sbprof import cli, codec, decompile, evaluate, generate, nfa, rex, sbpl
from sbprof.decompile import (
    GraphNode,
    OpGraph,
    aggregate,
    build_graph,
    cleanup,
    dot_graph,
    emit_rules,
    inject_implicit,
    normalize_graph,
)
from sbprof.errors import (
    CycleDetected,
    DecompileError,
    IrreducibleGraph,
    MalformedBlob,
    TooManyStates,
)
from sbprof.evaluate import build_universe
from sbprof.model import (
    Atom,
    Decision,
    RequireAll,
    RequireAny,
    RequireNot,
    Rule,
    ValueForm,
    canonicalize,
)

from oracles import (
    check_match_graph,
    dense_program,
    exhaustive_contexts,
    expr_matches,
    forward_jump_nest,
    random_op_graph,
)

ALLOW, DENY = Decision.ALLOW, Decision.DENY

A = Atom("literal", "/a", ValueForm.STRING)
B = Atom("vnode-type", "REGULAR-FILE", ValueForm.SYMBOL)
C = Atom("literal", "/c", ValueForm.STRING)

SIBLINGS = '''(deny default)
(allow file-read*
    (regex #"/bin/*")
    (vnode-type REGULAR-FILE))
'''


def graph_verdict(g, ctx, vocab):
    cur = g.entry
    steps = 0
    while not isinstance(cur, Decision):
        assert steps <= len(g.nodes), "walk is not acyclic"
        node = g.nodes[cur]
        cur = node.match if expr_matches(node.expr, ctx, vocab) else node.unmatch
        steps += 1
    return cur


def graph_contexts(g, vocab):
    triples = []
    for node in g.nodes.values():
        from sbprof.model import expr_atoms

        for atom in expr_atoms(node.expr):
            entry = vocab.by_name(atom.key)
            triples.append((entry.context_key, entry.kind, atom.value))
    return list(exhaustive_contexts(build_universe(triples, vocab)))


def test_build_graph_two_node_shape(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    bp = codec.decode_blob(blob)
    g = build_graph(bp, table.index("file-read*"), vocab)
    assert len(g.nodes) == 2
    entry = g.nodes[g.entry]
    assert entry.expr.key == "regex"
    assert entry.match is ALLOW
    follow = g.nodes[entry.unmatch]
    assert follow.expr.key == "vnode-type"
    assert follow.match is ALLOW and follow.unmatch is DENY


def test_build_graph_terminal_entry(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl("(deny default)"), table, vocab)
    bp = codec.decode_blob(blob)
    g = build_graph(bp, table.index("signal"), vocab)
    assert g.entry is DENY and g.nodes == {}


def test_build_graph_detects_cycles(small):
    table, vocab = small
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab))
    bp = codec.decode_blob(bytes(blob))
    op = table.index("file-read*")
    first = bp.record_at(bp.op_pointers[op])
    second = bp.record_at(first.unmatch_offset)
    # the second node's unmatch edge loops back to the first
    struct.pack_into("<H", blob, second.unit * 8 + 6, first.unit)
    with pytest.raises(CycleDetected):
        build_graph(codec.decode_blob(bytes(blob)), op, vocab)


@pytest.mark.parametrize("match,unmatch,negated", [
    (ALLOW, DENY, False),
    (DENY, ALLOW, True),
    (ALLOW, 1, False),
    (DENY, 1, True),
    (1, ALLOW, True),
    (1, DENY, False),
])
def test_normalize_single_rows(small, match, unmatch, negated):
    _table, vocab = small
    nodes = {0: GraphNode(A, match, unmatch)}
    if 1 in (match, unmatch):
        nodes[1] = GraphNode(B, ALLOW, DENY)
    g = normalize_graph(OpGraph(nodes=nodes, entry=0), DENY)
    check_match_graph(g)
    got = g.nodes[0]
    if negated:
        assert got.expr == RequireNot(A)
        assert (got.match, got.unmatch) == (unmatch, match)
    else:
        assert got.expr == A
        assert (got.match, got.unmatch) == (match, unmatch)


def test_normalize_is_idempotent(small):
    _table, vocab = small
    g = OpGraph(nodes={0: GraphNode(A, DENY, 1), 1: GraphNode(B, ALLOW, DENY)},
                entry=0)
    once = normalize_graph(g, DENY)
    twice = normalize_graph(once, DENY)
    assert {k: (v.expr, v.match, v.unmatch) for k, v in once.nodes.items()} == \
        {k: (v.expr, v.match, v.unmatch) for k, v in twice.nodes.items()}


def test_normalize_splices_constant_nodes(small):
    _table, vocab = small
    g = OpGraph(nodes={0: GraphNode(A, 1, 1), 1: GraphNode(B, ALLOW, DENY)},
                entry=0)
    out = normalize_graph(g, DENY)
    assert out.entry == 1 and 0 not in out.nodes
    # splicing node 2 leaves node 1 constant, and then node 0: the whole
    # chain collapses onto node 3, which references to 0, 1 and 2 now reach
    g = OpGraph(nodes={0: GraphNode(A, 1, 3), 1: GraphNode(B, 2, 3),
                       2: GraphNode(A, 3, 3), 3: GraphNode(B, ALLOW, DENY),
                       4: GraphNode(A, 0, 2)},
                entry=0)
    out = normalize_graph(g, DENY)
    assert out.entry == 3 and sorted(out.nodes) == [3]


def test_normalize_terminates_on_a_hand_built_cycle():
    # build_graph rejects a cycle, but a graph built by hand can hold one
    g = OpGraph(nodes={0: GraphNode(A, 1, DENY), 1: GraphNode(B, 0, ALLOW)},
                entry=0)
    out = normalize_graph(g, DENY)
    assert out.entry == 0
    assert {k: (v.expr, v.match, v.unmatch) for k, v in out.nodes.items()} == \
        {0: (A, 1, DENY), 1: (RequireNot(B), ALLOW, 0)}


def test_normalize_preserves_verdicts_on_random_graphs(small):
    _table, vocab = small
    for seed in range(300):
        g = random_op_graph(seed, vocab)
        ng = normalize_graph(g, DENY)
        check_match_graph(ng)
        for ctx in graph_contexts(g, vocab):
            assert graph_verdict(g, ctx, vocab) == graph_verdict(ng, ctx, vocab), seed


def test_normalize_allow_default_orientation(small):
    _table, vocab = small
    g = OpGraph(nodes={0: GraphNode(A, ALLOW, DENY)}, entry=0)
    ng = normalize_graph(g, ALLOW)
    check_match_graph(ng)
    node = ng.nodes[0]
    assert node.expr == RequireNot(A)
    assert (node.match, node.unmatch) == (DENY, ALLOW)


def test_aggregate_nested_reference_graph(small):
    # A gates an alternative pair: one negated branch, one plain branch
    _table, vocab = small
    g = OpGraph(nodes={
        0: GraphNode(A, 1, DENY),
        1: GraphNode(B, 2, ALLOW),
        2: GraphNode(C, ALLOW, DENY),
    }, entry=0)
    expr = aggregate(normalize_graph(g, DENY))
    want = RequireAll((A, RequireAny((RequireNot(B), C))))
    assert canonicalize(expr, vocab) == canonicalize(want, vocab)


def test_aggregate_single_node(small):
    _table, vocab = small
    g = OpGraph(nodes={0: GraphNode(A, ALLOW, DENY)}, entry=0)
    assert aggregate(normalize_graph(g, DENY)) == A


def test_aggregate_unconditional_entry(small):
    g = OpGraph(nodes={}, entry=ALLOW)
    assert aggregate(normalize_graph(g, DENY)) is None


def test_aggregate_divergent_branches(small):
    # match and unmatch both lead to reduced non-terminals: needs the
    # if-then-else expansion
    _table, vocab = small
    g = OpGraph(nodes={
        0: GraphNode(A, 1, 2),
        1: GraphNode(B, ALLOW, DENY),
        2: GraphNode(C, ALLOW, DENY),
    }, entry=0)
    ng = normalize_graph(g, DENY)
    expr = aggregate(ng)
    want = RequireAny((RequireAll((A, B)), RequireAll((RequireNot(A), C))))
    assert canonicalize(expr, vocab) == canonicalize(want, vocab)
    for ctx in graph_contexts(g, vocab):
        assert (graph_verdict(g, ctx, vocab) is ALLOW) == \
            expr_matches(expr, ctx, vocab)


def test_aggregate_shared_node_duplicates_expression(small):
    # node 2 is reachable from both branches; aggregation must clone it
    _table, vocab = small
    g = OpGraph(nodes={
        0: GraphNode(A, 1, 2),
        1: GraphNode(B, ALLOW, 2),
        2: GraphNode(C, ALLOW, DENY),
    }, entry=0)
    ng = normalize_graph(g, DENY)
    expr = aggregate(ng)
    for ctx in graph_contexts(g, vocab):
        assert (graph_verdict(g, ctx, vocab) is ALLOW) == \
            expr_matches(expr, ctx, vocab), ctx


def test_aggregate_requires_normalized_graph():
    g = OpGraph(nodes={0: GraphNode(A, ALLOW, DENY)}, entry=0)
    with pytest.raises(IrreducibleGraph):
        aggregate(g)


@pytest.mark.parametrize("nodes, entry, message", [
    ({0: GraphNode(A, 1, DENY), 1: GraphNode(B, 0, ALLOW)}, 0,
     'residual graph with 2 nodes cannot be reduced\n'
     'entry: 0\n'
     '  0: (literal "/a") match->1 unmatch->deny\n'
     '  1: (vnode-type REGULAR-FILE) match->0 unmatch->allow'),
    ({0: GraphNode(A, ALLOW, 1), 1: GraphNode(B, 0, DENY)}, 0,
     'residual graph with 2 nodes cannot be reduced\n'
     'entry: 0\n'
     '  0: (literal "/a") match->allow unmatch->1\n'
     '  1: (vnode-type REGULAR-FILE) match->0 unmatch->deny'),
    ({}, DENY, "entry is the failure terminal; nothing to emit"),
], ids=["cycle-on-match", "cycle-on-unmatch", "failure-entry"])
def test_aggregate_reports_what_it_cannot_reduce(nodes, entry, message):
    # build_graph rejects a cycle, but a graph built by hand can hold one;
    # the error carries the residual graph as _dump_graph prints it
    with pytest.raises(IrreducibleGraph) as info:
        aggregate(OpGraph(nodes=nodes, entry=entry, default=DENY))
    assert str(info.value) == message
    assert info.value.residual == message.partition("\n")[2]


def test_aggregation_preserves_semantics_on_random_graphs(small):
    _table, vocab = small
    for seed in range(150):
        g = random_op_graph(seed, vocab, max_nodes=10)
        ng = normalize_graph(g, DENY)
        if isinstance(ng.entry, Decision):
            continue
        expr = aggregate(ng)
        for ctx in graph_contexts(g, vocab):
            want = graph_verdict(g, ctx, vocab) is ALLOW
            got = True if expr is None else expr_matches(expr, ctx, vocab)
            assert got == want, (seed, ctx)


def test_emit_rules_round_trip(small):
    table, vocab = small
    profile = sbpl.parse_sbpl(SIBLINGS)
    blob = codec.compile_profile(profile, table, vocab)
    emitted, errors = emit_rules(codec.decode_blob(blob), table, vocab)
    assert not errors
    assert emitted.default_decision is DENY
    assert set(emitted.rules) == {"file-read*"}
    report = evaluate.check_equivalence(profile, emitted, table, vocab)
    assert report.equivalent


def test_emit_rules_all_default(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl("(deny default)"), table, vocab)
    emitted, _ = emit_rules(codec.decode_blob(blob), table, vocab)
    assert emitted.rules == {}
    assert emitted.default_decision is DENY


def test_emit_rules_deny_exceptions_come_first(small):
    table, vocab = small
    src = sbpl.parse_sbpl(
        '(deny default)\n'
        '(deny file-read* (literal "/bin/secret.txt"))\n'
        '(allow file-read* (regex #"/bin/*"))')
    blob = codec.compile_profile(src, table, vocab)
    emitted, _ = emit_rules(codec.decode_blob(blob), table, vocab)
    rules = emitted.rules["file-read*"]
    assert rules[0].decision is DENY
    assert rules[1].decision is ALLOW


def test_emit_rules_permissive_collects_errors(small):
    table, vocab = small
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab))
    bp = codec.decode_blob(bytes(blob))
    op = table.index("file-read*")
    unit = bp.op_pointers[op]
    blob[unit * 8 + 1] = 0x77  # unknown filter key code
    with pytest.raises(DecompileError):
        emit_rules(codec.decode_blob(bytes(blob)), table, vocab)
    emitted, errors = emit_rules(codec.decode_blob(bytes(blob)), table, vocab,
                                 permissive=True)
    assert errors and errors[0].operation == "file-read*"
    text = decompile.decompile(bytes(blob), table, vocab, permissive=True)
    assert "unreversed file-read*" in text


def test_decompile_round_trip_fixed_point(small, large):
    tables = {"small": small, "large": large}
    for case in generate.CORPUS:
        table, vocab = tables[case.vocab]
        blob = codec.compile_profile(sbpl.parse_sbpl(case.sbpl_text), table, vocab)
        once = decompile.decompile(blob, table, vocab)
        blob2 = codec.compile_profile(sbpl.parse_sbpl(once), table, vocab)
        twice = decompile.decompile(blob2, table, vocab)
        assert once == twice, case.name


def test_cleanup_strips_injected_rules(small, implicit_rules):
    table, vocab = small
    src = sbpl.parse_sbpl(
        '(deny default)\n(allow file-read* (regex #"/bin/*"))\n(allow mach-lookup)')
    injected = inject_implicit(src, implicit_rules)
    assert "signal" in injected.rules
    blob = codec.compile_profile(injected, table, vocab)
    emitted, _ = emit_rules(codec.decode_blob(blob), table, vocab)
    cleaned = cleanup(emitted, implicit_rules, table, vocab)
    assert "signal" not in cleaned.rules
    report = evaluate.check_equivalence(src, cleaned, table, vocab)
    assert report.equivalent


def test_cleanup_keeps_unrelated_profiles_unchanged(small, implicit_rules):
    table, vocab = small
    src = sbpl.parse_sbpl('(deny default)\n(allow file-read* (literal "/x"))')
    blob = codec.compile_profile(src, table, vocab)
    emitted, _ = emit_rules(codec.decode_blob(blob), table, vocab)
    cleaned = cleanup(emitted, implicit_rules, table, vocab)
    assert evaluate.check_equivalence(src, cleaned, table, vocab).equivalent
    assert set(cleaned.rules) == {"file-read*"}


def test_cleanup_never_breaks_verdicts(small, implicit_rules):
    # a user rule that coincides with an implicit one may go, but only
    # because re-injection restores it
    table, vocab = small
    src = sbpl.parse_sbpl('(deny default)\n(allow signal (target self))')
    blob = codec.compile_profile(src, table, vocab)
    emitted, _ = emit_rules(codec.decode_blob(blob), table, vocab)
    cleaned = cleanup(emitted, implicit_rules, table, vocab)
    merged = inject_implicit(cleaned, implicit_rules)
    assert evaluate.check_equivalence(emitted, merged, table, vocab).equivalent


def test_injected_unconditional_rule_replaces_the_operations_rules(small,
                                                                 implicit_rules):
    table, vocab = small
    src = sbpl.parse_sbpl('(deny default)\n(allow mach-lookup)\n'
                          '(deny mach-bootstrap (global-name "a"))\n'
                          '(allow file-read* (literal "/x"))\n')
    injected = inject_implicit(src, implicit_rules)
    assert injected.rules["mach-bootstrap"] == (Rule(ALLOW, None),)
    assert injected.rules["file-read*"] is src.rules["file-read*"]
    assert src.rules["mach-bootstrap"][0].decision is DENY  # left as it was
    blob = codec.compile_profile(injected, table, vocab)
    assert evaluate.check_equivalence(injected, blob, table, vocab).equivalent


def test_injected_profiles_compile_and_decide_alike(cleanup_cases, implicit_rules,
                                                    large):
    # the law behind cleanup: every injected profile compiles, and its blob
    # decides as it does (exhaustively at small scale, 400 samples at
    # container scale)
    cases = [(*case, "exhaustive") for case in cleanup_cases]
    cases += [(f"container-{seed}",
               generate.ProfileGenerator(*large, seed=seed,
                                         scale="container").generate(),
               *large, "sampled") for seed in range(10)]
    for name, profile, table, voc, mode in cases:
        injected = inject_implicit(profile, implicit_rules)
        blob = codec.compile_profile(injected, table, voc)
        report = evaluate.check_equivalence(injected, blob, table, voc,
                                            mode=mode, samples=400)
        assert report.equivalent, (name, str(report))


def test_pruned_cleanup_checks_agree_with_full_checks(cleanup_cases,
                                                      implicit_rules, monkeypatch):
    # every cleanup trial checks only the operations it changed; a full
    # check over every operation must reach the same decision
    full_check = evaluate.check_equivalence
    outcomes = []

    def both(a, b, table, vocab, ops=None):
        pruned = full_check(a, b, table, vocab, ops=ops)
        full = full_check(a, b, table, vocab)
        assert pruned.equivalent == full.equivalent, (ops, str(pruned), str(full))
        outcomes.append(pruned.equivalent)
        return pruned

    monkeypatch.setattr(decompile, "check_equivalence", both)
    for name, profile, table, voc in cleanup_cases:
        blob = codec.compile_profile(inject_implicit(profile, implicit_rules),
                                     table, voc)
        decompile.decompile(blob, table, voc, implicit=implicit_rules)
    assert len(outcomes) > 400
    assert outcomes.count(False) >= 4  # rejected trials are covered too


def test_dot_graph_shape(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab)
    bp = codec.decode_blob(blob)
    text, n_nodes, n_edges = dot_graph(bp, table.index("file-read*"), vocab,
                                       "file-read*")
    assert n_nodes == 2 and n_edges == 4
    assert text.count("penwidth=2") == 2  # both terminals, thick borders
    assert text.count("style=dashed") == 2
    assert "digraph" in text


def test_dot_graph_default_only(small):
    table, vocab = small
    blob = codec.compile_profile(sbpl.parse_sbpl("(deny default)"), table, vocab)
    text, n_nodes, n_edges = dot_graph(codec.decode_blob(blob),
                                       table.index("signal"), vocab, "signal")
    assert n_nodes == 0 and n_edges == 0
    assert "t_deny" in text


@pytest.mark.parametrize("index", [16, -1, 0xFFFF])
@pytest.mark.parametrize("reader", [build_graph, dot_graph])
def test_graph_readers_reject_an_operation_index_out_of_range(small, reader, index):
    table, vocab = small
    bp = codec.decode_blob(codec.compile_profile(sbpl.parse_sbpl(SIBLINGS), table, vocab))
    with pytest.raises(MalformedBlob) as info:
        reader(bp, index, vocab)
    assert str(info.value) == \
        f"bad profile blob at byte 0: operation index {index} out of range"


def test_regex_with_an_unreachable_accept_matches_nothing(small):
    # a regex program whose "a" leads to a dead end, a class with no
    # ranges, so its accept node cannot be reached: reversal prints the
    # empty language as the negated class of every byte, and that text
    # recompiles to the same verdicts
    table, vocab = small
    source = '(deny default)\n(allow file-read* (regex #"ab"))'
    blob = bytearray(codec.compile_profile(sbpl.parse_sbpl(source), table, vocab))
    at = codec.decode_blob(bytes(blob)).pool_pointers[0] * 8
    dead = bytes((3, 0, nfa.TAG_CHAR, ord("a"), 0, nfa.TAG_CLASS, 0, nfa.TAG_ACCEPT, 0, 0))
    blob[at:at + len(dead)] = dead
    text = decompile.decompile(bytes(blob), table, vocab)
    assert text.splitlines()[-1] == '(allow file-read* (regex #"[^\x00-\xff]"))'
    recompiled = codec.compile_profile(sbpl.parse_sbpl(text), table, vocab)
    report = evaluate.check_equivalence(bytes(blob), recompiled, table, vocab)
    assert report.equivalent, str(report)


def _regex_blob(table, vocab, program):
    """The blob of an allow-file-read* rule on one regex, with program in
    place of that regex's program, which ends the blob."""
    source = '(deny default)\n(allow file-read* (regex #"a"))'
    blob = codec.compile_profile(sbpl.parse_sbpl(source), table, vocab)
    return blob[:codec.decode_blob(blob).pool_pointers[0] * 8] + program


def test_forward_jump_nest_blob_is_refused_not_crashed(small, tmp_path, capsys):
    # a 1,569-byte blob whose one regex program nests 250 forward jumps:
    # its reversal is 499 levels deep, and counting its leaves recursed
    # past Python's limit even when permissive
    table, vocab = small
    blob = _regex_blob(table, vocab, forward_jump_nest(250))
    assert len(blob) == 1569
    with pytest.raises(DecompileError) as info:
        decompile.decompile(blob, table, vocab)
    assert isinstance(info.value.cause, TooManyStates)
    text = decompile.decompile(blob, table, vocab, permissive=True)
    assert "; unreversed file-read*: reversed pattern nests 499 levels deep" in text
    path = tmp_path / "nest.sbbin"
    path.write_bytes(blob)
    assert cli.main(["decompile", str(path), "-o", str(tmp_path / "nest.sb")]) == 2
    assert capsys.readouterr().err.startswith("error: operation 'file-read*': ")


def test_emit_rules_rejects_table_size_mismatch(small, large):
    from sbprof.errors import MalformedBlob

    table_s, vocab_s = small
    table_l, vocab_l = large
    blob = codec.compile_profile(sbpl.parse_sbpl("(deny default)"), table_s, vocab_s)
    with pytest.raises(MalformedBlob):
        emit_rules(codec.decode_blob(blob), table_l, vocab_l)


def test_deep_child_first_parent_chain_round_trips():
    from sbprof import vocab

    # op1 is the root; every later operation is listed before its parent
    depth = 6000
    lines = ["version deep", "operation default"]
    lines += [f"operation op{i} parent=op{i - 1}" for i in range(depth, 1, -1)]
    lines += ["operation op1", "filter literal code=0x01 kind=literal_string ctx=path"]
    started = time.perf_counter()
    table, voc = vocab.parse_vocabulary("\n".join(lines) + "\n")
    profile = sbpl.parse_sbpl('(deny default)\n(allow op1 (literal "/a"))\n'
                              '(allow op1500 (literal "/b"))\n')
    blob = codec.compile_profile(profile, table, voc)
    text = decompile.decompile(blob, table, voc)
    assert codec.compile_profile(sbpl.parse_sbpl(text), table, voc) == blob
    ast_ev = evaluate.AstEvaluator(profile, table, voc)
    blob_ev = evaluate.BlobEvaluator(blob, table, voc)
    for ctx in (evaluate.QueryContext(), evaluate.QueryContext({"path": "/b"})):
        for op in table.entries:
            assert ast_ev.verdict(op, ctx) == blob_ev.verdict(op, ctx), (op, ctx)
    assert time.perf_counter() - started < 2.0


def test_nested_star_rule_at_group_limit_decompiles(small):
    # state elimination shares subtrees between the regexes it builds, so
    # a rewrite pass that walked the result as a tree took time exponential
    # in the nesting depth (3.6 s at 16 levels)
    table, vocab = small
    depth = rex.MAX_GROUP_NESTING
    pattern = "(" * depth + "a" + ")*" * depth
    profile = sbpl.parse_sbpl(
        f'(version 1)\n(deny default)\n(allow file-read* (regex #"{pattern}"))\n')
    blob = codec.compile_profile(profile, table, vocab)
    started = time.perf_counter()
    text = decompile.decompile(blob, table, vocab)
    assert time.perf_counter() - started < 2.0
    assert evaluate.check_equivalence(profile, sbpl.parse_sbpl(text), table,
                                      vocab).equivalent


def test_nested_alternation_reversal_stops_at_node_limit(small):
    # (a|b(a|b...x...c)*c)*: removing states in index order printed text
    # about 6-fold longer per level, 9,241,402 leaves at 8 levels; in
    # degree order each level adds a few characters. The complete graph on
    # 12 states still reverses to 4,194,303 leaves, and each leaf would
    # need a wire record, so it could never compile back
    table, vocab = small
    for depth in (4, 8):
        pattern = "x"
        for _ in range(depth):
            pattern = "(a|b" + pattern + "c)*"
        profile = sbpl.parse_sbpl(
            f'(version 1)\n(deny default)\n(allow file-read* (regex #"{pattern}"))\n')
        text = decompile.decompile(codec.compile_profile(profile, table, vocab), table, vocab)
        assert evaluate.check_equivalence(profile, sbpl.parse_sbpl(text), table,
                                          vocab).equivalent

    blob = _regex_blob(table, vocab, dense_program(12))
    started = time.perf_counter()
    with pytest.raises(DecompileError) as info:
        decompile.decompile(blob, table, vocab)
    assert isinstance(info.value.cause, TooManyStates)
    text = decompile.decompile(blob, table, vocab, permissive=True)
    assert "; unreversed file-read*: reversed pattern has 4194303 leaves" in text
    assert time.perf_counter() - started < 1.0


def test_long_literal_regex_round_trips(small):
    # compile accepts a 4,100-letter literal, a 4,104-state program, which
    # a cap of 4,096 states on reversal refused; its reversal takes 4,104
    # glue steps
    table, vocab = small
    for letters in (3000, 4100):
        literal = "".join(chr(97 + i % 26) for i in range(letters))
        profile = sbpl.parse_sbpl(
            f'(version 1)\n(deny default)\n(allow file-read* (regex #"^/{literal}$"))\n')
        blob = codec.compile_profile(profile, table, vocab)
        text = decompile.decompile(blob, table, vocab)
        assert codec.compile_profile(sbpl.parse_sbpl(text), table, vocab) == blob


def test_nested_alternation_text_compiles_back(small):
    # the 242-byte blob decompiled in index order to 114,158 characters,
    # more than 65,535 serialized nodes to compile; the outcome does not
    # depend on timing
    table, vocab = small
    pattern = "x"
    for _ in range(5):
        pattern = "(a|b" + pattern + "c)*"
    profile = sbpl.parse_sbpl(
        f'(version 1)\n(deny default)\n(allow file-read* (regex #"{pattern}"))\n')
    blob = codec.compile_profile(profile, table, vocab)
    text = decompile.decompile(blob, table, vocab)
    recompiled = codec.compile_profile(sbpl.parse_sbpl(text), table, vocab)
    assert evaluate.check_equivalence(profile, recompiled, table, vocab).equivalent


def _ladder_blob(table, nodes):
    """file-read* over `nodes` target filters, two per level: node 0's
    unmatch edge leads to node 1, and both nodes of a level lead to both
    nodes of the next (match to the first, unmatch to the second)."""
    op_count = len(table)
    head = 6 + 2 * op_count
    node_start = (head + 7) & ~7
    base = node_start // 8
    allow, deny = base + nodes, base + nodes + 1
    records = []
    for i in range(nodes):
        level = i // 2
        if level == nodes // 2 - 1:
            match, unmatch = allow, deny
        else:
            match, unmatch = base + 2 * level + 2, base + 2 * level + 3
        if i == 0:
            unmatch = base + 1
        records.append((0x00, 0x0e, 1 + i % 2, match, unmatch))
    records += [(0x01, 0x01, 0, 0, 0), (0x01, 0x00, 0, 0, 0)]
    pointers = [deny] * op_count
    pointers[table.index("file-read*")] = base
    out = [struct.pack("<HHH", 0x0000, 0, op_count),
           struct.pack(f"<{op_count}H", *pointers), b"\x00" * (node_start - head)]
    out += [struct.pack("<BBHHH", *rec) for rec in records]
    return b"".join(out)


def test_ladder_graph_stops_at_expansion_budget(small):
    # aggregation shares the two nodes of each level between both nodes of
    # the level above, and written out the expression doubles with every
    # level: without a budget 24 nodes print 1,232,229 characters
    table, vocab = small
    blob = _ladder_blob(table, 12)
    text = decompile.decompile(blob, table, vocab)
    assert evaluate.check_equivalence(blob, codec.compile_profile(
        sbpl.parse_sbpl(text), table, vocab), table, vocab).equivalent

    blob = _ladder_blob(table, 28)
    started = time.perf_counter()
    with pytest.raises(DecompileError) as info:
        decompile.decompile(blob, table, vocab)
    assert isinstance(info.value.cause, IrreducibleGraph)
    assert "budget" in str(info.value.cause)
    text = decompile.decompile(blob, table, vocab, permissive=True)
    assert "; unreversed file-read*: expression expands to" in text
    assert time.perf_counter() - started < 1.0
