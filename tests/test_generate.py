from sbprof import codec, generate
from sbprof.model import Atom, validate_profile

from oracles import random_op_graph, run_roundtrip_suite


def test_generator_is_deterministic(small):
    table, vocab = small
    a = generate.ProfileGenerator(table, vocab, seed=1).generate()
    b = generate.ProfileGenerator(table, vocab, seed=1).generate()
    assert a == b
    c = generate.ProfileGenerator(table, vocab, seed=2).generate()
    assert a != c


def test_generated_profiles_always_validate(small):
    table, vocab = small
    for seed in range(50):
        p = generate.ProfileGenerator(table, vocab, seed=seed).generate()
        assert validate_profile(p, table, vocab) == []


def test_depth_limit_one_means_no_metafilters(small):
    table, vocab = small
    gen = generate.ProfileGenerator(table, vocab, seed=3, max_depth=1)
    p = gen.generate()
    for rules in p.rules.values():
        for rule in rules:
            assert rule.filter is None or isinstance(rule.filter, Atom)


def test_container_preset_hits_target_node_count(large):
    table, vocab = large
    gen = generate.ProfileGenerator(table, vocab, seed=7, scale="container")
    profile = gen.generate()
    blob = codec.compile_profile(profile, table, vocab)
    bp = codec.decode_blob(blob)
    nonterm = [r for r in bp.records if not r.is_terminal]
    assert abs(len(nonterm) - 1964) <= 196  # within ten percent
    regex_nodes = [r for r in nonterm if r.filter_key == 0x81]
    assert abs(len(regex_nodes) - 131) <= 33


def test_roundtrip_suite_on_corpus(tmp_path):
    report = tmp_path / "report.txt"
    result = run_roundtrip_suite(generate.CORPUS, range(5), report)
    assert result.ok, result.failures
    assert result.total == len(generate.CORPUS) + 5
    lines = report.read_text().splitlines()
    assert all("status=ok" in ln for ln in lines)
    phases = {ln.split()[1] for ln in lines}
    assert phases == {"phase=compile", "phase=decompile", "phase=reparse",
                      "phase=recompile", "phase=equivalence"}


def test_roundtrip_suite_reproducible(tmp_path):
    r1 = run_roundtrip_suite(generate.CORPUS[:3], range(3),
                                      tmp_path / "a.txt")
    r2 = run_roundtrip_suite(generate.CORPUS[:3], range(3),
                                      tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert r1.lines == r2.lines


def test_random_graphs_are_acyclic_and_deterministic(small):
    _table, vocab = small
    g1 = random_op_graph(4, vocab)
    g2 = random_op_graph(4, vocab)
    assert {k: (v.expr, v.match, v.unmatch) for k, v in g1.nodes.items()} == \
        {k: (v.expr, v.match, v.unmatch) for k, v in g2.nodes.items()}
    for nid, node in g1.nodes.items():
        for succ in (node.match, node.unmatch):
            if isinstance(succ, int):
                assert succ > nid  # forward edges only: acyclic by construction
