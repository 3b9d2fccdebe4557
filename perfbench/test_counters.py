"""Self-test of the traced run's counters.

    python3 perfbench/test_counters.py        # or: python -m pytest perfbench

Checks that the counters agree with what the program returns, that tracing
changes no output, and that every count repeats exactly across two traced
runs of one seed.
"""

import sys

from run import import_program

import_program()

import pytest  # noqa: E402

import spans  # noqa: E402
from run import traced_run  # noqa: E402
from sbprof import codec, decompile, evaluate, generate, sbpl, vocab  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def large():
    return vocab.load_builtin("large")


@pytest.fixture(scope="module")
def container_blobs(large):
    table, vocab_ = large
    return [codec.compile_profile(
        generate.ProfileGenerator(table, vocab_, seed=s, scale="container").generate(),
        table, vocab_) for s in (1, 2)]


def test_install_reaches_aliases_and_uninstall_restores():
    before = (evaluate.check_equivalence, decompile.check_equivalence,
              decompile.decode_blob, evaluate.decode_blob, decompile.print_sbpl,
              evaluate.BlobEvaluator.verdict, evaluate.AstEvaluator.verdict)
    with spans.Tracer():
        assert decompile.check_equivalence is evaluate.check_equivalence
        assert decompile.check_equivalence is not before[0]
        assert decompile.decode_blob is codec.decode_blob is evaluate.decode_blob
        assert decompile.decode_blob is not before[2]
        assert decompile.print_sbpl is sbpl.print_sbpl is not before[4]
        assert evaluate.BlobEvaluator.verdict is not before[5]
    after = (evaluate.check_equivalence, decompile.check_equivalence,
             decompile.decode_blob, evaluate.decode_blob, decompile.print_sbpl,
             evaluate.BlobEvaluator.verdict, evaluate.AstEvaluator.verdict)
    assert after == before


def test_records_decoded_matches_decode(large, container_blobs):
    table, vocab_ = large
    expected = 0
    tracer = spans.Tracer()
    with tracer:
        for blob in container_blobs:
            codec.decode_blob(blob)                        # direct call
            evaluate.BlobEvaluator(blob, table, vocab_)    # through the alias
    for blob in container_blobs:
        expected += 2 * len(codec.decode_blob(blob).records)
    metrics = tracer.layer_metrics(scale=1.0)
    assert metrics["codec.records_decoded"][0] == expected
    assert metrics["codec.decode_blob.calls"][0] == 2 * len(container_blobs)


def test_equivalence_checks_sum_to_reports(large, container_blobs):
    table, vocab_ = large
    small = vocab.load_builtin("small")
    tracer = spans.Tracer()
    reports = []
    with tracer:
        for seed in range(6):
            profile = generate.ProfileGenerator(*small, seed=seed).generate()
            blob = codec.compile_profile(profile, *small)
            reports.append(evaluate.check_equivalence(profile, blob, *small))
        reports.append(evaluate.check_equivalence(
            container_blobs[0], container_blobs[0], table, vocab_,
            mode="sampled", samples=200))
    metrics = tracer.layer_metrics(scale=1.0)
    assert metrics["evaluate.check_equivalence.checks"][0] == \
        sum(r.checked for r in reports)
    assert metrics["evaluate.check_equivalence.calls"][0] == len(reports)


def test_traced_verdicts_equal_untraced(large, container_blobs):
    table, vocab_ = large
    profile = generate.ProfileGenerator(table, vocab_, seed=1,
                                        scale="container").generate()
    universe = evaluate.build_universe(
        evaluate.collect_atoms(profile, table, vocab_), vocab_)
    contexts = list(evaluate.sampled_contexts(universe, 3, 40))
    ops = [op for op in table.entries if op != "default"]
    queries = [(op, ctx) for ctx in contexts for op in ops[::7]]

    def answers():
        blob_ev = evaluate.BlobEvaluator(container_blobs[0], table, vocab_)
        ast_ev = evaluate.AstEvaluator(profile, table, vocab_)
        return [(blob_ev.verdict(op, ctx), ast_ev.verdict(op, ctx))
                for op, ctx in queries]

    plain = answers()
    tracer = spans.Tracer()
    with tracer:
        traced = answers()
    assert traced == plain
    calls = tracer.layer_metrics(scale=1.0)["evaluate.verdict.calls"][0]
    assert calls == 2 * len(queries)


@pytest.mark.parametrize("workload,count", [("container", 2), ("roundtrip", 30),
                                            ("query", 3000)])
def test_counts_repeat_across_traced_runs(workload, count):
    runs = [traced_run(workload, SEED, 1, count=count)[0] for _ in range(2)]
    for result in runs:
        assert result["correct"], result["notes"]
        assert result["details"]["traced_outputs_match"][0] == 1
    counts = [{k: v for k, (v, unit) in r["metrics"].items() if unit == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["metrics"]["evaluate.verdict.calls"][0] > 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
