import pytest

from sbprof import cli, codec, sbpl, vocab

SAMPLE = '''(version 1)
(deny default)
(deny file-read* (literal "/bin/secret.txt"))
(allow file-read* (regex #"/bin/*"))
'''

SECOND = '''(version 1)
(deny default)
(allow signal (target self))
'''


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "sample.sb").write_text(SAMPLE)
    (tmp_path / "second.sb").write_text(SECOND)
    return tmp_path


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_compile_decompile_cycle(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    assert run("compile", workdir / "sample.sb", "-o", blob_path) == 0
    assert blob_path.exists()
    out = capsys.readouterr().out
    assert "nodes" in out and "pool" in out

    out_sb = workdir / "out.sb"
    assert run("decompile", blob_path, "-o", out_sb) == 0
    text = out_sb.read_text()
    assert sbpl.parse_sbpl(text) == sbpl.parse_sbpl(SAMPLE)


def test_compile_reports_syntax_errors(workdir, capsys):
    bad = workdir / "bad.sb"
    bad.write_text("(deny default")
    assert run("compile", bad, "-o", workdir / "x.sbbin") == 2
    assert "error" in capsys.readouterr().err


def test_eval_exit_codes(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    assert run("eval", blob_path, "--op", "file-read*",
               "path=/bin/secret.txt") == 1
    assert run("eval", blob_path, "--op", "file-read*", "path=/bin/ls") == 0
    assert run("eval", blob_path, "--op", "no-such-op", "path=/x") == 2
    # the .sb input goes through the reference evaluator
    assert run("eval", workdir / "sample.sb", "--op", "file-read*",
               "path=/bin/ls") == 0


def test_eval_context_file_and_trace(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    ctx = workdir / "ctx.txt"
    ctx.write_text("# context\npath=/bin/ls\n")
    assert run("eval", blob_path, "--op", "file-read*", "--ctx", ctx,
               "--trace") == 0
    out = capsys.readouterr().out
    assert "allow" in out
    assert "0x" in out  # trace lines carry node offsets


def test_eval_trace_on_sbpl_source(workdir, capsys):
    sample = workdir / "sample.sb"
    assert run("eval", sample, "--op", "file-read*", "path=/bin/secret.txt",
               "--trace") == 1
    assert capsys.readouterr().out.splitlines() == [
        '  (deny file-read* (literal "/bin/secret.txt"))', "deny"]
    # a rule-less operation decides by its parent's rules
    assert run("eval", sample, "--op", "file-read-data", "path=/bin/ls",
               "--trace") == 0
    assert capsys.readouterr().out.splitlines() == [
        '  (allow file-read* (regex #"/bin/*"))', "allow"]
    assert run("eval", sample, "--op", "file-read*", "path=/etc/passwd",
               "--trace") == 1
    assert capsys.readouterr().out.splitlines() == ["  (deny default)", "deny"]


def test_pack_unpack_round_trip(workdir, capsys, small):
    table, vb = small
    bundle = workdir / "both.sbbundle"
    assert run("pack", workdir / "sample.sb", workdir / "second.sb",
               "-o", bundle) == 0
    outdir = workdir / "unpacked"
    assert run("unpack", bundle, "-o", outdir) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["sample.sbbin", "second.sbbin"]
    expect = codec.compile_profile(sbpl.parse_sbpl(SAMPLE), table, vb)
    assert (outdir / "sample.sbbin").read_bytes() == expect


def test_unpack_separated_fails(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    assert run("unpack", blob_path, "-o", workdir / "nope") == 2
    assert "0x8000" in capsys.readouterr().err


def test_unpack_scan_reports_offset(workdir, capsys):
    bundle = workdir / "both.sbbundle"
    run("pack", workdir / "sample.sb", workdir / "second.sb", "-o", bundle)
    padded = workdir / "padded.bin"
    padded.write_bytes(b"\x55" * 256 + bundle.read_bytes())
    assert run("unpack", padded, "-o", workdir / "scanned", "--scan") == 0
    assert "offset 256" in capsys.readouterr().out


def test_decompile_bundle_to_directory(workdir, capsys):
    bundle = workdir / "both.sbbundle"
    run("pack", workdir / "sample.sb", workdir / "second.sb", "-o", bundle)
    outdir = workdir / "sb"
    assert run("decompile", bundle, "-o", outdir) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["sample.sb", "second.sb"]
    assert sbpl.parse_sbpl((outdir / "second.sb").read_text()) == \
        sbpl.parse_sbpl(SECOND)


def test_decompile_with_implicit_cleanup(workdir, capsys, small, implicit_rules):
    from sbprof.decompile import inject_implicit

    table, vb = small
    src = sbpl.parse_sbpl(SAMPLE)
    injected = inject_implicit(src, implicit_rules)
    blob = codec.compile_profile(injected, table, vb)
    blob_path = workdir / "std.sbbin"
    blob_path.write_bytes(blob)
    out = workdir / "std.sb"
    assert run("decompile", blob_path, "-o", out,
               "--implicit", vocab.implicit_rules_path()) == 0
    assert "(allow signal" not in out.read_text()


def test_graph_counts(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    dot = workdir / "g.dot"
    assert run("graph", blob_path, "--op", "file-read*", "-o", dot) == 0
    out = capsys.readouterr().out
    assert "2 filter nodes, 4 edges" in out
    assert "style=dashed" in dot.read_text()


def test_graph_decode_failure(workdir, capsys):
    bad = workdir / "bad.sbbin"
    bad.write_bytes(b"\x00\x00\x01")
    assert run("graph", bad, "--op", "file-read*") == 2


def test_diff_exit_codes(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    assert run("diff", workdir / "sample.sb", workdir / "sample.sb") == 0
    # cross-format comparison
    assert run("diff", workdir / "sample.sb", blob_path) == 0
    assert run("diff", workdir / "sample.sb", workdir / "second.sb") == 1
    out = capsys.readouterr().out
    assert "only in" in out
    assert run("diff", workdir / "sample.sb", workdir / "missing.sb") == 2


def test_vocab_env_variable(workdir, capsys, monkeypatch):
    monkeypatch.setenv("SBX_VOCAB", "large")
    blob_path = workdir / "sample.sbbin"
    assert run("compile", workdir / "sample.sb", "-o", blob_path) == 0
    assert codec.decode_blob(blob_path.read_bytes()).op_count == 125


def test_decompile_deterministic_output(workdir):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    a, b = workdir / "a.sb", workdir / "b.sb"
    run("decompile", blob_path, "-o", a, "--no-verify")
    run("decompile", blob_path, "-o", b, "--no-verify")
    assert a.read_text() == b.read_text()
