import os

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


@pytest.mark.parametrize("command, suffix", [("unpack", ".sbbin"),
                                             ("decompile", ".sb")])
def test_profiles_sharing_a_file_name_are_refused(workdir, capsys, small,
                                                  command, suffix):
    # "a?b" and "a_b" both map to a_b: nothing is written, and the error
    # names both profiles and the file
    table, vb = small
    profiles = [sbpl.parse_sbpl(SECOND, name=name) for name in ("a?b", "a_b")]
    bundle = workdir / "clash.sbbundle"
    bundle.write_bytes(codec.pack_bundle(profiles, table, vb))
    outdir = workdir / "out"
    assert run(command, bundle, "-o", outdir) == 2
    assert capsys.readouterr().err == (
        f"error: profiles 'a?b' and 'a_b' would both be written to "
        f"{outdir / ('a_b' + suffix)}\n")
    assert not outdir.exists()


NUMBERS_AND_ENDPOINTS = '''(version 1)
(deny default)
(allow file-read* (file-mode 438))
(allow network-outbound (remote tcp "localhost:22"))
'''


@pytest.mark.parametrize("op, binding, code", [
    ("file-read*", "file-mode=0o666", 0),
    ("file-read*", "file-mode=438", 0),
    ("file-read*", "file-mode=0o644", 1),
    ("file-read*", "file-mode=rw", 1),  # not a number: bound as text
    ("network-outbound", "remote=tcp localhost:22", 0),
    ("network-outbound", "remote=udp localhost:22", 1),
    ("network-outbound", "remote=localhost:22", 1),  # no protocol: text
])
def test_eval_reads_numeric_and_endpoint_bindings(workdir, capsys, op,
                                                  binding, code):
    source = workdir / "numbers.sb"
    source.write_text(NUMBERS_AND_ENDPOINTS)
    blob = workdir / "numbers.sbbin"
    assert run("compile", source, "-o", blob, "--vocab", "large") == 0
    for path in (source, blob):
        assert run("eval", path, "--op", op, binding, "--vocab", "large") == code
    assert capsys.readouterr().out.splitlines()[-2:] == \
        [("allow", "deny")[code]] * 2


@pytest.mark.parametrize("argv, context, message", [
    (["novalue", "--op", "file-read*"], None,
     "error: bad binding 'novalue', expected key=value\n"),
    (["--op", "file-read*", "--ctx", "{ctx}"], "# context\npath=/bin/ls\nnovalue\n",
     "error: {ctx}:3: expected key=value\n"),
    (["--op", "file-read*", "path=/x", "--frob"], None,
     "error: unrecognized arguments: path=/x --frob\n"),
], ids=["positional", "context-file", "unknown-option"])
def test_eval_rejects_bad_bindings(workdir, capsys, argv, context, message):
    ctx = workdir / "ctx.txt"
    if context is not None:
        ctx.write_text(context)
    argv = [a.format(ctx=ctx) for a in argv]
    assert run("eval", workdir / "sample.sb", *argv) == 2
    assert capsys.readouterr().err == message.format(ctx=ctx)


@pytest.mark.parametrize("code", ["70000", "0x10000", "-1"])
def test_compile_refuses_an_enum_code_past_16_bits(workdir, capsys, code):
    text = vocab.builtin_path("small").read_text(encoding="utf-8")
    voc = workdir / "big.sbvocab"
    voc.write_text(text + f"enumval vnode-type BIG={code}\n")
    assert run("compile", workdir / "sample.sb", "-o", workdir / "x.sbbin",
               "--vocab", voc) == 2
    assert capsys.readouterr().err == (
        f"error: vnode-type: enum value BIG code out of range: {int(code, 0)}\n")
    assert not (workdir / "x.sbbin").exists()


NOT_UTF8 = b'(version 1)\n(deny default)\n(allow file-read* (literal "/x\xff"))\n'


@pytest.mark.parametrize("argv, bad", [
    (["compile", "{bad}", "-o", "{dir}/x.sbbin"], "bad.sb"),
    (["eval", "{bad}", "--op", "file-read*"], "bad.sb"),
    (["pack", "{dir}/sample.sb", "{bad}", "-o", "{dir}/x.sbbundle"], "bad.sb"),
    (["diff", "{dir}/sample.sb", "{bad}"], "bad.sb"),
    (["eval", "{dir}/sample.sb", "--op", "file-read*", "--ctx", "{bad}"], "ctx.txt"),
    (["compile", "{dir}/sample.sb", "-o", "{dir}/x.sbbin", "--vocab", "{bad}"],
     "bad.sbvocab"),
    (["decompile", "{dir}/sample.sbbin", "-o", "{dir}/x.sb", "--implicit", "{bad}"],
     "implicit.sb"),
], ids=["compile", "eval", "pack", "diff", "context-file", "vocabulary", "implicit-rules"])
def test_non_utf8_files_are_input_errors(workdir, capsys, argv, bad):
    run("compile", workdir / "sample.sb", "-o", workdir / "sample.sbbin")
    capsys.readouterr()
    path = workdir / bad
    path.write_bytes(NOT_UTF8)
    assert run(*[a.format(bad=path, dir=workdir) for a in argv]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: not UTF-8 text (byte {NOT_UTF8.index(0xFF)})\n"
    assert not any((workdir / f"x{suffix}").exists()
                   for suffix in (".sbbin", ".sbbundle", ".sb"))


def test_pack_refuses_a_name_utf8_cannot_encode(workdir, capsys):
    # a file name that is not UTF-8 gives a profile name UTF-8 cannot encode
    odd = workdir / os.fsdecode(b"odd\xff.sb")
    odd.write_text(SECOND)
    assert run("pack", odd, "-o", workdir / "x.sbbundle") == 2
    assert capsys.readouterr().err == \
        "error: pool string 'odd\\udcff': UTF-8 cannot encode character 3\n"
    assert not (workdir / "x.sbbundle").exists()


INVALID = "(version 1)\n(allow file-read*)\n"


def test_cli_input_errors(workdir, capsys):
    (workdir / "invalid.sb").write_text(INVALID)
    (workdir / "short.sbbin").write_bytes(b"\x00")
    run("pack", workdir / "sample.sb", "-o", workdir / "one.sbbundle")
    capsys.readouterr()
    invalid = ("profile failed validation: [MissingDefault] default: "
               "profile has no (allow|deny default) rule")
    for argv, message in [
        (["eval", workdir / "invalid.sb", "--op", "file-read*"], invalid),
        (["diff", workdir / "sample.sb", workdir / "invalid.sb"], invalid),
        (["eval", workdir / "short.sbbin", "--op", "file-read*"],
         "input too short to carry a format id"),
        (["decompile", workdir / "short.sbbin", "-o", workdir / "x.sb"],
         "input too short to carry a format id"),
        (["eval", workdir / "one.sbbundle", "--op", "file-read*"],
         f"{workdir / 'one.sbbundle'}: bundles are not accepted here; unpack first"),
    ]:
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_graph_to_stdout(workdir, capsys):
    blob_path = workdir / "sample.sbbin"
    run("compile", workdir / "sample.sb", "-o", blob_path)
    capsys.readouterr()
    assert run("graph", blob_path, "--op", "file-read*") == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "file-read*" {')
    assert out.endswith("}\n2 filter nodes, 4 edges\n")


def test_diff_reports_different_defaults(workdir, capsys):
    (workdir / "open.sb").write_text("(version 1)\n(allow default)\n")
    (workdir / "closed.sb").write_text("(version 1)\n(deny default)\n")
    assert run("diff", workdir / "open.sb", workdir / "closed.sb") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "default: allow vs deny"
    assert out[-1].startswith("evaluator: DISAGREEMENT")
