"""Command-line front door: compile, decompile, pack, unpack, eval, graph
and diff over sandbox policy profiles.

Exit codes: 0 success (or allow / equivalent), 1 deny / difference found,
2 input or usage error, 3 decompile self-verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import codec, decompile, evaluate, sbpl, vocab as vocab_mod
from .codec import FORMAT_BUNDLED
from .errors import InvalidProfile, SandboxError, WrongFormatId
from .evaluate import QueryContext
from .model import Decision, ValueKind, validate_profile

EXIT_OK = 0
EXIT_DENY = 1
EXIT_ERROR = 2
EXIT_VERIFY = 3


def _load_tables(spec: str):
    if spec in vocab_mod.BUILTIN_TABLES:
        return vocab_mod.load_builtin(spec)
    return vocab_mod.load_vocabulary(spec)


def _vocab_arg(parser):
    parser.add_argument(
        "--vocab", default=os.environ.get("SBX_VOCAB", "small"),
        help="vocabulary: builtin name (small, large) or a file path "
             "(default: $SBX_VOCAB or small)")


def _read_text(path) -> str:
    """The UTF-8 text of the file at path; SandboxError names a file that
    is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SandboxError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _sniff_format(data: bytes) -> int:
    if len(data) < 2:
        raise SandboxError("input too short to carry a format id")
    return int.from_bytes(data[:2], "little")


def _load_profile_source(path: Path, table, vocab):
    """A .sb file parses to a Profile; anything else decodes as a blob."""
    if path.suffix == ".sb":
        profile = sbpl.parse_sbpl(_read_text(path), name=path.stem)
        diagnostics = validate_profile(profile, table, vocab)
        if diagnostics:
            raise InvalidProfile(diagnostics)
        return profile
    data = path.read_bytes()
    if _sniff_format(data) == FORMAT_BUNDLED:
        raise SandboxError(f"{path}: bundles are not accepted here; unpack first")
    return data


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "profile"


def _targets(out: Path, names, suffix: str) -> list:
    """One file in out per profile name; two names that map to one file
    raise before anything is written."""
    owners = {}
    for name in names:
        target = out / f"{_safe_name(name)}{suffix}"
        if target in owners:
            raise SandboxError(f"profiles {owners[target]!r} and {name!r} "
                               f"would both be written to {target}")
        owners[target] = name
    return list(owners)


# ---------------------------------------------------------------------------
# Commands

def cmd_compile(args) -> int:
    table, vocab = _load_tables(args.vocab)
    profile = sbpl.parse_sbpl(_read_text(args.input), name=Path(args.input).stem)
    blob = codec.compile_profile(profile, table, vocab)
    Path(args.output).write_bytes(blob)
    sizes = codec.section_sizes(blob)
    print(f"wrote {args.output}: {len(blob)} bytes")
    for section in ("header", "op_pointers", "pool_pointers", "padding",
                    "nodes", "pool"):
        print(f"  {section:14} {sizes[section]:6} bytes")
    return EXIT_OK


def _verify_output(blob_or_view, text, table, vocab, seed, implicit=None) -> bool:
    reparsed = sbpl.parse_sbpl(text)
    if implicit is not None:
        # cleanup stripped the standard policy; put it back for the check
        reparsed = decompile.inject_implicit(reparsed, implicit)
    recompiled = codec.compile_profile(reparsed, table, vocab)
    report = evaluate.check_equivalence(
        blob_or_view, recompiled, table, vocab, mode="sampled",
        seed=seed, samples=400)
    print(f"  self-check: {report}")
    return report.equivalent


def cmd_decompile(args) -> int:
    table, vocab = _load_tables(args.vocab)
    implicit = None
    if args.implicit:
        implicit = sbpl.parse_implicit_rules(_read_text(args.implicit))
    data = Path(args.input).read_bytes()
    out = Path(args.output)
    # one (source, target) per profile: each view of a bundle goes to the
    # output directory, a single blob to the output file
    if _sniff_format(data) == FORMAT_BUNDLED:
        views = codec.unpack_bundle(data)[1]
        targets = _targets(out, [name for name, _view in views], ".sb")
        out.mkdir(parents=True, exist_ok=True)
        jobs = [(view, target) for (_name, view), target in zip(views, targets)]
    else:
        jobs = [(data, out / f"{Path(args.input).stem}.sb" if out.is_dir() else out)]
    ok = True
    for source, target in jobs:
        text = decompile.decompile(source, table, vocab, implicit,
                                   permissive=args.permissive)
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}")
        if not args.no_verify:
            ok = _verify_output(source, text, table, vocab, args.seed,
                                implicit) and ok
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_pack(args) -> int:
    table, vocab = _load_tables(args.vocab)
    profiles = []
    for path in args.inputs:
        p = Path(path)
        profiles.append(sbpl.parse_sbpl(_read_text(p), name=p.stem))
    blob = codec.pack_bundle(profiles, table, vocab)
    Path(args.output).write_bytes(blob)
    print(f"wrote {args.output}: {len(blob)} bytes, {len(profiles)} profiles")
    return EXIT_OK


def cmd_unpack(args) -> int:
    table, vocab = _load_tables(args.vocab)
    data = Path(args.input).read_bytes()
    try:
        offset, views = codec.unpack_bundle(data, scan=args.scan)
    except WrongFormatId as exc:
        raise SandboxError(f"{exc} (try --scan)") from exc
    if offset:
        print(f"bundle found at byte offset {offset}")
    out = Path(args.output)
    targets = _targets(out, [name for name, _view in views], ".sbbin")
    out.mkdir(parents=True, exist_ok=True)
    for (name, view), target in zip(views, targets):
        target.write_bytes(codec.extract_profile(view, vocab))
        print(f"wrote {target}")
    return EXIT_OK


def _parse_binding(vocab, key: str, text: str):
    kinds = {e.kind for e in vocab.entries if e.context_key == key}
    if ValueKind.NUMERIC in kinds:
        try:
            return int(text, 0)
        except ValueError:
            pass
    if ValueKind.NETWORK_ENDPOINT in kinds and " " in text:
        proto, _, addr = text.partition(" ")
        return (proto, addr)
    return text


def _read_context(args, vocab) -> QueryContext:
    bindings = {}
    if args.ctx:
        for lineno, raw in enumerate(_read_text(args.ctx).splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SandboxError(f"{args.ctx}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            bindings[key.strip()] = _parse_binding(vocab, key.strip(), value.strip())
    for item in args.bindings:
        if "=" not in item:
            raise SandboxError(f"bad binding {item!r}, expected key=value")
        key, _, value = item.partition("=")
        bindings[key] = _parse_binding(vocab, key, value)
    return QueryContext(bindings)


def cmd_eval(args) -> int:
    table, vocab = _load_tables(args.vocab)
    source = _load_profile_source(Path(args.input), table, vocab)
    ctx = _read_context(args, vocab)
    src = evaluate.as_source(source, table, vocab)
    trace = [] if args.trace else None
    verdict = src.verdict(args.op, ctx, trace=trace)
    if isinstance(src, evaluate.BlobEvaluator):
        for unit, label, matched in trace or ():
            mark = "" if matched is None else (" match" if matched else " unmatch")
            print(f"  0x{unit:04x} {label}{mark}")
    else:
        for owner, rule in trace or ():
            print(f"  ({verdict} default)" if rule is None
                  else "  " + sbpl.format_rule(owner, rule))
    print(verdict.value)
    return EXIT_OK if verdict is Decision.ALLOW else EXIT_DENY


def cmd_graph(args) -> int:
    table, vocab = _load_tables(args.vocab)
    data = Path(args.input).read_bytes()
    bp = codec.decode_blob(data)
    op_index = table.index(args.op)
    text, n_nodes, n_edges = decompile.dot_graph(bp, op_index, vocab, args.op)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    print(f"{n_nodes} filter nodes, {n_edges} edges")
    return EXIT_OK


def cmd_diff(args) -> int:
    table, vocab = _load_tables(args.vocab)
    a = _load_profile_source(Path(args.a), table, vocab)
    b = _load_profile_source(Path(args.b), table, vocab)

    def as_profile(thing):
        if not isinstance(thing, (bytes, bytearray)):
            return thing
        profile, _errors = decompile.emit_rules(
            codec.decode_blob(bytes(thing)), table, vocab, permissive=True)
        return profile

    pa, pb = as_profile(a), as_profile(b)
    differences = []
    if pa.default_decision is not pb.default_decision:
        differences.append(
            f"default: {pa.default_decision} vs {pb.default_decision}")
    for op in table.entries:
        ra = {sbpl.format_rule(op, r) for r in pa.rules.get(op, ())}
        rb = {sbpl.format_rule(op, r) for r in pb.rules.get(op, ())}
        for line in sorted(ra - rb):
            differences.append(f"only in {args.a}: {line}")
        for line in sorted(rb - ra):
            differences.append(f"only in {args.b}: {line}")
    report = evaluate.check_equivalence(a, b, table, vocab, mode="sampled",
                                        seed=args.seed, samples=600)
    for line in differences:
        print(line)
    print(f"evaluator: {report}")
    if report.equivalent:
        if differences:
            print("note: structural differences are semantically equivalent")
        return EXIT_OK
    return EXIT_DENY


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbprof",
        description="sandbox profile compiler, decompiler and evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile .sb text to a binary profile")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _vocab_arg(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("decompile", help="reverse a binary profile or bundle to SBPL")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True,
                   help="output .sb file, or a directory for bundles")
    p.add_argument("--implicit", help="implicit-rules file to strip during cleanup")
    p.add_argument("--permissive", action="store_true",
                   help="comment out operations that fail to reverse")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the recompile-and-compare self check")
    p.add_argument("--seed", type=int, default=0)
    _vocab_arg(p)
    p.set_defaults(func=cmd_decompile)

    p = sub.add_parser("pack", help="pack several .sb profiles into a bundle")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    _vocab_arg(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("unpack", help="split a bundle into separated blobs")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--scan", action="store_true",
                   help="search for an embedded bundle header")
    _vocab_arg(p)
    p.set_defaults(func=cmd_unpack)

    p = sub.add_parser("eval", help="evaluate one operation against a context")
    p.add_argument("input", help=".sb or .sbbin profile")
    p.add_argument("--op", required=True)
    p.add_argument("--ctx", help="file of key=value lines")
    p.add_argument("bindings", nargs="*", help="key=value pairs")
    p.add_argument("--trace", action="store_true",
                   help="print the node path taken (binary profiles) or "
                        "the rule that decided (.sb profiles)")
    _vocab_arg(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph", help="dump one operation's decision graph as dot")
    p.add_argument("input", help=".sbbin profile")
    p.add_argument("--op", required=True)
    p.add_argument("-o", "--output")
    _vocab_arg(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("diff", help="compare two profiles (.sb or .sbbin)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--seed", type=int, default=0)
    _vocab_arg(p)
    p.set_defaults(func=cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # key=value bindings may appear anywhere on an eval command line
        if args.func is cmd_eval and all(
                "=" in e and not e.startswith("-") for e in extra):
            args.bindings = list(args.bindings) + extra
        else:
            print(f"error: unrecognized arguments: {' '.join(extra)}",
                  file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.func(args)
    except SandboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
