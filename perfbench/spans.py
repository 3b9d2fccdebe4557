"""Span tracer for the benchmark's traced run.

`Tracer.install()` replaces the public functions of the sbprof modules (and
the two evaluator `verdict` methods) with wrappers that record one span per
call: name, start, end, parent span and the request id the benchmark set for
the profile or query being processed. Aliases bound by `from`-imports inside
the package are replaced too, so a call through `decompile.check_equivalence`
is the same span as one through `evaluate.check_equivalence`.

Spans stay in memory until `write()`. A span's self time is its duration
minus the durations of its direct children. Counters are taken from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from sbprof import codec, decompile, evaluate, model, nfa, rex, sbpl, vocab
from sbprof.errors import SandboxError

# (owner, attribute) of every traced callable, grouped by layer
TRACED = (
    (sbpl, "parse_sbpl"), (sbpl, "print_sbpl"),
    (model, "validate_profile"), (model, "canonicalize"),
    (codec, "compile_profile"), (codec, "decode_blob"), (codec, "pack_bundle"),
    (codec, "unpack_bundle"), (codec, "extract_profile"),
    (nfa, "build_nfa"), (nfa, "serialize_nfa"), (nfa, "deserialize_nfa"),
    (nfa, "nfa_to_regex"), (nfa, "nfa_match"),
    (rex, "parse_regex"), (rex, "simplify"), (rex, "print_regex"),
    (decompile, "build_graph"), (decompile, "normalize_graph"),
    (decompile, "aggregate"), (decompile, "emit_rules"), (decompile, "cleanup"),
    (evaluate, "check_equivalence"), (evaluate, "build_universe"),
    (evaluate.BlobEvaluator, "verdict"), (evaluate.AstEvaluator, "verdict"),
    (vocab, "load_builtin"),
)

# counters derived at span boundaries, besides calls/errors/self time
COUNTERS = (
    "codec.nodes_emitted", "codec.records_decoded", "nfa.nfa_match.chars",
    "decompile.graph_nodes", "decompile.cleanup.equivalence_checks",
    "evaluate.check_equivalence.checks", "evaluate.verdict.calls",
)

# the originals, captured before any wrapper exists; hooks use these so that
# counting never records spans of its own
_decode_blob = codec.decode_blob
_unpack_bundle = codec.unpack_bundle


def span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


NAMES = tuple(span_name(owner, attr) for owner, attr in TRACED)


def _nodes_emitted(tracer, args, kwargs, result, parent):
    tracer.counts["codec.nodes_emitted"] += len(_decode_blob(result).records)


def _bundle_nodes_emitted(tracer, args, kwargs, result, parent):
    _offset, views = _unpack_bundle(result, scan=False)
    tracer.counts["codec.nodes_emitted"] += len(views[0][1].records)


def _records_decoded(tracer, args, kwargs, result, parent):
    tracer.counts["codec.records_decoded"] += len(result.records)


def _match_chars(tracer, args, kwargs, result, parent):
    text = args[1] if len(args) > 1 else kwargs["s"]
    tracer.counts["nfa.nfa_match.chars"] += len(text)


def _graph_nodes(tracer, args, kwargs, result, parent):
    tracer.counts["decompile.graph_nodes"] += len(result.nodes)


def _equivalence_checks(tracer, args, kwargs, result, parent):
    tracer.counts["evaluate.check_equivalence.checks"] += result.checked
    if parent >= 0 and tracer.spans[parent] == "decompile.cleanup":
        # each check inside cleanup is one trial removal; equivalent means
        # the removal was verdict-safe
        tracer.counts["decompile.cleanup.equivalence_checks"] += 1
        tracer.cleanup_accepted += result.equivalent


def _verdicts(tracer, args, kwargs, result, parent):
    tracer.counts["evaluate.verdict.calls"] += 1


HOOKS = {
    "codec.compile_profile": _nodes_emitted,
    "codec.pack_bundle": _bundle_nodes_emitted,
    "codec.decode_blob": _records_decoded,
    "nfa.nfa_match": _match_chars,
    "decompile.build_graph": _graph_nodes,
    "evaluate.check_equivalence": _equivalence_checks,
    "evaluate.BlobEvaluator.verdict": _verdicts,
    "evaluate.AstEvaluator.verdict": _verdicts,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring.

    `spans[i]` holds the span's name while the call runs and the finished
    tuple (name, start, end, parent, request) afterwards, so a hook can read
    the name of a parent that is still open."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.counts = Counter()
        self.errors = Counter()
        self.cleanup_accepted = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        errors = self.errors
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(name)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SandboxError:
                errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if hook is not None:
                hook(self, args, kwargs, result, parent)
            return result

        return traced

    def install(self):
        """Wrap every traced callable and each package-level alias of it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "sbprof" or key.startswith("sbprof.")]
        for (owner, attr), name in zip(TRACED, NAMES):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, scale: float) -> dict:
        """Per-layer metrics: `<name>.self_s`, `.calls` and `.errors` for
        every traced callable, plus the boundary counters. Self times are
        multiplied by `scale`."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(NAMES, 0.0)
        calls = dict.fromkeys(NAMES, 0)
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for name in NAMES:
            out[f"{name}.self_s"] = (self_s[name] * scale, "s")
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.errors"] = (self.errors[name], "count")
        for key in COUNTERS:
            out[key] = (self.counts[key], "count")
        trials = self.counts["decompile.cleanup.equivalence_checks"]
        out["decompile.cleanup.accept_ratio"] = (
            self.cleanup_accepted / trials if trials else 0.0, "ratio")
        return out

    def write(self, path):
        """All spans as JSON: a name table and rows of
        [name index, start s, end s, parent row or -1, request id]."""
        index = {name: i for i, name in enumerate(NAMES)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round(start - origin, 7), round(end - origin, 7),
                 parent, request]
                for name, start, end, parent, request in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES, "spans": rows}, fh, separators=(",", ":"))
