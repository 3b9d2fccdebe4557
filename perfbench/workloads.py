"""The benchmark's three workloads over the public sbprof API.

Each workload is driven by one caller in a closed loop: the next profile or
query is issued only after the previous one returned. Inputs come from the
workload seed alone. `setup()` builds what a user pays for before the first
operation; `step()` runs and checks one operation; `finish()` runs what is
done once per run. Every check that fails, and every `SandboxError`, counts
as one failed operation.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from collections import defaultdict
from time import perf_counter

from measure import median, percentile
from sbprof import codec, decompile, evaluate, generate, sbpl, vocab
from sbprof.errors import SandboxError
from sbprof.model import ValueKind


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha1(data).hexdigest()


def _load_implicit():
    """Every workload's set-up loads the implicit rules with the vocabulary,
    so that `setup_s` covers the same loading on every workload."""
    return sbpl.parse_implicit_rules(
        vocab.implicit_rules_path().read_text(encoding="utf-8"))


def _item_seeds(seed: int, salt: str):
    """Endless, reproducible stream of generator seeds for one workload."""
    rng = random.Random(f"{salt}:{seed}")
    while True:
        yield rng.getrandbits(31)


def _blob_shape(blob: bytes, vocab_, operations: int) -> dict:
    bp = codec.decode_blob(blob)
    regex_code = next(e.code for e in vocab_.entries
                      if e.kind is ValueKind.REGEX_INDEX)
    filters = [r for r in bp.records if not r.is_terminal]
    return {"filter_nodes": len(filters),
            "regex_nodes": sum(r.filter_key == regex_code for r in filters),
            "operations": operations}


def _shape_summary(shapes) -> dict:
    return {field: {"median": statistics.median(s[field] for s in shapes),
                    "min": min(s[field] for s in shapes),
                    "max": max(s[field] for s in shapes)}
            for field in (shapes[0] if shapes else ())}


def _universe_sizes(profiles, table, vocab_) -> dict:
    """Median and largest value-universe size per context key."""
    per_key = defaultdict(list)
    for profile in profiles:
        universe = evaluate.build_universe(
            evaluate.collect_atoms(profile, table, vocab_), vocab_)
        for key, values in universe.items():
            per_key[key].append(len(values))
    return {key: {"median": statistics.median(sizes), "max": max(sizes)}
            for key, sizes in sorted(per_key.items())}


# ---------------------------------------------------------------------------

class Container:
    """Container-scale profiles handed over as SBPL text: compile, decompile
    without cleanup, and the `sbprof decompile` self-check; then one bundle
    of the first BUNDLE profiles behind a 4 KiB garbage prefix."""

    name = "container"
    why = ("real profiles are container-sized (~1,964 filter nodes, ~131 "
           "regex nodes, ~124 operations, large vocabulary); SBPL parsing, "
           "lowering, decompile and regex reversal carry the cost")
    setup_repeats = 100
    min_items = BUNDLE = 8   # 8 container profiles fill ~80% of a bundle's 16-bit units
    timed_items_per_s = None
    trace_items_per_s = 0.4
    BUNDLE_REPEATS = 3
    VERIFY_SAMPLES = 400     # the CLI self-check's sample count
    VERIFY_SEED = 0          # the CLI's default --seed

    def __init__(self, seed: int):
        self.seed = seed
        self.table, self.vocab = vocab.load_builtin("large")

    def items(self):
        for i, item_seed in enumerate(_item_seeds(self.seed, self.name)):
            gen = generate.ProfileGenerator(self.table, self.vocab,
                                            seed=item_seed, scale="container")
            yield item_seed, f"c{i}", sbpl.print_sbpl(gen.generate(), self.table)

    def setup(self):
        table, vocab_ = vocab.load_builtin("large")
        return {"table": table, "vocab": vocab_, "implicit": _load_implicit(),
                "bundle_set": []}

    def step(self, state, item, rec):
        _seed, name, text = item
        table, vocab_ = state["table"], state["vocab"]
        t0 = perf_counter()
        try:
            profile = sbpl.parse_sbpl(text, name=name)
            blob = codec.compile_profile(profile, table, vocab_)
            t1 = perf_counter()
            out = decompile.decompile(blob, table, vocab_)
            t2 = perf_counter()
            recompiled = codec.compile_profile(sbpl.parse_sbpl(out), table, vocab_)
            report = evaluate.check_equivalence(
                blob, recompiled, table, vocab_, mode="sampled",
                seed=self.VERIFY_SEED, samples=self.VERIFY_SAMPLES)
            t3 = perf_counter()
        except SandboxError as exc:
            rec.error(perf_counter() - t0, name, exc)
            return
        rec.time("compile", t1 - t0)
        rec.time("decompile", t2 - t1)
        rec.time("verify", t3 - t2)
        rec.outcome(t3 - t0, report.equivalent, f"{name}: {report}")
        rec.output(name, _digest(blob), _digest(out), report.equivalent,
                   report.checked)
        if len(state["bundle_set"]) < self.BUNDLE:
            state["bundle_set"].append((profile, blob))

    def finish(self, state, rec):
        table, vocab_ = state["table"], state["vocab"]
        members = state["bundle_set"]
        if not members:
            return
        profiles = [p for p, _ in members]
        garbage = random.Random(f"garbage:{self.seed}").randbytes(4096)
        try:
            for _ in range(self.BUNDLE_REPEATS):
                rec.speed.tick()
                t0 = perf_counter()
                bundle = codec.pack_bundle(profiles, table, vocab_)
                offset, views = codec.unpack_bundle(garbage + bundle)
                extracted = [codec.extract_profile(view, vocab_)
                             for _name, view in views]
                rec.time("bundle", perf_counter() - t0)
        except SandboxError as exc:
            for profile, _blob in members:
                rec.error(0.0, f"bundle {profile.name}", exc)
            return
        names = [name for name, _view in views]
        for i, (profile, blob) in enumerate(members):
            ok = (offset == len(garbage) and i < len(extracted)
                  and names[i] == profile.name and extracted[i] == blob)
            rec.check(ok, f"bundle member {profile.name} (offset {offset}) "
                          f"differs from its standalone compile")
        rec.output("bundle", _digest(bundle), offset)
        state["blob_bytes"] = sum(len(blob) for _p, blob in members)

    def details(self, rec, state) -> dict:
        return {
            "compile_ms_p50": (median(rec.scaled("compile")) * 1e3, "ms"),
            "decompile_ms_p50": (median(rec.scaled("decompile")) * 1e3, "ms"),
            "verify_ms_p50": (median(rec.scaled("verify")) * 1e3, "ms"),
            "bundle_ms": (median(rec.scaled("bundle")) * 1e3, "ms"),
            "blob_bytes": (state.get("blob_bytes", 0), "bytes"),
        }

    def describe(self, state, head, count) -> dict:
        members = state["bundle_set"]
        table, vocab_ = state["table"], state["vocab"]
        return {
            "vocabulary": "large",
            "profiles": count,
            "first_item_seeds": [seed for seed, _n, _t in head],
            "bundle_profiles": len(members),
            "shape_of_bundle_profiles": _shape_summary(
                [_blob_shape(blob, vocab_, len(p.rules)) for p, blob in members]),
            "universe_sizes_of_bundle_profiles": _universe_sizes(
                [p for p, _ in members], table, vocab_),
        }


# ---------------------------------------------------------------------------

class Roundtrip:
    """The golden corpus, then seeded small-vocabulary profiles, each through
    the test-suite oracle and through the implicit-rule cleanup path."""

    name = "roundtrip"
    why = ("many short-lived evaluators: exhaustive equivalence and cleanup's "
           "per-candidate checks make evaluate and nfa_match do most of the "
           "work, sbpl and codec little")
    setup_repeats = 100
    min_items = len(generate.CORPUS)
    # A fixed item count: some seeds fail on purpose (the inject_implicit
    # InvalidProfile), so a time-bounded run would fail a varying number.
    # About --seconds long on a 2-vCPU Xeon guest.
    timed_items_per_s = 10.0
    trace_items_per_s = 3.0

    def __init__(self, seed: int):
        self.seed = seed
        self.small = vocab.load_builtin("small")

    def items(self):
        for case in generate.CORPUS:
            yield (None, case.name, sbpl.parse_sbpl(case.sbpl_text, name=case.name),
                   case.vocab)
        for item_seed in _item_seeds(self.seed, self.name):
            gen = generate.ProfileGenerator(*self.small, seed=item_seed)
            yield item_seed, f"seed-{item_seed}", gen.generate(), "small"

    def setup(self):
        tables = {name: vocab.load_builtin(name) for name in ("small", "large")}
        return {"tables": tables, "implicit": _load_implicit()}

    def step(self, state, item, rec):
        _seed, name, profile, vocab_name = item
        table, vocab_ = state["tables"][vocab_name]
        implicit = state["implicit"]
        t0 = perf_counter()
        phase = "oracle"
        try:
            blob = codec.compile_profile(profile, table, vocab_)
            text = decompile.decompile(blob, table, vocab_)
            recompiled = codec.compile_profile(sbpl.parse_sbpl(text), table, vocab_)
            oracle = evaluate.check_equivalence(blob, recompiled, table, vocab_)
            t1 = perf_counter()
            phase = "cleanup"
            injected = decompile.inject_implicit(profile, implicit)
            blob_i = codec.compile_profile(injected, table, vocab_)
            text_i = decompile.decompile(blob_i, table, vocab_, implicit=implicit)
            reinjected = decompile.inject_implicit(sbpl.parse_sbpl(text_i), implicit)
            cleaned = evaluate.check_equivalence(
                injected, codec.compile_profile(reinjected, table, vocab_),
                table, vocab_)
            t2 = perf_counter()
        except SandboxError as exc:
            rec.error(perf_counter() - t0, f"{name} {phase}", exc)
            return
        rec.time("oracle", t1 - t0)
        rec.time("cleanup", t2 - t1)
        ok = oracle.equivalent and cleaned.equivalent
        rec.outcome(t2 - t0, ok, f"{name}: oracle {oracle}; cleanup {cleaned}")
        rec.output(name, _digest(text), _digest(text_i), oracle.checked,
                   cleaned.checked, ok)

    def finish(self, state, rec):
        pass

    def details(self, rec, state) -> dict:
        oracle, cleanup = rec.scaled("oracle"), rec.scaled("cleanup")
        return {
            "roundtrip_per_s": (len(oracle) / sum(oracle) if oracle else 0.0, "1/s"),
            "cleanup_per_s": (len(cleanup) / sum(cleanup) if cleanup else 0.0, "1/s"),
        }

    def describe(self, state, head, count) -> dict:
        shapes = []
        profiles_by_vocab = defaultdict(list)
        for _seed, _name, profile, vocab_name in head:
            table, vocab_ = state["tables"][vocab_name]
            try:
                blob = codec.compile_profile(profile, table, vocab_)
            except SandboxError:
                continue
            shapes.append(_blob_shape(blob, vocab_, len(profile.rules)))
            profiles_by_vocab[vocab_name].append(profile)
        return {
            "vocabulary": "small (corpus cases: small and large)",
            "profiles": count,
            "corpus_cases": len(generate.CORPUS),
            "first_item_seeds": [seed for seed, *_ in head if seed is not None],
            "described_profiles": len(shapes),
            "shape": _shape_summary(shapes),
            "universe_sizes": {
                name: _universe_sizes(profiles, *state["tables"][name])
                for name, profiles in sorted(profiles_by_vocab.items())},
        }


# ---------------------------------------------------------------------------

class Query:
    """(operation, context) queries against container-scale blobs, answered
    by warmed long-lived BlobEvaluator and AstEvaluator; every COLD_EVERY-th
    query is asked again cold, as one `sbprof eval` call would."""

    name = "query"
    why = ("after set-up only the evaluate graph walk and nfa_match run; hot "
           "and cold queries use evaluate differently, so work moved into "
           "evaluator construction shows as a cold-query or setup_s loss")
    setup_repeats = 3
    min_items = 1
    timed_items_per_s = None
    trace_items_per_s = 1500.0
    BLOBS = 4
    POOL = 512           # sampled contexts per blob
    WARM_CONTEXTS = 8    # warm-up contexts per (blob, operation)
    COLD_EVERY = 256

    def __init__(self, seed: int):
        self.seed = seed
        self.table, self.vocab = vocab.load_builtin("large")
        seeds = _item_seeds(seed, self.name)
        self.blob_seeds = [next(seeds) for _ in range(self.BLOBS)]
        self.texts = []
        self.pools = []
        self.binds_regex_key = []
        for blob_seed in self.blob_seeds:
            profile = generate.ProfileGenerator(
                self.table, self.vocab, seed=blob_seed, scale="container").generate()
            self.texts.append(sbpl.print_sbpl(profile, self.table))
            atoms = evaluate.collect_atoms(profile, self.table, self.vocab)
            universe = evaluate.build_universe(atoms, self.vocab)
            pool = list(evaluate.sampled_contexts(universe, blob_seed, self.POOL))
            regex_keys = {key for key, kind, _v in atoms
                          if kind is ValueKind.REGEX_INDEX}
            self.pools.append(pool)
            self.binds_regex_key.append(
                [any(k in ctx.bindings for k in regex_keys) for ctx in pool])
        self.ops = [op for op in self.table.entries if op != "default"]

    def items(self):
        rng = random.Random(f"queries:{self.seed}")
        i = 0
        while True:
            yield (i, rng.randrange(self.BLOBS), rng.randrange(len(self.ops)),
                   rng.randrange(self.POOL))
            i += 1

    def setup(self):
        table, vocab_ = vocab.load_builtin("large")
        state = {"table": table, "vocab": vocab_, "implicit": _load_implicit(),
                 "blobs": [], "blob_ev": [], "ast_ev": [], "profiles": [],
                 "asked": bytearray(self.BLOBS * len(self.ops) * self.POOL),
                 "repeats": 0, "regex_bound": 0}
        for text in self.texts:
            profile = sbpl.parse_sbpl(text)
            blob = codec.compile_profile(profile, table, vocab_)
            state["profiles"].append(profile)
            state["blobs"].append(blob)
            state["blob_ev"].append(
                evaluate.BlobEvaluator(codec.decode_blob(blob), table, vocab_))
            state["ast_ev"].append(evaluate.AstEvaluator(profile, table, vocab_))
        for b, pool in enumerate(self.pools):
            blob_ev, ast_ev = state["blob_ev"][b], state["ast_ev"][b]
            for op in self.ops:
                for ctx in pool[:self.WARM_CONTEXTS]:
                    blob_ev.verdict(op, ctx)
                    ast_ev.verdict(op, ctx)
        return state

    def step(self, state, item, rec):
        i, b, op_index, ci = item
        op = self.ops[op_index]
        ctx = self.pools[b][ci]
        key = (b * len(self.ops) + op_index) * self.POOL + ci
        state["repeats"] += state["asked"][key]
        state["asked"][key] = 1
        state["regex_bound"] += self.binds_regex_key[b][ci]
        t0 = perf_counter()
        try:
            hot = state["blob_ev"][b].verdict(op, ctx)
            t1 = perf_counter()
            ref = state["ast_ev"][b].verdict(op, ctx)
            t2 = perf_counter()
        except SandboxError as exc:
            rec.error(perf_counter() - t0, f"query {i}", exc)
            return
        rec.time("blob", t1 - t0)
        rec.time("ast", t2 - t1)
        rec.outcome(t2 - t0, hot is ref, f"query {i} {op} {ctx}: blob {hot}, ast {ref}")
        rec.output(hot.value)
        if i % self.COLD_EVERY:
            return
        t0 = perf_counter()
        try:
            cold = evaluate.BlobEvaluator(state["blobs"][b], state["table"],
                                          state["vocab"]).verdict(op, ctx)
            t1 = perf_counter()
        except SandboxError as exc:
            rec.error(perf_counter() - t0, f"cold query {i}", exc)
            return
        rec.time("cold", t1 - t0)
        rec.outcome(t1 - t0, cold is hot, f"cold query {i}: {cold} vs hot {hot}")

    def finish(self, state, rec):
        pass

    def details(self, rec, state) -> dict:
        blob, ast = rec.scaled("blob"), rec.scaled("ast")
        return {
            "blob_query_us_p50": (percentile(blob, 50) * 1e6, "us"),
            "blob_query_us_p99": (percentile(blob, 99) * 1e6, "us"),
            "ast_query_us_p50": (percentile(ast, 50) * 1e6, "us"),
            "ast_query_us_p99": (percentile(ast, 99) * 1e6, "us"),
            "cold_query_ms_p50": (median(rec.scaled("cold")) * 1e3, "ms"),
        }

    def describe(self, state, head, count) -> dict:
        vocab_ = state["vocab"]
        shapes = [_blob_shape(blob, vocab_, len(profile.rules))
                  for profile, blob in zip(state["profiles"], state["blobs"])]
        return {
            "vocabulary": "large",
            "profiles": len(self.texts),
            "blob_seeds": self.blob_seeds,
            "queries": count,
            "cold_every": self.COLD_EVERY,
            "contexts_per_blob": self.POOL,
            "repeat_share": state["repeats"] / max(count, 1),
            "regex_key_bound_share": state["regex_bound"] / max(count, 1),
            "shape": _shape_summary(shapes),
            "universe_sizes": _universe_sizes(state["profiles"], state["table"], vocab_),
        }


WORKLOADS = {w.name: w for w in (Container, Roundtrip, Query)}
