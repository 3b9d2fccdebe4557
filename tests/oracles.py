"""Test-only helpers: checks, matchers, the round-trip harness and input
generators that the library itself never calls. They stay independent of
the engines they check: ast_match works straight off the regex AST and is
the oracle for the automaton pipeline. The exception is expr_matches, the
AST evaluator's own filter matcher exposed for one expression, which tests
compare against independent references."""

import itertools
import random
import struct
from dataclasses import dataclass, field

from sbprof import codec, decompile, evaluate, sbpl
from sbprof.decompile import GraphNode, OpGraph
from sbprof.errors import SandboxError
from sbprof.generate import ProfileGenerator
from sbprof.model import Decision, FilterVocabulary, OperationTable, Profile
from sbprof.nfa import (
    TAG_ACCEPT,
    TAG_CHAR,
    TAG_CLASS,
    TAG_JUMP_BCK,
    TAG_JUMP_FWD,
    LazyDfa,
    Nfa,
)
from sbprof.rex import (
    Alternate,
    AnchorEnd,
    AnchorStart,
    AnyChar,
    Char,
    CharClass,
    Concat,
    Empty,
    Optional,
    Plus,
    RegexAst,
    Star,
)


def expr_matches(expr, ctx: evaluate.QueryContext, vocab: FilterVocabulary) -> bool:
    """Whether a filter expression matches ctx: a thin call into the matcher
    that AST verdicts use."""
    return evaluate._matches(expr, ctx.bindings, evaluate._filter_kinds(vocab), vocab,
                             evaluate._Held())


def exhaustive_contexts(universe: dict, cap: int = evaluate.EXHAUSTIVE_CAP):
    """Every combination of unbound/candidate per key, capped for safety."""
    keys, pools, _total = evaluate._pools(universe, cap)
    for combo in itertools.product(*pools):
        yield evaluate.QueryContext({k: v for k, v in zip(keys, combo) if v is not None})


def check_match_graph(g: OpGraph) -> None:
    """Machine check of the normalized-graph invariant: every node oriented,
    none constant, and every node reachable from the entry."""
    assert g.default is not None, "graph not normalized"
    success = g.default.negate()
    fail = g.default
    for nid, node in g.nodes.items():
        if node.match == fail:
            raise AssertionError(f"node {nid}: match edge reaches {fail}")
        if node.unmatch == success:
            raise AssertionError(f"node {nid}: unmatch edge reaches {success}")
        if node.match == node.unmatch:
            raise AssertionError(f"node {nid}: match and unmatch agree")
    reached = set()
    stack = [g.entry]
    while stack:
        nid = stack.pop()
        if nid in g.nodes and nid not in reached:
            reached.add(nid)
            stack += (g.nodes[nid].match, g.nodes[nid].unmatch)
    unreached = sorted(set(g.nodes) - reached)
    if unreached:
        raise AssertionError(f"nodes {unreached} are not reachable from the entry")


def random_op_graph(seed: int, vocab: FilterVocabulary, max_nodes: int = 24) -> OpGraph:
    """Random acyclic operation graph (successors always point forward),
    used to exercise normalization on shapes no compiler would emit."""
    rng = random.Random(seed)
    gen = ProfileGenerator(OperationTable(("default",)), vocab, seed=seed)
    n = rng.randint(1, max_nodes)
    nodes = {}
    for i in range(n):
        succ = []
        for _ in range(2):
            if i + 1 < n and rng.random() < 0.6:
                succ.append(rng.randint(i + 1, n - 1))
            else:
                succ.append(Decision.ALLOW if rng.random() < 0.5 else Decision.DENY)
        nodes[i] = GraphNode(gen._random_atom(), succ[0], succ[1])
    return OpGraph(nodes=nodes, entry=0)


def class_matches(cls: CharClass, ch: str) -> bool:
    """Whether a character class matches one character."""
    o = ord(ch)
    hit = any(lo <= o <= hi for lo, hi in cls.ranges)
    return hit != cls.negated


def _match_ends(ast, s, start, memo):
    key = (ast, start)
    cached = memo.get(key)
    if cached is not None:
        return cached
    memo[key] = frozenset()  # cycle guard; real value stored below
    if isinstance(ast, Empty):
        out = frozenset([start])
    elif isinstance(ast, Char):
        ok = start < len(s) and ord(s[start]) == ast.byte
        out = frozenset([start + 1]) if ok else frozenset()
    elif isinstance(ast, AnyChar):
        out = frozenset([start + 1]) if start < len(s) else frozenset()
    elif isinstance(ast, CharClass):
        ok = start < len(s) and class_matches(ast, s[start])
        out = frozenset([start + 1]) if ok else frozenset()
    elif isinstance(ast, AnchorStart):
        out = frozenset([start]) if start == 0 else frozenset()
    elif isinstance(ast, AnchorEnd):
        out = frozenset([start]) if start == len(s) else frozenset()
    elif isinstance(ast, Concat):
        cur = {start}
        for part in ast.parts:
            nxt = set()
            for p in cur:
                nxt |= _match_ends(part, s, p, memo)
            cur = nxt
            if not cur:
                break
        out = frozenset(cur)
    elif isinstance(ast, Alternate):
        acc = set()
        for opt in ast.options:
            acc |= _match_ends(opt, s, start, memo)
        out = frozenset(acc)
    elif isinstance(ast, Star):
        seen = {start}
        frontier = {start}
        while frontier:
            nxt = set()
            for p in frontier:
                nxt |= _match_ends(ast.inner, s, p, memo)
            frontier = nxt - seen
            seen |= nxt
        out = frozenset(seen)
    elif isinstance(ast, Plus):
        out = frozenset()
        first = set()
        for p in _match_ends(ast.inner, s, start, memo):
            first.add(p)
        if first:
            star = Star(ast.inner)
            acc = set()
            for p in first:
                acc |= _match_ends(star, s, p, memo)
            out = frozenset(acc)
    elif isinstance(ast, Optional):
        out = frozenset([start]) | _match_ends(ast.inner, s, start, memo)
    else:
        raise TypeError(f"not a regex node: {ast!r}")
    memo[key] = out
    return out


def ast_match(ast: RegexAst, s: str, full: bool = True) -> bool:
    """Match straight off the AST. full=True requires the whole string;
    full=False is substring search (the filter-matching mode)."""
    memo = {}
    if full:
        return len(s) in _match_ends(ast, s, 0, memo)
    for i in range(len(s) + 1):
        if _match_ends(ast, s, i, memo):
            return True
    return False


def _program(records) -> bytes:
    return struct.pack("<H", len(records)) + b"".join(records)


def forward_jump_nest(n: int) -> bytes:
    """A regex program of n forward jumps, record k jumping to 2n - k,
    then n "a" records and an accept: its reversal nests two levels per
    jump, which the compiler never writes."""
    records = [struct.pack("<BH", TAG_JUMP_FWD, 2 * n - k) for k in range(n)]
    records += [struct.pack("<BH", TAG_CHAR, ord("a"))] * n
    records.append(struct.pack("<BH", TAG_ACCEPT, 0))
    return _program(records)


def jump_back_ladder(n: int) -> bytes:
    """A regex program of n records: "a", n - 2 backward jumps to it and an
    accept. Its language is a+."""
    return _program([struct.pack("<BH", TAG_CHAR, ord("a"))]
                    + [struct.pack("<BH", TAG_JUMP_BCK, 0)] * (n - 2)
                    + [struct.pack("<BH", TAG_ACCEPT, 0)])


def forward_jump_chain(n: int) -> bytes:
    """A regex program of n pairs (forward jump past its own "a", "a") and
    an accept: each "a" may be skipped, so its language is the strings of
    at most n letters a."""
    records = []
    for i in range(n):
        records += [struct.pack("<BH", TAG_JUMP_FWD, 2 * i + 2),
                    struct.pack("<BH", TAG_CHAR, ord("a"))]
    records.append(struct.pack("<BH", TAG_ACCEPT, 0))
    return _program(records)


def dense_program(k: int) -> bytes:
    """A regex program whose automaton is the complete graph on k states,
    each edge reading a letter of its own (modulo 256), from state 0 to the
    accepting state k - 1. State i is a block of k - 1 forward jumps, one to
    each of its edges, ended by a dead class (an accept for the last state);
    the edges follow the blocks, each "letter, backward jump to the block
    of its head, dead class". Its reversal grows exponentially with k, and
    removing its states in degree order takes more than k^3 / 3 glue
    steps."""
    dead = bytes((TAG_CLASS, 0))
    blocks, edges = [], []
    edge_at = k * k  # record index of the first edge
    for i in range(k):
        for j in range(k):
            if j != i:
                blocks.append(struct.pack("<BH", TAG_JUMP_FWD, edge_at + len(edges)))
                edges += [struct.pack("<BH", TAG_CHAR, (i * k + j) % 256),
                          struct.pack("<BH", TAG_JUMP_BCK, k * j), dead]
        blocks.append(struct.pack("<BH", TAG_ACCEPT, 0) if i == k - 1 else dead)
    return _program(blocks + edges)


DECODE_MUTATIONS = 3000


def decode_bases(small, large) -> list:
    """The blobs the decode golden mutates, each as (blob, its first view):
    small seeds 0-5, large seeds 0-2, container seed 0 and one bundle of
    small seeds 0-7."""
    blobs = [codec.compile_profile(ProfileGenerator(*small, seed=seed).generate(), *small)
             for seed in range(6)]
    blobs += [codec.compile_profile(ProfileGenerator(*large, seed=seed).generate(), *large)
              for seed in range(3)]
    blobs.append(codec.compile_profile(ProfileGenerator(
        *large, seed=0, scale="container").generate(), *large))
    members = []
    for seed in range(8):
        p = ProfileGenerator(*small, seed=seed).generate()
        members.append(Profile(f"p{seed}", p.default_decision, p.rules))
    blobs.append(codec.pack_bundle(members, *small))
    return [(blob, codec.unpack_bundle(blob, scan=False)[1][0][1]
             if blob[:2] == b"\x00\x80" else codec.decode_blob(blob)) for blob in blobs]


def _mutate(rng, blob, first, count):
    """One seeded mutation of blob, whose count node records start at byte
    first: random bytes set, a truncation, a random u16 written, or a
    chosen value written into one field of one node record."""
    data = bytearray(blob)
    kind = rng.random()
    if kind < 0.3:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif kind < 0.4:
        data = data[:rng.randrange(1, len(data))]
    elif kind < 0.55:
        struct.pack_into("<H", data, rng.randrange(len(data) - 1), rng.randrange(0x10000))
    else:
        at = first + 8 * rng.randrange(count)
        field = rng.randrange(5)
        if field < 2:
            data[at + field] = rng.choice((0, 1, 2, 0xFF, rng.randrange(256)))
        else:
            base = first // 8
            value = rng.choice((0, base - 1, base, base + count - 1, base + count,
                                rng.randrange(0x10000)))
            struct.pack_into("<H", data, at + 2 * field - 2, value)
    return bytes(data)


def decode_mutations(bases, count: int = DECODE_MUTATIONS):
    """The decode golden's seeded mutation stream over bases, a list of
    (blob, first view): for each i below count, (i, data, garbage), where
    data is a mutation of bases[i % len(bases)] and garbage is the 1-39
    random bytes drawn after it, which the golden puts before data."""
    rng = random.Random(1904)
    for i in range(count):
        blob, bp = bases[i % len(bases)]
        data = _mutate(rng, blob, 8 * bp.node_base, len(bp.node_types))
        garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        yield i, data, garbage


def anchored_nfa(m: Nfa) -> Nfa:
    """m with a new start that reaches m.start over a `^` edge and a new
    accept that each accept of m reaches over a `$` edge. A match must then
    read all of the string through m, so under the filter semantics its
    language is m's full-match language."""
    start, accept = m.n_states, m.n_states + 1
    return Nfa(m.n_states + 2,
               m.transitions + ((start, AnchorStart(), m.start),)
               + tuple((q, AnchorEnd(), accept) for q in sorted(m.accepts)),
               start, frozenset([accept]))


def anchored(m: Nfa) -> LazyDfa:
    """A LazyDfa whose language is m's full-match language."""
    return LazyDfa(anchored_nfa(m))


def full_match(m: Nfa, s: str) -> bool:
    """Whether s itself is in m's language."""
    return anchored(m).match(s)


def bounded_language_equal(a: Nfa, b: Nfa, alphabet, max_len: int):
    """Compare full-match languages up to max_len by a breadth-first walk
    over pairs of states of anchored(a) and anchored(b). Returns (True,
    None) or (False, witness) where witness is a shortest distinguishing
    string."""
    da, db = anchored(a), anchored(b)
    letters = sorted(set(alphabet))
    start = (da.initial(), db.initial())
    frontier = {start: ""}
    visited = {start}
    for depth in range(max_len + 1):
        for (ka, kb), witness in sorted(frontier.items(), key=lambda kv: kv[1]):
            if da.accepts_at_end(ka, depth == 0) != db.accepts_at_end(kb, depth == 0):
                return False, witness
        if depth == max_len:
            break
        nxt = {}
        for (ka, kb), witness in frontier.items():
            for ch, key in zip(letters, zip(da.successors(ka, letters),
                                            db.successors(kb, letters))):
                if key not in visited:
                    visited.add(key)
                    nxt[key] = witness + ch
        frontier = nxt
        if not frontier:
            break
    return True, None


def enumerated_equivalence(a, b, table: OperationTable, vocab: FilterVocabulary,
                           ops=None) -> evaluate.EquivalenceReport:
    """Exhaustive equivalence the plain way: per operation, every context of
    the keys its atoms test on either side, in product order, through both
    verdicts. The reference for check_equivalence's one context per
    signature class."""
    src_a = evaluate.as_source(a, table, vocab)
    src_b = evaluate.as_source(b, table, vocab)
    universe = evaluate.build_universe(
        evaluate.collect_atoms(src_a, table, vocab)
        + evaluate.collect_atoms(src_b, table, vocab), vocab)
    checked = 0
    for op in table.entries if ops is None else ops:
        keys = {key for src in (src_a, src_b)
                for key, _r, _v in evaluate._op_atoms(src, op)}
        for ctx in exhaustive_contexts({k: universe[k] for k in keys}):
            checked += 1
            va, vb = src_a.verdict(op, ctx), src_b.verdict(op, ctx)
            if va is not vb:
                return evaluate.EquivalenceReport(False, checked, "exhaustive",
                                                  (op, ctx, va, vb))
    return evaluate.EquivalenceReport(True, checked, "exhaustive")


@dataclass
class SuiteResult:
    total: int = 0
    failures: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _case_profiles(corpus, seeds, tables):
    for case in corpus:
        table, vocab = tables[case.vocab]
        yield case.name, sbpl.parse_sbpl(case.sbpl_text, name=case.name), table, vocab
    for seed in seeds:
        table, vocab = tables["small"]
        gen = ProfileGenerator(table, vocab, seed=seed)
        yield f"seed-{seed}", gen.generate(), table, vocab


def run_roundtrip_suite(corpus, seeds, report_path=None, tables=None) -> SuiteResult:
    """compile -> decompile -> reparse -> recompile -> equivalence, one line
    of structured output per case and phase."""
    if tables is None:
        from sbprof import vocab as vocab_mod

        tables = {name: vocab_mod.load_builtin(name) for name in ("small", "large")}
    result = SuiteResult()

    def record(name, phase, ok, witness=""):
        status = "ok" if ok else "fail"
        line = f"case={name} phase={phase} status={status}"
        if witness:
            line += f" witness={witness}"
        result.lines.append(line)
        if not ok:
            result.failures.append((name, phase, witness))

    for name, profile, table, vocab in _case_profiles(corpus, seeds, tables):
        result.total += 1
        try:
            blob = codec.compile_profile(profile, table, vocab)
            record(name, "compile", True)
        except SandboxError as exc:
            record(name, "compile", False, str(exc))
            continue
        try:
            text = decompile.decompile(blob, table, vocab)
            record(name, "decompile", True)
        except SandboxError as exc:
            record(name, "decompile", False, str(exc))
            continue
        try:
            reparsed = sbpl.parse_sbpl(text, name=name)
            record(name, "reparse", True)
        except SandboxError as exc:
            record(name, "reparse", False, str(exc))
            continue
        try:
            blob2 = codec.compile_profile(reparsed, table, vocab)
            record(name, "recompile", True)
        except SandboxError as exc:
            record(name, "recompile", False, str(exc))
            continue
        report = evaluate.check_equivalence(blob, blob2, table, vocab)
        record(name, "equivalence", report.equivalent,
               "" if report.equivalent else str(report))

    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.lines) + "\n")
    return result
