"""Reverse binary profiles to policy text: per-operation graph construction,
require-not normalization, require-any/require-all aggregation by node
removal, implicit-rule cleanup, and the full pipeline back to SBPL.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import nfa as nfa_mod
from .codec import BinaryProfile, decode_blob
from .errors import (
    CycleDetected,
    DecompileError,
    IrreducibleGraph,
    MalformedBlob,
    SandboxError,
)
from .evaluate import check_equivalence
from .model import (
    Atom,
    Decision,
    FilterVocabulary,
    OperationTable,
    Profile,
    RequireAll,
    RequireAny,
    RequireNot,
    Rule,
    ValueForm,
    ValueKind,
    canonicalize,
)
from .sbpl import ImplicitRuleSet, condition_holds, format_filter, print_sbpl

# Successors are either a node id (int) or a terminal Decision.
ALLOW = Decision.ALLOW
DENY = Decision.DENY


@dataclass
class GraphNode:
    expr: object           # FilterExpr
    match: object          # int | Decision
    unmatch: object        # int | Decision


@dataclass
class OpGraph:
    nodes: dict            # id -> GraphNode
    entry: object          # int | Decision
    default: Decision | None = None  # set once normalized


_FORMS = {
    ValueKind.NUMERIC: ValueForm.NUMBER,
    ValueKind.ENUM_NAMED: ValueForm.SYMBOL,
    ValueKind.REGEX_INDEX: ValueForm.REGEX,
    ValueKind.NETWORK_ENDPOINT: ValueForm.ENDPOINT,
    ValueKind.LITERAL_STRING: ValueForm.STRING,
}


def _resolve_atom(bp: BinaryProfile, unit: int, vocab: FilterVocabulary) -> Atom:
    entry = vocab.by_code(bp.filter_keys[unit - bp.node_base])
    value = bp.value_at(unit, entry)
    if entry.kind is ValueKind.REGEX_INDEX:
        value = nfa_mod.program_at(value).text
    return Atom(entry.name, value, _FORMS[entry.kind])


def build_graph(bp: BinaryProfile, op_index: int, vocab: FilterVocabulary) -> OpGraph:
    """Reachable graph for one operation, atoms resolved through the
    vocabulary and regex values reversed to pattern text."""
    if not 0 <= op_index < bp.op_count:
        raise MalformedBlob(0, f"operation index {op_index} out of range")
    entry_unit = bp.op_pointers[op_index]
    base, matches, unmatches = bp.node_base, bp.match_offsets, bp.unmatch_offsets

    # one DFS numbers the nodes in preorder, match edge first, and finds
    # cycles: an edge back to a unit still on the DFS path closes one
    ids = {}
    order = []
    on_path = set()
    stack = [(entry_unit, False)]
    while stack:
        unit, leaving = stack.pop()
        if leaving:
            on_path.discard(unit)
            continue
        if bp.decision_at(unit) is not None:
            continue
        if unit in ids:
            if unit in on_path:
                raise CycleDetected(op_index, unit)
            continue
        ids[unit] = len(order)
        order.append(unit)
        on_path.add(unit)
        stack.append((unit, True))
        stack.append((unmatches[unit - base], False))
        stack.append((matches[unit - base], False))

    def succ(unit):
        decision = bp.decision_at(unit)
        return ids[unit] if decision is None else decision

    nodes = {}
    for unit in order:
        nodes[ids[unit]] = GraphNode(
            expr=_resolve_atom(bp, unit, vocab),
            match=succ(matches[unit - base]),
            unmatch=succ(unmatches[unit - base]))
    return OpGraph(nodes=nodes, entry=succ(entry_unit))


# ---------------------------------------------------------------------------
# Normalization (require-not recovery)

def _negated(expr):
    if isinstance(expr, RequireNot):
        return expr.child
    return RequireNot(expr)


def normalize_graph(g: OpGraph, default: Decision) -> OpGraph:
    """One post-order walk from the entry, each node's successors resolved
    before the node. A node whose match and unmatch agree never influences
    the verdict and is routed around (foreign blobs only, the encoder never
    emits one); any other node is copied, negated and swapped where an edge
    points the wrong way, so match edges can only reach the success terminal
    and unmatch edges only the failure terminal (orientation given by the
    default decision). The result holds exactly the reachable, constant-free,
    oriented nodes. Verdicts are preserved; idempotent."""
    success = default.negate()
    nodes = {}
    target = {}  # node id -> what references to it now lead to
    entered = set()  # a cyclic hand-built graph still terminates
    stack = [g.entry] if g.entry in g.nodes else []
    while stack:
        nid = stack[-1]
        if nid in target:
            stack.pop()
            continue
        node = g.nodes[nid]
        if nid not in entered:  # first visit: resolve the successors first
            entered.add(nid)
            stack.extend(s for s in (node.unmatch, node.match)
                         if s in g.nodes and s not in target)
            continue
        stack.pop()
        match = target.get(node.match, node.match)
        unmatch = target.get(node.unmatch, node.unmatch)
        if match == unmatch:
            target[nid] = match
            continue
        target[nid] = nid
        if match == default or unmatch == success:
            nodes[nid] = GraphNode(_negated(node.expr), unmatch, match)
        else:
            nodes[nid] = GraphNode(node.expr, match, unmatch)
    return OpGraph(nodes=nodes, entry=target.get(g.entry, g.entry), default=default)


# ---------------------------------------------------------------------------
# Aggregation (require-any / require-all recovery by node removal)

def _join(kind, a, b):
    """kind (RequireAny or RequireAll) of a and b, either side flattened
    when it already is one."""
    left = a.children if isinstance(a, kind) else (a,)
    right = b.children if isinstance(b, kind) else (b,)
    return kind((*left, *right))


def _dump_graph(g: OpGraph) -> str:
    lines = [f"entry: {g.entry}"]
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        lines.append(f"  {nid}: {format_filter(node.expr)} "
                     f"match->{node.match} unmatch->{node.unmatch}")
    return "\n".join(lines)


def aggregate(g: OpGraph):
    """Collapse a normalized graph to one filter expression by node removal:
    unmatch chains with a shared match target fold into require-any, then a
    node whose match successor has the same failure path folds into
    require-all. g must be what normalize_graph returns: every node reachable
    from the entry, none constant, every edge oriented; no merge makes a node
    constant, so the entry never changes. Returns None for an
    unconditionally-successful entry."""
    if g.default is None:
        raise IrreducibleGraph("aggregate needs a normalized graph")
    success = g.default.negate()
    fail = g.default
    entry = g.entry
    if isinstance(entry, Decision):
        if entry == success:
            return None
        raise IrreducibleGraph("entry is the failure terminal; nothing to emit")

    nodes = {nid: GraphNode(n.expr, n.match, n.unmatch) for nid, n in g.nodes.items()}
    preds: dict[int, set] = {nid: set() for nid in nodes}
    for nid, node in nodes.items():
        for succ in (node.match, node.unmatch):
            if not isinstance(succ, Decision):
                preds[succ].add(nid)

    next_id = max(nodes) + 1 if nodes else 0

    def take(parent, target):
        """target, or a clone that only parent points at when anything else
        also points at target."""
        nonlocal next_id
        if len(preds[target]) + (entry == target) <= 1:
            return target
        src, node = nodes[target], nodes[parent]
        cid = next_id
        next_id += 1
        nodes[cid] = GraphNode(src.expr, src.match, src.unmatch)
        preds[cid] = {parent}
        preds[target].discard(parent)
        if node.match == target:
            node.match = cid
        if node.unmatch == target:
            node.unmatch = cid
        for succ in (src.match, src.unmatch):
            if not isinstance(succ, Decision):
                preds[succ].add(cid)
        return cid

    def absorb(n, m):
        """Drop m after merging it into n; n inherits nothing else."""
        node_m = nodes[m]
        for succ in (node_m.match, node_m.unmatch):
            if not isinstance(succ, Decision):
                preds[succ].discard(m)
                if succ in (nodes[n].match, nodes[n].unmatch):
                    preds[succ].add(n)
        del nodes[m]
        del preds[m]

    queue = deque(sorted(nodes))
    queued = set(queue)

    def enqueue(nid):
        if nid in nodes and nid not in queued:
            queue.append(nid)
            queued.add(nid)

    steps = 0
    limit = 60 * (len(nodes) + 4)
    while queue:
        steps += 1
        if steps > limit:
            raise IrreducibleGraph("aggregation did not converge", _dump_graph(g))
        nid = queue.popleft()
        queued.discard(nid)
        if nid not in nodes:
            continue
        node = nodes[nid]
        m, u = node.match, node.unmatch
        if not isinstance(u, Decision) and nodes[u].match == m:
            # require-any: alternative chained on the unmatch edge, same match target
            u = take(nid, u)
            node.expr = _join(RequireAny, node.expr, nodes[u].expr)
            node.unmatch = nodes[u].unmatch
            absorb(nid, u)
        elif not isinstance(m, Decision) and nodes[m].unmatch == u:
            # require-all: child on the match edge, same failure continuation
            m = take(nid, m)
            node.expr = _join(RequireAll, node.expr, nodes[m].expr)
            node.match = nodes[m].match
            absorb(nid, m)
        elif (not isinstance(m, Decision) and not isinstance(u, Decision)
                and nodes[m].match == success and nodes[m].unmatch == fail
                and nodes[u].match == success and nodes[u].unmatch == fail):
            # negated nesting leaves a node whose branches diverge; once both
            # successors are fully reduced, expand f ? M : U into
            # (f and M) or (not f and U)
            m, u = take(nid, m), take(nid, u)
            node.expr = _join(RequireAny, _join(RequireAll, node.expr, nodes[m].expr),
                              _join(RequireAll, _negated(node.expr), nodes[u].expr))
            node.match, node.unmatch = success, fail
            absorb(nid, m)
            absorb(nid, u)
        else:
            continue
        enqueue(nid)
        for p in sorted(preds.get(nid, ())):
            enqueue(p)

    if len(nodes) == 1 and entry in nodes:
        node = nodes[entry]
        if node.match == success and node.unmatch == fail:
            return node.expr
    raise IrreducibleGraph(
        f"residual graph with {len(nodes)} nodes cannot be reduced",
        _dump_graph(OpGraph(nodes=nodes, entry=entry, default=g.default)))


# ---------------------------------------------------------------------------
# Rule emission

# Aggregation returns a DAG whose subexpressions a crafted graph can share,
# and SBPL writes each use out in full: a ladder of two nodes per level, both
# pointing at both nodes of the next, doubles its text with every level.
EXPANSION_BUDGET = 8192  # expression nodes one operation may print


def _expanded_size(expr, memo) -> int:
    """Nodes in expr written out as a tree; memo maps id(subexpression) to
    its size, so each shared subexpression is counted through once."""
    size = memo.get(id(expr))
    if size is None:
        if isinstance(expr, Atom):
            size = 1
        elif isinstance(expr, RequireNot):
            size = 1 + _expanded_size(expr.child, memo)
        else:
            size = 1
            for child in expr.children:
                size += _expanded_size(child, memo)
        memo[id(expr)] = size
    return size


def _emit_op_rules(expr, default: Decision, vocab) -> tuple:
    """Turn the aggregated expression into SBPL rules. Top-level negated
    conjuncts become leading exception rules with the default's decision,
    reproducing the deny-then-allow source shape; top-level disjunctions
    split into one rule per alternative. An expression that would print
    more than EXPANSION_BUDGET nodes raises IrreducibleGraph."""
    success = default.negate()
    if expr is None:
        return (Rule(success, None),)
    size = _expanded_size(expr, {})
    if size > EXPANSION_BUDGET:
        raise IrreducibleGraph(f"expression expands to {size} nodes, more than "
                               f"the budget of {EXPANSION_BUDGET}")
    expr = canonicalize(expr, vocab)
    exceptions = []
    body = expr
    if isinstance(expr, RequireAll):
        negs = [c for c in expr.children if isinstance(c, RequireNot)]
        rest = [c for c in expr.children if not isinstance(c, RequireNot)]
        if negs and rest:
            exceptions = [Rule(default, n.child) for n in negs]
            body = rest[0] if len(rest) == 1 else RequireAll(tuple(rest))
    if isinstance(body, RequireAny):
        positives = [Rule(success, c) for c in body.children]
    else:
        positives = [Rule(success, body)]
    return tuple(exceptions + positives)


def emit_rules(bp: BinaryProfile, table: OperationTable,
               vocab: FilterVocabulary, permissive: bool = False):
    """Decompile every operation. Returns (profile, errors); errors is empty
    unless permissive is set, otherwise the first failure raises."""
    if bp.op_count != len(table):
        raise MalformedBlob(0, f"blob has {bp.op_count} operations, "
                               f"table has {len(table)}")
    default = bp.default_decision()
    rules = {}
    # op -> entry unit of the nearest emitted operation among op and its
    # ancestors, None when there is none
    emitted_unit = {}
    errors = []
    for op in table.parents_first:
        idx = table.index(op)
        if idx == 0:
            continue
        unit = bp.op_pointers[idx]
        # an operation sharing its entry with an emitted ancestor is the
        # compiled image of plain fallback; the parent link reproduces it
        ancestor_unit = emitted_unit[op] = emitted_unit.get(table.parents.get(op))
        if ancestor_unit == unit:
            continue
        try:
            normalized = normalize_graph(build_graph(bp, idx, vocab), default)
            # routing around constant nodes can leave the entry a terminal;
            # aggregate returns None for the success one
            if normalized.entry == default:
                if ancestor_unit is not None:
                    # an emitted ancestor would otherwise capture this
                    # operation through the parent link; pin it back
                    rules[op] = (Rule(default, None),)
                    emitted_unit[op] = unit
                continue
            rules[op] = _emit_op_rules(aggregate(normalized), default, vocab)
            emitted_unit[op] = unit
        except SandboxError as exc:
            wrapped = DecompileError(op, exc)
            if not permissive:
                raise wrapped from exc
            errors.append(wrapped)
    ordered = {op: rules[op] for op in table.entries if op in rules}
    profile = Profile(name=bp.name or "", default_decision=default, rules=ordered)
    return profile, errors


# ---------------------------------------------------------------------------
# Cleanup

def inject_implicit(profile: Profile, implicit: ImplicitRuleSet) -> Profile:
    """Prepend the standard-policy rules a compiler would add, honoring the
    conditional guards against the given profile; an injected unconditional
    rule replaces the operation's rules, which could never decide after it.
    The profile is left as it is; the result shares every rule tuple it
    does not extend or replace."""
    rules = dict(profile.rules)
    for item in implicit.rules:
        if condition_holds(item.condition, profile):
            kept = () if item.rule.filter is None else rules.get(item.operation, ())
            rules[item.operation] = (item.rule, *kept)
    return Profile(profile.name, profile.default_decision, rules)


def _disjuncts(expr, vocab) -> tuple:
    expr = canonicalize(expr, vocab)
    return expr.children if isinstance(expr, RequireAny) else (expr,)


def _rule_runs(rules, vocab) -> tuple:
    """Canonical view of a rule list: adjacent same-decision conditional
    rules merge into one run of distinct disjuncts; an unconditional rule
    ends the list (later rules are unreachable). Runs are (decision,
    children) pairs, children a tuple, or None for an unconditional rule."""
    runs = []
    for rule in rules:
        if rule.filter is None:
            runs.append((rule.decision, None))
            break
        children = _disjuncts(rule.filter, vocab)
        if runs and runs[-1][1] is not None and runs[-1][0] is rule.decision:
            merged = runs.pop()[1]
            children = merged + tuple(c for c in children if c not in merged)
        runs.append((rule.decision, children))
    return tuple(runs)


def _runs_to_rules(runs):
    out = []
    for decision, children in runs:
        if children is None:
            out.append(Rule(decision, None))
        else:
            out.extend(Rule(decision, c) for c in children)
    return tuple(out)


def _changed_ops(a: Profile, b: Profile, table: OperationTable) -> list:
    """The operations whose verdicts two profiles may disagree on, in table
    order. An operation whose effective rules (after parent fallback) are
    equal on both sides decides every context the same way when the default
    decisions are equal, so it is left out."""
    if a.default_decision is not b.default_decision:
        return list(table.entries)

    def effective(profile):
        owner = table.owners(profile.rules)
        return [profile.rules[owner[op]] if owner[op] else ()
                for op in table.entries]
    return [op for op, ra, rb in zip(table.entries, effective(a), effective(b))
            if ra != rb]


def cleanup(profile: Profile, implicit: ImplicitRuleSet, table: OperationTable,
            vocab: FilterVocabulary) -> Profile:
    """Strip rules matching the implicit standard policy, plus operations
    whose rules cannot change the default verdict. Each removal is a trial:
    the current runs with one operation's runs replaced. The trial is kept
    when, with the implicit rules injected into both, the evaluator finds it
    decides as the current runs do; only the operations it changed are
    checked."""
    current = {op: _rule_runs(rs, vocab) for op, rs in profile.rules.items()}

    def as_profile(runs_by_op):
        rules = ((op, _runs_to_rules(runs)) for op, runs in runs_by_op.items())
        return Profile(profile.name, profile.default_decision,
                       {op: rs for op, rs in rules if rs})

    def try_runs(op, runs):
        trial = {**current, op: runs}
        before = inject_implicit(as_profile(current), implicit)
        after = inject_implicit(as_profile(trial), implicit)
        report = check_equivalence(before, after, table, vocab,
                                   ops=_changed_ops(before, after, table))
        if report.equivalent:
            current[op] = runs
        return report.equivalent

    # strip implicit rules: a rule matches a run of the same decision that
    # contains all its disjuncts; the first verdict-safe removal is kept
    for item in implicit.rules:
        runs = current.get(item.operation, ())
        want = None if item.rule.filter is None else _disjuncts(item.rule.filter, vocab)
        for ridx, (decision, children) in enumerate(runs):
            if decision is not item.rule.decision:
                continue
            if want is None and children is None:
                kept = ()
            elif want is None or children is None or any(w not in children for w in want):
                continue
            else:
                rest = tuple(c for c in children if c not in want)
                kept = ((decision, rest),) if rest else ()
            if try_runs(item.operation, runs[:ridx] + kept + runs[ridx + 1:]):
                break

    # drop operations that only restate the default decision
    for op in sorted(current):
        runs = current[op]
        if runs and all(d is profile.default_decision for d, _c in runs):
            try_runs(op, ())

    return as_profile(current)


# ---------------------------------------------------------------------------
# Full pipeline

def decompile(source, table: OperationTable, vocab: FilterVocabulary,
              implicit: ImplicitRuleSet | None = None,
              permissive: bool = False) -> str:
    """decode -> per-operation reversal -> cleanup -> SBPL text, for a blob
    or a decoded BinaryProfile (a bundle view, say). The output reparses
    and recompiles; with permissive set, operations that cannot be reversed
    become comment lines instead of failing the run."""
    bp = source if isinstance(source, BinaryProfile) else decode_blob(source)
    profile, errors = emit_rules(bp, table, vocab, permissive=permissive)
    if implicit is not None:
        profile = cleanup(profile, implicit, table, vocab)
    text = print_sbpl(profile, table)
    if errors:
        text += "".join(f"; unreversed {e.operation}: {e.cause}\n" for e in errors)
    return text


# ---------------------------------------------------------------------------
# Graph dump

def dot_graph(bp: BinaryProfile, op_index: int, vocab: FilterVocabulary,
              op_name: str = "") -> tuple:
    """Graphviz text for one operation's decoded graph: match edges solid,
    unmatch edges dashed, terminals with thick borders. Returns
    (text, node_count, edge_count)."""
    graph = build_graph(bp, op_index, vocab)
    terminals = set()

    def succ_name(succ):
        if isinstance(succ, Decision):
            terminals.add(succ)
            return f"t_{succ.value}"
        return f"n{succ}"

    entry_name = succ_name(graph.entry)
    lines = [f'digraph "{op_name or f"op{op_index}"}" {{', '    node [shape=box];']
    edges = []
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        label = format_filter(node.expr).replace('"', '\\"')
        lines.append(f'    n{nid} [label="{label}"];')
        edges.append(f'    n{nid} -> {succ_name(node.match)};')
        edges.append(f'    n{nid} -> {succ_name(node.unmatch)} [style=dashed];')
    for term in sorted(terminals, key=lambda d: d.value):
        lines.append(f'    t_{term.value} [label="{term.value}" penwidth=2];')
    lines += ['    entry [shape=point];', f'    entry -> {entry_name};', *edges, "}"]
    return "\n".join(lines) + "\n", len(graph.nodes), 2 * len(graph.nodes)
