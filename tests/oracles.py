"""Test-only helpers: checks and input generators that the library itself
never calls. They stay independent of the engines they check."""

import random

from sbprof.decompile import GraphNode, OpGraph
from sbprof.generate import ProfileGenerator
from sbprof.model import Decision, FilterVocabulary, OperationTable


def check_match_graph(g: OpGraph) -> None:
    """Machine check of the normalized-graph invariant."""
    assert g.default is not None, "graph not normalized"
    success = g.default.negate()
    fail = g.default
    for nid, node in g.nodes.items():
        if node.match == fail:
            raise AssertionError(f"node {nid}: match edge reaches {fail}")
        if node.unmatch == success:
            raise AssertionError(f"node {nid}: unmatch edge reaches {success}")


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
