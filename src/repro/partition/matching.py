"""Maximum-weight matchings for the coarsening phase.

The paper computes a maximum-weight matching at every coarsening step (it
used the LEDA library's implementation).  We provide two interchangeable
matchers:

* :func:`greedy_matching` — the classic heavy-edge heuristic used by
  multilevel partitioners such as METIS: scan edges by decreasing weight and
  take an edge whenever both endpoints are still free.  Guaranteed to be a
  maximal matching with at least half the optimal weight, and is what the
  library uses by default.
* :func:`exact_matching` — an exact maximum-weight matching via the blossom
  algorithm (networkx's implementation), standing in for LEDA.  networkx
  is an optional dependency (the ``exact`` extra), imported on first use.

Both operate on an abstract edge list so they are reusable on any graph, and
both are deterministic: ties are broken by the (sorted) endpoint labels.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

#: An undirected weighted edge: (endpoint, endpoint, weight).
Edge = Tuple[Hashable, Hashable, float]


def _normalized(edges: Iterable[Edge]) -> List[Edge]:
    """Collapse parallel edges by summing weights; drop self-loops."""
    combined: Dict[Tuple[Hashable, Hashable], float] = {}
    for u, v, w in edges:
        if u == v:
            continue
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        combined[key] = combined.get(key, 0.0) + w
    return [(u, v, w) for (u, v), w in combined.items()]


def greedy_matching(edges: Iterable[Edge]) -> Set[Tuple[Hashable, Hashable]]:
    """Heavy-edge maximal matching.

    Args:
        edges: Undirected weighted edges; parallel edges are combined by
            summing their weights and self-loops are ignored.

    Returns:
        A set of matched pairs ``(u, v)``; each node appears in at most one
        pair.  Deterministic for a fixed input multiset.
    """
    normalized = _normalized(edges)
    normalized.sort(key=lambda e: (-e[2], repr(e[0]), repr(e[1])))
    matched: Set[Hashable] = set()
    result: Set[Tuple[Hashable, Hashable]] = set()
    for u, v, _w in normalized:
        if u in matched or v in matched:
            continue
        matched.add(u)
        matched.add(v)
        result.add((u, v))
    return result


def exact_matching(edges: Iterable[Edge]) -> Set[Tuple[Hashable, Hashable]]:
    """Exact maximum-weight matching (blossom algorithm).

    Semantics match :func:`greedy_matching`; use this to reproduce the
    paper's LEDA-based coarsening exactly.  Cost grows cubically with the
    graph size, which is irrelevant for loop-body-sized graphs.

    Raises:
        ImportError: networkx is not installed (``pip install repro[exact]``).
    """
    try:
        import networkx as nx
    except ImportError as error:
        raise ImportError(
            "exact_matching needs the 'networkx' package; install it with "
            "`pip install networkx` (or the 'exact' extra: repro[exact])"
        ) from error
    graph = nx.Graph()
    for u, v, w in _normalized(edges):
        graph.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(graph, maxcardinality=False)
    return {tuple(pair) for pair in pairs}


#: Registry used by the partitioner's ``matching=`` option.
MATCHERS = {
    "greedy": greedy_matching,
    "exact": exact_matching,
}


def matching_weight(
    edges: Iterable[Edge], matching: Set[Tuple[Hashable, Hashable]]
) -> float:
    """Total weight of ``matching`` with respect to ``edges``."""
    weight_of: Dict[Tuple[Hashable, Hashable], float] = {}
    for u, v, w in _normalized(edges):
        weight_of[(u, v)] = w
        weight_of[(v, u)] = w
    return sum(weight_of.get(pair, 0.0) for pair in matching)
