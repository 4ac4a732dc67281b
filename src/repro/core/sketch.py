"""The coverage sketch of Section 2: ``H_p``, ``H'_p`` and ``H_{<=n}``.

Construction pipeline (offline view, Figure 1 / Algorithm 1):

1. ``H_p`` — keep every set vertex and exactly the elements whose hash value
   ``h(e)`` is at most ``p`` (a uniform element sample at rate ``p``).
2. ``H'_p`` — additionally cap the degree of every kept element at
   ``n log(1/ε) / (ε k)``, discarding surplus edges arbitrarily.
3. ``H_{<=n}`` — instead of fixing ``p``, admit elements in increasing hash
   order until the number of stored edges reaches the edge budget of
   Definition 2.1; the resulting threshold ``p*`` is data dependent.

The central guarantee (Theorem 2.7): with probability ``1 − 3e^{−δ''}``, any
α-approximate k-cover solution computed **on the sketch** is an
``(α − 12ε)``-approximate solution on the original input.  The estimator of
Lemma 2.2, ``C(S) ≈ |Γ(H_p, S)| / p``, is also exposed.

:class:`CoverageSketch` is the result object shared by the offline builder in
this module and the streaming builder in
:mod:`repro.core.streaming_sketch`; everything downstream (Algorithms 3–6)
only sees this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.coverage.bipartite import BipartiteGraph
from repro.core.hashing import HashFamily, UniformHash
from repro.core.params import SketchParams
from repro.utils.validation import check_open_unit

__all__ = [
    "CoverageSketch",
    "build_hp",
    "apply_degree_cap",
    "build_hp_prime",
    "build_h_leq_n",
]


@dataclass
class CoverageSketch:
    """A degree-capped, element-sampled subgraph plus its sampling threshold.

    Attributes
    ----------
    graph:
        The sketch subgraph (all ``n`` set vertices, a subset of elements,
        degree-capped edges).
    params:
        The budgets the sketch was built with.
    threshold:
        The effective sampling probability ``p*``: the largest hash value
        among admitted elements (1.0 when every element was admitted).
    element_hashes:
        Hash value of every admitted element (used by the estimator, by
        re-thresholding, and by the tests).
    truncated_elements:
        Elements whose degree hit the cap and lost edges (``H'_p ≠ H_p``).
    """

    graph: BipartiteGraph
    params: SketchParams
    threshold: float
    element_hashes: dict[int, float] = field(default_factory=dict)
    truncated_elements: frozenset[int] = frozenset()

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Edges stored in the sketch (the space the paper counts)."""
        return self.graph.num_edges

    @property
    def num_elements(self) -> int:
        """Admitted (sampled) elements."""
        return self.graph.num_elements

    # ------------------------------------------------------------------ #
    # coverage estimation (Lemma 2.2)
    # ------------------------------------------------------------------ #
    def sketch_coverage(self, set_ids: Iterable[int]) -> int:
        """``|Γ(H, S)|`` — coverage inside the sketch."""
        return self.graph.coverage(set_ids)

    def estimate_coverage(self, set_ids: Iterable[int]) -> float:
        """Estimate ``C(S)`` on the original input as ``|Γ(H, S)| / p*``."""
        if self.threshold <= 0.0:
            return 0.0
        return self.graph.coverage(set_ids) / self.threshold

    def estimate_total_elements(self) -> float:
        """Estimate ``m`` (the ground-set size) as ``(#sampled elements) / p*``."""
        if self.threshold <= 0.0:
            return 0.0
        return self.graph.num_elements / self.threshold

    def coverage_fraction(self, set_ids: Iterable[int]) -> float:
        """Fraction of the *sketch's* elements covered by ``set_ids``.

        Algorithm 4 checks its coverage condition against the sketch, not the
        original graph — this is that quantity.
        """
        return self.graph.coverage_fraction(set_ids)

    def describe(self) -> Mapping[str, float | int]:
        """Summary dict for reports."""
        return {
            "edges": self.num_edges,
            "elements": self.num_elements,
            "threshold": self.threshold,
            "truncated_elements": len(self.truncated_elements),
            "edge_budget": self.params.edge_budget,
            "degree_cap": self.params.degree_cap,
        }


# ---------------------------------------------------------------------- #
# offline builders
# ---------------------------------------------------------------------- #
def build_hp(
    graph: BipartiteGraph, p: float, hash_fn: HashFamily | None = None, *, seed: int = 0
) -> BipartiteGraph:
    """Build ``H_p``: keep the elements with hash value at most ``p``.

    Parameters
    ----------
    graph:
        The full input graph.
    p:
        The sampling threshold in ``(0, 1]``.
    hash_fn:
        The element hash; defaults to :class:`UniformHash` with ``seed``.
    """
    check_open_unit(p, "p")
    hash_fn = hash_fn or UniformHash(seed)
    keep = [element for element in graph.elements() if hash_fn.value(element) <= p]
    return graph.induced_on_elements(keep)


def apply_degree_cap(
    graph: BipartiteGraph, degree_cap: int, *, deterministic: bool = True
) -> tuple[BipartiteGraph, frozenset[int]]:
    """Build ``H'_p`` from ``H_p``: cap every element's degree at ``degree_cap``.

    Surplus edges are discarded "arbitrarily" in the paper; here the kept
    edges are the ones with the smallest set ids when ``deterministic`` is
    true (reproducible), otherwise insertion order is used.

    Returns the capped graph and the frozenset of elements that lost edges.
    """
    if degree_cap < 1:
        raise ValueError("degree_cap must be >= 1")
    capped = BipartiteGraph(graph.num_sets)
    truncated: set[int] = set()
    for element in graph.elements():
        owners = sorted(graph.sets_of(element)) if deterministic else list(graph.sets_of(element))
        if len(owners) > degree_cap:
            truncated.add(element)
            owners = owners[:degree_cap]
        for set_id in owners:
            capped.add_edge(set_id, element)
    return capped, frozenset(truncated)


def build_hp_prime(
    graph: BipartiteGraph,
    p: float,
    params: SketchParams,
    hash_fn: HashFamily | None = None,
    *,
    seed: int = 0,
) -> CoverageSketch:
    """Build ``H'_p`` as a :class:`CoverageSketch` (sampling + degree cap)."""
    hash_fn = hash_fn or UniformHash(seed)
    hp = build_hp(graph, p, hash_fn)
    capped, truncated = apply_degree_cap(hp, params.degree_cap)
    hashes = {element: hash_fn.value(element) for element in capped.elements()}
    return CoverageSketch(
        graph=capped,
        params=params,
        threshold=p,
        element_hashes=hashes,
        truncated_elements=truncated,
    )


def build_h_leq_n(
    graph: BipartiteGraph,
    params: SketchParams,
    hash_fn: HashFamily | None = None,
    *,
    seed: int = 0,
) -> CoverageSketch:
    """Offline construction of ``H_{<=n}`` (Algorithm 1).

    Elements are admitted in increasing hash order; each contributes at most
    ``degree_cap`` edges; admission stops once the number of stored edges
    reaches ``params.edge_budget`` (or the input is exhausted).  The
    resulting data-dependent threshold ``p*`` is the hash of the last
    admitted element (1.0 if every element was admitted, matching the
    convention that the sketch then *is* the input restricted by the cap).
    """
    hash_fn = hash_fn or UniformHash(seed)
    order = sorted(graph.elements(), key=lambda element: (hash_fn.value(element), element))
    sketch_graph = BipartiteGraph(graph.num_sets)
    hashes: dict[int, float] = {}
    truncated: set[int] = set()
    threshold = 1.0
    admitted_all = True
    for element in order:
        if sketch_graph.num_edges >= params.edge_budget:
            admitted_all = False
            break
        owners = sorted(graph.sets_of(element))
        if len(owners) > params.degree_cap:
            truncated.add(element)
            owners = owners[: params.degree_cap]
        for set_id in owners:
            sketch_graph.add_edge(set_id, element)
        hashes[element] = hash_fn.value(element)
    if not admitted_all and hashes:
        threshold = max(hashes.values())
    return CoverageSketch(
        graph=sketch_graph,
        params=params,
        threshold=threshold,
        element_hashes=hashes,
        truncated_elements=frozenset(truncated),
    )
