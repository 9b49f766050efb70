"""The index-space Figure-7 merge against the set-based oracle.

:func:`repro.igraph.merge.merge_region_colorings` runs over the GIG's
dense view (a color array plus one node bitmask per color class); it
must return exactly what the edge-by-edge walk over ``Reg``-keyed sets
in :mod:`tests.oracles` returns -- ``max_pr``, ``max_r`` and the
coloring, dict order included -- on every suite kernel under both
analysis implementations, and on random graphs with random boundary
sets that reach every resolution branch.
"""

from __future__ import annotations

import random

import pytest

from repro.core.analysis import analyze_thread
from repro.igraph.coloring import validate_coloring
from repro.igraph.graph import UndirectedGraph
from repro.igraph.interference import InterferenceGraphs
from repro.igraph.merge import merge_region_colorings
from repro.ir.operands import VirtualReg
from repro.suite.registry import BENCHMARKS, load
from tests.oracles import merge_region_colorings_sets
from tests.test_dense import using

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_same_merge(graphs, tally=None):
    got = merge_region_colorings(graphs)
    want = merge_region_colorings_sets(graphs, tally)
    assert (got.max_pr, got.max_r) == (want.max_pr, want.max_r)
    assert list(got.coloring.items()) == list(want.coloring.items())
    validate_coloring(graphs.gig, got.coloring)
    for node in graphs.boundary:
        if node in graphs.gig:
            assert got.coloring[node] < got.max_pr
    return got


@pytest.mark.parametrize("impl", ["dense", "reference"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_suite_merge_matches_set_oracle(name, impl):
    with using(impl):
        an = analyze_thread(load(name))
        assert_same_merge(an.graphs)


def random_graphs(rng: random.Random) -> InterferenceGraphs:
    """A random GIG with a random boundary set.

    The BIG keeps a random subset of the GIG's boundary-boundary edges
    (the rest become conflict edges, which can force a ``MaxPR``
    widening); internal nodes fall into random regions whose IIGs carry
    the GIG edges inside the region.  Node names are not zero-padded, so
    ``str`` order differs from numeric order.
    """
    k = rng.randint(0, 24)
    nodes = [VirtualReg(f"n{i}") for i in range(k)]
    density = rng.random()
    gig = UndirectedGraph()
    for node in nodes:
        gig.add_node(node)
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < density:
                gig.add_edge(nodes[i], nodes[j])
    boundary = frozenset(n for n in nodes if rng.random() < 0.4)
    internal = frozenset(nodes) - boundary
    big = UndirectedGraph()
    for node in boundary:
        big.add_node(node)
    keep = rng.random()
    for a, b in gig.edges():
        if a in boundary and b in boundary and rng.random() < keep:
            big.add_edge(a, b)
    nregions = rng.randint(1, 3)
    region = {n: rng.randrange(nregions) for n in internal}
    iigs = {rid: UndirectedGraph() for rid in range(nregions)}
    for node in internal:
        iigs[region[node]].add_node(node)
    for a, b in gig.edges():
        if a in internal and b in internal and region[a] == region[b]:
            iigs[region[a]].add_edge(a, b)
    return InterferenceGraphs(
        gig=gig, big=big, iigs=iigs, boundary=boundary, internal=internal
    )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_graphs_match_set_oracle(seed):
    assert_same_merge(random_graphs(random.Random(seed)))


def test_random_graphs_reach_every_branch():
    # The property above is only as good as the cases it reaches: a
    # fixed sweep of the same generator must resolve conflict edges by
    # endpoint recoloring, by neighbor recoloring, and by widening both
    # MaxPR and MaxR, with both implementations agreeing throughout.
    tally = {}
    for seed in range(300):
        assert_same_merge(random_graphs(random.Random(seed)), tally)
    for branch in ("recolor", "neighbors", "widen_boundary", "widen_internal"):
        assert tally.get(branch, 0) > 0, (branch, tally)


def test_region_node_outside_gig_is_shifted_by_widening():
    # A boundary node the GIG lacks never meets a conflict edge, but a
    # MaxPR widening still shifts its color when it sits at or above
    # the old MaxPR (hand-built graphs only).
    rng = random.Random(7)
    for _ in range(200):
        graphs = random_graphs(rng)
        extra = VirtualReg("zz_extra")
        graphs.big.add_node(extra)
        graphs.iigs[0].add_node(extra)
        assert_same_merge(graphs)
