"""Unit tests for coloring heuristics."""

import random

import pytest

from repro.core.analysis import analyze_thread
from repro.igraph.coloring import (
    _dsatur_dense,
    _simplify_dense,
    dsatur_color,
    first_free_color,
    greedy_color,
    min_color,
    num_colors,
    simplify_color,
    validate_coloring,
)
from repro.igraph.graph import UndirectedGraph
from repro.suite.registry import BENCHMARKS, load
from tests.oracles import dsatur_quadratic, simplify_quadratic


def clique(n):
    g = UndirectedGraph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(f"n{i}", f"n{j}")
    return g


def cycle(n):
    g = UndirectedGraph()
    for i in range(n):
        g.add_edge(f"n{i}", f"n{(i + 1) % n}")
    return g


def test_first_free_color():
    assert first_free_color([]) == 0
    assert first_free_color([0, 1, 3]) == 2


@pytest.mark.parametrize("colorer", [dsatur_color, simplify_color, min_color])
def test_clique_needs_n_colors(colorer):
    g = clique(5)
    c = colorer(g)
    validate_coloring(g, c)
    assert num_colors(c) == 5


@pytest.mark.parametrize("colorer", [dsatur_color, simplify_color, min_color])
def test_even_cycle_two_colors(colorer):
    g = cycle(6)
    c = colorer(g)
    validate_coloring(g, c)
    assert num_colors(c) == 2


@pytest.mark.parametrize("colorer", [dsatur_color, simplify_color, min_color])
def test_odd_cycle_three_colors(colorer):
    g = cycle(7)
    c = colorer(g)
    validate_coloring(g, c)
    assert num_colors(c) == 3


def test_greedy_respects_fixed():
    g = clique(3)
    c = greedy_color(g, fixed={"n0": 5})
    validate_coloring(g, c)
    assert c["n0"] == 5


def test_empty_graph():
    g = UndirectedGraph()
    assert num_colors(min_color(g)) == 0


def test_isolated_nodes_one_color():
    g = UndirectedGraph()
    g.add_node("a")
    g.add_node("b")
    c = min_color(g)
    assert num_colors(c) == 1


def test_validate_detects_conflict():
    g = clique(2)
    with pytest.raises(ValueError):
        validate_coloring(g, {"n0": 0, "n1": 0})


def test_validate_detects_missing_node():
    g = clique(2)
    with pytest.raises(ValueError):
        validate_coloring(g, {"n0": 0})


def test_determinism():
    g = cycle(9)
    assert dsatur_color(g) == dsatur_color(g)
    assert simplify_color(g) == simplify_color(g)


# ---------------------------------------------------------------------------
# Lazy-heap selection vs the linear-scan oracle

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def assert_heap_selection_matches(g):
    for fast, slow in (
        (_dsatur_dense, dsatur_quadratic),
        (_simplify_dense, simplify_quadratic),
    ):
        got, want = fast(g), slow(g)
        # Same colors in the same selection order: insertion order is
        # the order nodes were picked.
        assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_heap_selection_matches_linear_scan_on_random_graphs(seed):
    # Many equal-degree, equal-saturation ties: the (-sat, -deg, -index)
    # and (deg, index) keys must break them exactly as max/min did.
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    density = rng.random()
    g = UndirectedGraph()
    for i in range(n):
        g.add_node(f"n{i}")
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                g.add_edge(f"n{i}", f"n{j}")
    assert_heap_selection_matches(g)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_heap_selection_matches_linear_scan_on_suite_graphs(name):
    graphs = analyze_thread(load(name)).graphs
    for g in [graphs.gig, graphs.big, *graphs.iigs.values()]:
        assert_heap_selection_matches(g)
