"""Shared test oracles: independent constructions used to check the library."""

from __future__ import annotations

import heapq
import itertools

import numpy as np


def prufer_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence into a labeled tree's edge list.

    A uniform sequence gives a uniform random labeled tree on n vertices,
    which makes this an independent random-tree source for sweep tests.
    """
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    assert len(seq) == n - 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n vertices via Prufer decoding."""
    seq = [int(v) for v in rng.integers(0, n, size=max(0, n - 2))]
    return prufer_tree(seq, n)


def component_sizes_without(
    n: int, edges, removed: int
) -> list[int]:
    """Component sizes after deleting one vertex, by plain union-find."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        if u == removed or v == removed:
            continue
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    sizes: dict[int, int] = {}
    for v in range(n):
        if v == removed:
            continue
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


def is_connected(n: int, edges) -> bool:
    """BFS connectivity check on a plain edge list."""
    if n == 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def edge_tuples(g) -> tuple[tuple[int, int], ...]:
    """A graph's canonical edges as a tuple of ``(u, v)`` int tuples."""
    return tuple(map(tuple, g.edges.tolist()))


def enumerate_spanning_trees(n: int, edges) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees of a small graph by brute subset enumeration."""
    edges = [tuple(sorted(e)) for e in edges]
    trees = []
    for subset in itertools.combinations(edges, n - 1):
        if is_connected(n, subset):
            trees.append(tuple(sorted(subset)))
    return trees


def binomial_band(p: float, trials: int, sigmas: float = 3.0) -> float:
    """Half-width of a normal-approximation band for a binomial proportion."""
    return sigmas * np.sqrt(p * (1.0 - p) / trials)
