"""Structure types: directed paths, branchings, and undirected graphs.

A path structure is a total visiting order; a branching is any in-degree
at most 1 forest given as a parent pointer per vertex. Undirected graphs
(`HpInstance`) are the inputs to the Hamiltonian-path tooling; their file
format is a header line ``n m`` followed by m lines ``u v`` with
0-based endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    FrozenSet, List, Mapping, Optional, Sequence, TextIO, Tuple, Union,
)

from .errors import GraphFormatError, InvalidStructureError, SolverLimitError


@dataclass(frozen=True)
class PathStructure:
    """A directed path over all variables, stored as a visiting order."""

    order: Tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(int(v) for v in self.order)
        object.__setattr__(self, "order", order)
        n = len(order)
        if n < 1:
            raise InvalidStructureError("path must visit at least one vertex")
        if sorted(order) != list(range(n)):
            raise InvalidStructureError(
                f"path order must be a permutation of 0..{n - 1}, got {order}"
            )

    @property
    def num_vertices(self) -> int:
        return len(self.order)

    def parent_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """Parent set per variable: the first vertex has none, each later
        vertex has its predecessor."""
        sets: list = [()] * len(self.order)
        for prev, here in zip(self.order, self.order[1:]):
            sets[here] = (prev,)
        return tuple(sets)


def find_cycle(parent: Mapping[int, Optional[int]]) -> Optional[List[int]]:
    """First cycle met walking up from each vertex in key order, or None.

    ``parent`` maps each vertex to its parent; a walk stops at None or at a
    vertex with no entry. The cycle starts at the vertex where it closes.
    """
    state = dict.fromkeys(parent, 0)  # 0 fresh, 1 on current chain, 2 settled
    for start in parent:
        chain = []
        v = start
        while state.get(v) == 0:
            state[v] = 1
            chain.append(v)
            v = parent[v]
        if state.get(v) == 1:
            return chain[chain.index(v):]
        for u in chain:
            state[u] = 2
    return None


@dataclass(frozen=True)
class Branching:
    """An in-degree at most 1 acyclic structure: one optional parent each."""

    parent: Tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        parent = tuple(None if p is None else int(p) for p in self.parent)
        object.__setattr__(self, "parent", parent)
        n = len(parent)
        if n < 1:
            raise InvalidStructureError("branching needs at least one vertex")
        for i, p in enumerate(parent):
            if p is None:
                continue
            if not 0 <= p < n:
                raise InvalidStructureError(
                    f"vertex {i}: parent {p} out of range [0, {n})"
                )
            if p == i:
                raise InvalidStructureError(f"vertex {i} is its own parent")
        cycle = find_cycle(dict(enumerate(parent)))
        if cycle is not None:
            raise InvalidStructureError(
                f"parent pointers contain a cycle through vertex {cycle[0]}"
            )

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    @property
    def roots(self) -> Tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p is None)

    def parent_sets(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(() if p is None else (p,) for p in self.parent)


@dataclass(frozen=True)
class HpInstance:
    """An undirected simple graph for Hamiltonian-path questions."""

    vertex_count: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self) -> None:
        n = int(self.vertex_count)
        object.__setattr__(self, "vertex_count", n)
        if n < 1:
            raise InvalidStructureError("graph needs at least one vertex")
        normalized = set()
        for edge in self.edges:
            u, v = (int(edge[0]), int(edge[1]))
            if u == v:
                raise InvalidStructureError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidStructureError(
                    f"edge ({u}, {v}) out of range [0, {n})"
                )
            key = (min(u, v), max(u, v))
            if key in normalized:
                raise InvalidStructureError(f"duplicate edge {key}")
            normalized.add(key)
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def is_hamiltonian_path(g: HpInstance, order: Sequence[int]) -> bool:
    """True when ``order`` visits every vertex once along edges of ``g``."""
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(g.vertex_count)):
        raise InvalidStructureError(
            f"witness must be a permutation of 0..{g.vertex_count - 1}"
        )
    return all(g.has_edge(u, v) for u, v in zip(order, order[1:]))


def brute_force_hp(
    g: HpInstance, max_vertices: int = 10
) -> Optional[Tuple[int, ...]]:
    """Exhaustive Hamiltonian-path search for small graphs.

    Returns the lexicographically first witness or None. Refuses instances
    above ``max_vertices`` since the search is factorial.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise SolverLimitError(
            f"exhaustive search limited to {max_vertices} vertices, got {n}"
        )
    adjacency = [set() for _ in range(n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    order = [0] * n
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        last = order[depth - 1]
        for v in sorted(adjacency[last]):
            if not used[v]:
                used[v] = True
                order[depth] = v
                if extend(depth + 1):
                    return True
                used[v] = False
        return False

    for start in range(n):
        used[start] = True
        order[0] = start
        if extend(1):
            return tuple(order)
        used[start] = False
    return None


def load_graph(source: Union[str, TextIO]) -> HpInstance:
    """Parse a graph from a path or stream in ``n m`` / ``u v`` format."""
    if hasattr(source, "read"):
        return _parse_graph(source.read(), getattr(source, "name", "<stream>"))
    with open(source, "r", encoding="utf-8") as handle:
        return _parse_graph(handle.read(), str(source))


def _parse_graph(text: str, origin: str) -> HpInstance:
    lines = [
        (idx + 1, line.strip())
        for idx, line in enumerate(text.splitlines())
        if line.strip()
    ]
    if not lines:
        raise GraphFormatError(f"{origin}: empty file, expected 'n m' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(
            f"{origin}: line {lineno}: header must be 'n m', got {header!r}"
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(
            f"{origin}: line {lineno}: header must be two integers"
        )
    if n < 1:
        raise GraphFormatError(f"{origin}: line {lineno}: vertex count must be >= 1")
    if m < 0:
        raise GraphFormatError(f"{origin}: line {lineno}: edge count must be >= 0")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"{origin}: header declares {m} edges, found {len(body)} edge lines"
        )
    edges = set()
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"{origin}: line {lineno}: edge must be 'u v', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{origin}: line {lineno}: edge endpoints must be integers"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"{origin}: line {lineno}: endpoint out of range [0, {n})"
            )
        if u == v:
            raise GraphFormatError(f"{origin}: line {lineno}: self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise GraphFormatError(f"{origin}: line {lineno}: duplicate edge {key}")
        edges.add(key)
    return HpInstance(n, frozenset(edges))


def write_graph(g: HpInstance, dest: Union[str, TextIO]) -> None:
    """Write ``g`` in the same format ``load_graph`` reads."""
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    payload = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(payload)
        return
    with open(dest, "w", encoding="utf-8") as handle:
        handle.write(payload)
