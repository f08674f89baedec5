"""DAGs, orderings, CPDAGs, equivalence-class conversion, and graph distances.

Nodes are integers 0..p-1. A directed edge is the ordered pair (parent, child);
undirected edges are stored canonically as (low, high). A DAG is converted to
its CPDAG by Chickering's edge labeling (UAI 1995) in one pass over the nodes
in topological order, O(p + |E|·max in-degree); no orientation rules are run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph; acyclicity is verified at construction."""

    p: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(a), int(b)) for a, b in self.edges))
        parents: list[list[int]] = [[] for _ in range(self.p)]
        children: list[list[int]] = [[] for _ in range(self.p)]
        for a, b in self.edges:
            if a == b:
                raise ValidationError(f"self-loop at node {a}")
            if not (0 <= a < self.p and 0 <= b < self.p):
                raise ValidationError(f"edge ({a},{b}) out of range for p={self.p}")
            parents[b].append(a)
            children[a].append(b)
        # Kahn's algorithm doubles as the acyclicity check
        order = _kahn(parents, children)
        if order is None:
            raise ValidationError("edge set contains a directed cycle")
        # not dataclass fields, so equality and hashing still see only (p, edges);
        # tuples: a frozenset per node would nearly triple a 10-node Dag's memory
        object.__setattr__(self, "_topo", tuple(order))
        object.__setattr__(self, "_parents", tuple(map(tuple, parents)))
        object.__setattr__(self, "_children", tuple(map(tuple, children)))

    def parents(self, j: int) -> frozenset[int]:
        return frozenset(self._parents[j])

    def children(self, j: int) -> frozenset[int]:
        return frozenset(self._children[j])

    def skeleton(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(a, b), max(a, b)) for a, b in self.edges)


@dataclass(frozen=True)
class Ordering:
    """A permutation of 0..p-1; position i holds the i-th variable."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(j) for j in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValidationError(f"not a permutation of 0..{len(order) - 1}: {order}")
        object.__setattr__(self, "order", order)

    def __iter__(self):
        return iter(self.order)

    def __len__(self):
        return len(self.order)

    def __getitem__(self, i):
        return self.order[i]


@dataclass(frozen=True)
class Cpdag:
    """Markov-equivalence-class representative: compelled edges directed."""

    p: int
    directed: frozenset[tuple[int, int]]
    undirected: frozenset[tuple[int, int]] = field(default=frozenset())

    def __post_init__(self):
        directed = frozenset((int(a), int(b)) for a, b in self.directed)
        undirected = frozenset(
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in self.undirected
        )
        for a, b in directed | undirected:
            if a == b:
                raise ValidationError(f"self-loop at node {a}")
            if not (0 <= a < self.p and 0 <= b < self.p):
                raise ValidationError(f"edge ({a},{b}) out of range for p={self.p}")
        dir_pairs = {(min(a, b), max(a, b)) for a, b in directed}
        if dir_pairs & undirected:
            raise ValidationError("a pair appears both directed and undirected")
        if len(dir_pairs) != len(directed):
            raise ValidationError("both orientations of one pair are directed")
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)

    @classmethod
    def _trusted(cls, p: int, directed: frozenset[tuple[int, int]],
                 undirected: frozenset[tuple[int, int]]) -> Cpdag:
        """A Cpdag from int edges already known valid, undirected ones as (low, high).

        Skips the re-validation of ``__post_init__``; for graphs derived from
        a valid Dag, such as the output of :func:`dag_to_cpdag`.
        """
        c = object.__new__(cls)
        object.__setattr__(c, "p", p)
        object.__setattr__(c, "directed", directed)
        object.__setattr__(c, "undirected", undirected)
        return c

    def skeleton(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(a, b), max(a, b)) for a, b in self.directed) | self.undirected


def _kahn(parents, children) -> list[int] | None:
    """Topological sort, smallest node index first; None if cyclic."""
    indeg = [len(pa) for pa in parents]
    heap = [j for j, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        j = heapq.heappop(heap)
        out.append(j)
        for c in children[j]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, c)
    return out if len(out) == len(parents) else None


def topological_order(g: Dag) -> Ordering:
    """Parents-before-children ordering, ties broken by smallest node index."""
    return Ordering(g._topo)


def descendants(g: Dag, j: int) -> frozenset[int]:
    """All nodes reachable from j by directed paths, excluding j itself."""
    if not 0 <= j < g.p:
        raise ValidationError(f"node {j} out of range for p={g.p}")
    seen: set[int] = set()
    stack = list(g._children[j])
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            stack.extend(g._children[k])
    return frozenset(seen)


def descendant_mask(g: Dag) -> np.ndarray:
    """Boolean p x p matrix whose row j marks ``descendants(g, j)``: one pass in
    reverse topological order unions {c} and row c over the children c of j,
    on int bitsets that are unpacked into the matrix at the end.
    """
    bits = [0] * g.p
    for j in reversed(g._topo):
        for c in g._children[j]:
            bits[j] |= bits[c] | (1 << c)
    width = (g.p + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), np.uint8)
    return np.unpackbits(raw.reshape(g.p, width), axis=1, count=g.p, bitorder="little").view(bool)


def is_consistent(ordering: Ordering, g: Dag) -> bool:
    """True iff every edge points from earlier to later in the ordering."""
    if len(ordering) != g.p:
        raise ValidationError(f"ordering of length {len(ordering)} for p={g.p}")
    pos = {j: i for i, j in enumerate(ordering)}
    return all(pos[a] < pos[b] for a, b in g.edges)


def vstructures(g: Dag) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (a, c, b) with a->c<-b, a<b, and a,b non-adjacent."""
    return frozenset(
        (a, c, b)
        for c in range(g.p)
        for a, b in itertools.combinations(sorted(g._parents[c]), 2)
        if (a, b) not in g.edges and (b, a) not in g.edges
    )


def dag_to_cpdag(g: Dag) -> Cpdag:
    """Equivalence-class representative by Chickering's edge labeling.

    Chickering (UAI 1995) orders the edges by child, lowest in a topological
    order first, then by parent, highest first, and labels each edge
    compelled (directed in the CPDAG) or reversible (undirected). The first
    edge x->y reached for a child y labels every edge into y at once, so one
    pass over the nodes in topological order, with x the highest-placed parent
    of y, visits the edges in that order without the O(|E| log |E|) sort. If
    some compelled w->x has w not a parent of y, or y has a parent other than
    x that is not a parent of x, every edge into y is compelled; otherwise
    exactly the edges w->y with w->x compelled are. Cost O(p + |E|·max
    in-degree). No orientation rules (Meek, UAI 1995) are needed.
    """
    pos = [0] * g.p
    for i, j in enumerate(g._topo):
        pos[j] = i
    pa = list(map(frozenset, g._parents))
    compelled: list[frozenset[int]] = [frozenset()] * g.p
    directed: list[tuple[int, int]] = []
    undirected: list[tuple[int, int]] = []
    for y in g._topo:
        pa_y = pa[y]
        if not pa_y:
            continue
        x = max(pa_y, key=pos.__getitem__)
        if compelled[x] <= pa_y and pa_y - {x} <= pa[x]:
            compelled[y] = compelled[x]
        else:
            compelled[y] = pa_y
        directed += [(z, y) for z in compelled[y]]
        undirected += [(min(z, y), max(z, y)) for z in pa_y - compelled[y]]
    # edges of a valid Dag, so the Cpdag needs no re-validation
    return Cpdag._trusted(g.p, frozenset(directed), frozenset(undirected))


def hamming_dag(g_true: Dag, g_est: Dag, *, reversal_as_one: bool = False) -> int:
    """Missing plus extra directed edges; a reversed edge costs 2 by default.

    ``reversal_as_one`` switches to the common SHD variant where a reversal
    counts once.
    """
    if g_true.p != g_est.p:
        raise ValidationError(f"node counts differ: {g_true.p} vs {g_est.p}")
    diff = len(g_true.edges - g_est.edges) + len(g_est.edges - g_true.edges)
    if reversal_as_one:
        reversed_pairs = sum(1 for a, b in g_true.edges if (b, a) in g_est.edges)
        diff -= reversed_pairs
    return diff


def _pair_kind(c: Cpdag, pair: tuple[int, int]) -> str:
    a, b = pair
    if pair in c.undirected:
        return "undirected"
    if (a, b) in c.directed:
        return "forward"
    if (b, a) in c.directed:
        return "backward"
    return "absent"


def hamming_cpdag(c_true: Cpdag, c_est: Cpdag) -> int:
    """Count pairs whose orientation kind (absent/undirected/direction) differs."""
    if c_true.p != c_est.p:
        raise ValidationError(f"node counts differ: {c_true.p} vs {c_est.p}")
    pairs = c_true.skeleton() | c_est.skeleton()
    return sum(1 for pair in pairs if _pair_kind(c_true, pair) != _pair_kind(c_est, pair))


# --- graph text format -------------------------------------------------------
# First line: p. One line per edge: "parent child", 0-based; undirected CPDAG
# edges carry a trailing "u". Edges are written sorted, so write/read/write is
# byte-identical.


def format_graph(g: Dag | Cpdag) -> str:
    lines = [str(g.p)]
    if isinstance(g, Dag):
        lines += [f"{a} {b}" for a, b in sorted(g.edges)]
    else:
        entries = [(a, b, "") for a, b in g.directed]
        entries += [(a, b, " u") for a, b in g.undirected]
        lines += [f"{a} {b}{u}" for a, b, u in sorted(entries)]
    return "\n".join(lines) + "\n"


def write_graph(g: Dag | Cpdag, path) -> None:
    Path(path).write_text(format_graph(g))


def _parse_graph_lines(text: str, where: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise DataFormatError(f"{where}: empty graph file")
    lineno, head = lines[0]
    try:
        p = int(head)
    except ValueError:
        raise DataFormatError(f"{where}:{lineno}: expected node count, got {head!r}") from None
    directed, undirected = [], []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 3 and parts[2] == "u":
            bucket = undirected
        elif len(parts) == 2:
            bucket = directed
        else:
            raise DataFormatError(f"{where}:{lineno}: expected 'parent child [u]', got {ln!r}")
        try:
            bucket.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DataFormatError(f"{where}:{lineno}: non-integer node in {ln!r}") from None
    return p, directed, undirected


def read_dag(path) -> Dag:
    p, directed, undirected = _parse_graph_lines(Path(path).read_text(), str(path))
    if undirected:
        raise DataFormatError(f"{path}: undirected edges not allowed in a DAG file")
    return Dag(p, frozenset(directed))


def read_cpdag(path) -> Cpdag:
    p, directed, undirected = _parse_graph_lines(Path(path).read_text(), str(path))
    return Cpdag(p, frozenset(directed), frozenset(undirected))
