"""DAGs, orderings, CPDAGs, equivalence-class conversion, and graph distances.

Nodes are integers 0..p-1. A directed edge is the ordered pair (parent, child);
undirected edges are stored canonically as (low, high). A DAG is converted to
its CPDAG by Chickering's edge labeling (UAI 1995) in one pass over the nodes
in topological order, O(p + |E|·max in-degree); no orientation rules are run.
A Dag stores one thing, its read-only p x p bool adjacency mask, entry
[parent, child] set for each edge; ``Dag.edges`` is a read-only set view over
that mask, equal to and hashing as the frozenset of its (parent, child) pairs,
iterated in sorted order; a Cpdag stores two such views, the second over the
(low, high) mask of its undirected edges. The distance between two DAGs counts
the entries where their masks differ, and between two CPDAGs the node pairs
whose two entries in the PDAG mask differ. A node count and every node id must
be an integer (numpy integers count, bools do not), and every edge a pair of
them; anything else raises ValidationError naming the value.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
import operator
from collections.abc import Set
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, ValidationError, read_text, write_text


def _is_int(x) -> bool:
    """True for an int or numpy integer, False for a bool or anything else."""
    # the type test first: an isinstance check against the ABC costs ten times as much
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _node(x) -> int:
    """``x`` as a node id: an int, or ValidationError naming the value."""
    if not _is_int(x):
        raise ValidationError(f"node id must be an integer, got {x!r}")
    return int(x)


def _nodes(ids) -> tuple[int, ...]:
    """``ids`` as a tuple of node ids, each checked by :func:`_node`."""
    ids = tuple(ids)
    # plain ints, the common case, are checked at C speed
    return ids if set(map(type, ids)) <= {int} else tuple(map(_node, ids))


def _node_count(p) -> int:
    """``p`` as a node count: an int >= 0, or ValidationError naming the value."""
    if not (_is_int(p) and p >= 0):
        raise ValidationError(f"node count must be a non-negative integer, got {p!r}")
    return int(p)


def _edge_mask(p: int, edges, undirected: bool = False) -> np.ndarray:
    """The p x p bool mask of ``edges``, each checked: a pair of node ids in
    0..p-1 that is not a self-loop. An undirected pair is set at (low, high)."""
    try:
        edges = iter(edges)
    except TypeError:
        raise ValidationError(f"edges must be a collection of pairs, got {edges!r}") from None
    adj = np.zeros((p, p), dtype=bool)
    for edge in edges:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise ValidationError(f"edge must be a (parent, child) pair, got {edge!r}") from None
        a, b = _node(a), _node(b)
        if undirected and a > b:
            a, b = b, a
        if a == b:
            raise ValidationError(f"self-loop at node {a}")
        if not (0 <= a < p and 0 <= b < p):
            raise ValidationError(f"edge ({a},{b}) out of range for p={p}")
        adj[a, b] = True
    return adj


def _mask(p: int, edges) -> np.ndarray:
    """The p x p bool matrix with entry [parent, child] set for each edge."""
    ends = np.fromiter(itertools.chain.from_iterable(edges), np.intp, 2 * len(edges))
    adj = np.zeros((p, p), dtype=bool)
    adj[ends[0::2], ends[1::2]] = True
    return adj


def _rows(mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The columns set in each row of ``mask``, as a tuple per row."""
    rows, cols = np.nonzero(mask)
    cols = cols.tolist()
    ends = np.searchsorted(rows, np.arange(1, len(mask) + 1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))


class _Index(NamedTuple):
    """Adjacency of a Dag: Kahn topological order (None if cyclic), and the
    parents and children of each node as sorted tuples."""

    topo: tuple[int, ...] | None
    parents: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]


class _EdgeView(Set):
    """Read-only set of the (row, column) pairs of a bool adjacency mask.

    Equal to, and hashing as, the frozenset of the same pairs; set operators
    return frozensets. Membership reads one mask entry, the size counts the
    set entries, and iteration runs in row-major order, which is sorted order.
    Nothing is cached: the mask, made read-only, is the only thing stored.
    """

    __slots__ = ("_mask",)

    def __init__(self, mask: np.ndarray):
        mask.flags.writeable = False
        self._mask = mask

    def __contains__(self, edge) -> bool:
        try:
            a, b = map(operator.index, edge)
        except (TypeError, ValueError):
            return False
        p = len(self._mask)
        return 0 <= a < p and 0 <= b < p and bool(self._mask[a, b])

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __iter__(self):
        parents, children = np.nonzero(self._mask)
        return zip(parents.tolist(), children.tolist())

    def __eq__(self, other):
        if isinstance(other, _EdgeView) and other._mask.shape == self._mask.shape:
            return bool(np.array_equal(self._mask, other._mask))
        return super().__eq__(other)

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"edges({list(self)})"

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)


class _Graph:
    """Base of Dag and Cpdag, frozen dataclasses whose first field is the node
    count ``p`` and each further field a read-only _EdgeView over a bool mask;
    each defines ``_adjacency``, its p x p mask in pcalg's [parent, child] form."""

    def _store(self, p: int, *masks: np.ndarray):
        object.__setattr__(self, "p", p)
        for f, mask in zip(fields(self)[1:], masks):
            object.__setattr__(self, f.name, _EdgeView(mask))
        return self

    @classmethod
    def _trusted(cls, p: int, *masks: np.ndarray):
        """A graph over ``masks``, one per edge field, kept and made read-only.

        Skips the validation of ``__post_init__``: each mask is p x p with a
        zero diagonal. A Dag's holds no directed cycle unless :meth:`Dag._acyclic`
        is called on the result, as for a learned graph whose edges all point
        forward along an ordering; a Cpdag's are valid, the undirected one set at
        (low, high) only, as for the output of :func:`dag_to_cpdag`.
        """
        return object.__new__(cls)._store(p, *masks)

    def skeleton(self) -> frozenset[tuple[int, int]]:
        low, high = np.nonzero(np.triu(self._adjacency | self._adjacency.T))
        return frozenset(zip(low.tolist(), high.tolist()))


@dataclass(frozen=True)
class Dag(_Graph):
    """Directed acyclic graph; the constructor verifies the edges are in range,
    free of self-loops and acyclic. ``edges`` is a read-only set view over the
    stored mask that compares and hashes as a frozenset of pairs."""

    p: int
    edges: Set[tuple[int, int]]

    def __post_init__(self):
        p = _node_count(self.p)
        self._store(p, _edge_mask(p, self.edges))._acyclic()

    def _acyclic(self) -> Dag:
        """This Dag, or ValidationError if its edges hold a directed cycle."""
        if self._index.topo is None:
            raise ValidationError("edge set contains a directed cycle")
        return self

    @property
    def _adjacency(self) -> np.ndarray:
        # entry [parent, child] is True for each edge
        return self.edges._mask

    @cached_property
    def _index(self) -> _Index:
        # built on first use, so a trusted Dag that is only compared or
        # counted never pays for it; not a dataclass field, so equality and
        # hashing still see only (p, edges); tuples: a frozenset per node
        # would nearly triple a 10-node Dag's memory
        parents, children = _rows(self._adjacency.T), _rows(self._adjacency)
        # Kahn's algorithm doubles as the acyclicity check
        order = _kahn(parents, children)
        return _Index(None if order is None else tuple(order), parents, children)

    # like _index, built on first use and shared read-only
    @cached_property
    def _ordering(self) -> Ordering:
        return Ordering(self._index.topo)

    @cached_property
    def _descendant_mask(self) -> np.ndarray:
        # one pass in reverse topological order unions {c} and row c over the
        # children c of j, on int bitsets unpacked into the matrix at the end
        topo, _, children = self._index
        bits = [0] * self.p
        for j in reversed(topo):
            for c in children[j]:
                bits[j] |= bits[c] | (1 << c)
        width = (self.p + 7) // 8
        raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), np.uint8)
        mask = np.unpackbits(raw.reshape(self.p, width), axis=1, count=self.p,
                             bitorder="little").view(bool)
        mask.flags.writeable = False
        return mask

    def _node_in_range(self, j) -> int:
        """``j`` as a node id of this Dag, or ValidationError naming it."""
        j = _node(j)
        if not 0 <= j < self.p:
            raise ValidationError(f"node {j} out of range for p={self.p}")
        return j

    def parents(self, j: int) -> frozenset[int]:
        return frozenset(self._index.parents[self._node_in_range(j)])

    def children(self, j: int) -> frozenset[int]:
        return frozenset(self._index.children[self._node_in_range(j)])


@dataclass(frozen=True)
class Ordering:
    """A permutation of 0..p-1; position i holds the i-th variable."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = _nodes(self.order)
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
class Cpdag(_Graph):
    """Markov-equivalence-class representative: compelled edges directed;
    stored, like a Dag, as read-only masks, undirected edges at (low, high)."""

    p: int
    directed: Set[tuple[int, int]]
    undirected: Set[tuple[int, int]] = field(default=frozenset())

    def __post_init__(self):
        p = _node_count(self.p)
        d, u = _edge_mask(p, self.directed), _edge_mask(p, self.undirected, undirected=True)
        if (u & (d | d.T)).any():
            raise ValidationError("a pair appears both directed and undirected")
        if (d & d.T).any():
            raise ValidationError("both orientations of one pair are directed")
        # the compelled edges of an equivalence class form a DAG
        Dag._trusted(p, d)._acyclic()
        self._store(p, d, u)

    @property
    def _adjacency(self) -> np.ndarray:
        # the PDAG mask, as in pcalg: both entries set for an undirected pair
        return self.directed._mask | self.undirected._mask | self.undirected._mask.T


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
    """Parents-before-children ordering, ties broken by smallest node index;
    built once per graph."""
    return g._ordering


def descendants(g: Dag, j: int) -> frozenset[int]:
    """All nodes reachable from j by directed paths, excluding j itself."""
    children = g._index.children
    seen: set[int] = set()
    stack = list(children[g._node_in_range(j)])
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            stack.extend(children[k])
    return frozenset(seen)


def descendant_mask(g: Dag) -> np.ndarray:
    """Read-only boolean p x p matrix whose row j marks ``descendants(g, j)``;
    built once per graph, in one pass over the nodes in reverse topological
    order."""
    return g._descendant_mask


def is_consistent(ordering: Sequence[int], g: Dag) -> bool:
    """True iff every edge points from earlier to later in the ordering; after
    the length check, one that is not a permutation raises ValidationError."""
    if len(ordering) != g.p:
        raise ValidationError(f"ordering of length {len(ordering)} for p={g.p}")
    if not isinstance(ordering, Ordering):
        ordering = Ordering(ordering)
    pos = np.empty(g.p, dtype=np.intp)
    pos[list(ordering.order)] = np.arange(g.p)
    parents, children = np.nonzero(g._adjacency)
    return bool(np.all(pos[parents] < pos[children]))


def vstructures(g: Dag) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (a, c, b) with a->c<-b, a<b, and a,b non-adjacent."""
    adjacent = g._adjacency | g._adjacency.T
    return frozenset(
        (a, c, b)
        for c in range(g.p)
        for a, b in itertools.combinations(g._index.parents[c], 2)
        if not adjacent[a, b]
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
    for i, j in enumerate(g._index.topo):
        pos[j] = i
    pa = list(map(frozenset, g._index.parents))
    compelled: list[frozenset[int]] = [frozenset()] * g.p
    directed: list[tuple[int, int]] = []
    for y in g._index.topo:
        pa_y = pa[y]
        if not pa_y:
            continue
        x = max(pa_y, key=pos.__getitem__)
        if compelled[x] <= pa_y and pa_y - {x} <= pa[x]:
            compelled[y] = compelled[x]
        else:
            compelled[y] = pa_y
        directed += [(z, y) for z in compelled[y]]
    # the edges of g not compelled are reversible, kept at (low, high); edges
    # of a valid Dag, so the Cpdag needs no re-validation
    d = _mask(g.p, directed)
    reversible = g._adjacency & ~d
    return Cpdag._trusted(g.p, d, (reversible | reversible.T) & ~np.tri(g.p, dtype=bool))


def hamming_dag(g_true: Dag, g_est: Dag, *, reversal_as_one: bool = False) -> int:
    """Missing plus extra directed edges; a reversed edge costs 2 by default.

    Counts the entries where the two graphs' adjacency masks differ.
    ``reversal_as_one`` switches to the common SHD variant where a reversal
    counts once: it subtracts the edges of ``g_true`` that ``g_est`` holds
    reversed, the entries set in both the true mask and the estimate's
    transpose.
    """
    if g_true.p != g_est.p:
        raise ValidationError(f"node counts differ: {g_true.p} vs {g_est.p}")
    a_true, a_est = g_true._adjacency, g_est._adjacency
    diff = int(np.count_nonzero(a_true != a_est))
    if reversal_as_one:
        diff -= int(np.count_nonzero(a_true & a_est.T))
    return diff


def hamming_cpdag(c_true: Cpdag, c_est: Cpdag) -> int:
    """Count pairs whose orientation kind (absent/undirected/direction) differs:
    the pairs {i, j} whose PDAG-mask entries [i, j], [j, i] differ, a one-to-one
    code of the four kinds (neither set, either direction, or both)."""
    if c_true.p != c_est.p:
        raise ValidationError(f"node counts differ: {c_true.p} vs {c_est.p}")
    diff = c_true._adjacency != c_est._adjacency
    # symmetric with a zero diagonal, so each differing pair is set twice
    return int(np.count_nonzero(diff | diff.T)) // 2


# --- graph text format -------------------------------------------------------
# First line: p. One line per edge: "parent child", 0-based; undirected CPDAG
# edges carry a trailing "u". Edges are written sorted, so write/read/write is
# byte-identical.


def format_graph(g: Dag | Cpdag) -> str:
    adj = g._adjacency
    lines = [str(g.p)]
    # row-major order is sorted order; a pair set both ways is undirected and
    # written once, at its (low, high) entry
    heads, tails = np.nonzero(adj)
    for a, b, both in zip(heads.tolist(), tails.tolist(), adj.T[adj].tolist()):
        if not both:
            lines.append(f"{a} {b}")
        elif a < b:
            lines.append(f"{a} {b} u")
    return "\n".join(lines) + "\n"


def write_graph(g: Dag | Cpdag, path) -> None:
    write_text(path, format_graph(g))


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
    p, directed, undirected = _parse_graph_lines(read_text(path), str(path))
    if undirected:
        raise DataFormatError(f"{path}: undirected edges not allowed in a DAG file")
    try:
        return Dag(p, frozenset(directed))
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_cpdag(path) -> Cpdag:
    p, directed, undirected = _parse_graph_lines(read_text(path), str(path))
    try:
        return Cpdag(p, frozenset(directed), frozenset(undirected))
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
