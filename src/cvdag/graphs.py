"""DAGs, orderings, CPDAGs, equivalence-class conversion, and graph distances.

Nodes are integers 0..p-1. A directed edge is the ordered pair (parent, child);
undirected edges are stored canonically as (low, high). A DAG is converted to
its CPDAG by Chickering's edge labeling (UAI 1995) in one pass over the nodes
in topological order; no orientation rules are run. That labeling, the
topological sort (Kahn's, smallest ready node first), the descendant mask and
the v-structures run on transient row bitsets: each call packs the mask, or
its transpose, into one Python int per node, bit j of row i set for entry
[i, j], with one ``np.packbits`` per orientation it reads, and drops them.
A Dag stores one thing, its read-only p x p bool adjacency mask, entry
[parent, child] set for each edge, and caches only its topological order and
descendant mask, nothing per node and no bitsets; ``Dag.edges`` is a
read-only set view over that mask, equal to and hashing as the frozenset of
its (parent, child) pairs, iterated in sorted order; a Cpdag stores two such
views, the second over the (low, high) mask of its undirected edges. The distance between two DAGs counts
the entries where their masks differ, and between two CPDAGs the node pairs
whose two entries in the PDAG mask differ. A node count and every node id must
be an integer (numpy integers count, bools do not), and every edge a pair of
them; anything else raises ValidationError naming the value.
"""

from __future__ import annotations

import operator
from collections.abc import Set
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (DataFormatError, ValidationError, _count_problem, _instance, _is_int, _located,
                     _sequence, read_text, write_text)


def _node(x) -> int:
    """``x`` as a node id: an int, or ValidationError naming the value."""
    if not _is_int(x):
        raise ValidationError(f"node id must be an integer, got {x!r}")
    return int(x)


def _node_count(p) -> int:
    """``p`` as a node count: an int >= 0, or ValidationError naming the value."""
    if problem := _count_problem(p, "node count"):
        raise ValidationError(problem)
    return int(p)


def _edge_mask(p: int, edges, undirected: bool = False) -> np.ndarray:
    """The p x p bool mask of ``edges``, each checked: a pair of node ids in
    0..p-1 that is not a self-loop. An undirected pair is set at (low, high)."""
    try:
        edges = iter(edges)
    except TypeError:
        raise ValidationError(f"edges must be a collection of pairs, got {edges!r}") from None
    adj = _square(p, bool)
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


def _square(p: int, dtype) -> np.ndarray:
    """A zeroed p x p array; ValidationError naming ``p`` if numpy cannot hold it."""
    try:
        return np.zeros((p, p), dtype=dtype)
    except (ValueError, MemoryError):
        raise ValidationError(f"node count p={p} is too large to hold a p x p matrix") from None


def _bitsets(mask: np.ndarray) -> list[int]:
    """Row i of the bool ``mask`` as the int whose bit j is entry [i, j]: each
    row packed into little-endian 64-bit words, joined high word first."""
    rows, cols = mask.shape
    packed = np.zeros((rows, 8 * max(1, -(-cols // 64))), np.uint8)
    packed[:, :(cols + 7) // 8] = np.packbits(mask, axis=1, bitorder="little")
    words = packed.view("<u8")
    bits = words[:, -1].tolist()
    for k in range(words.shape[1] - 2, -1, -1):
        bits = [b << 64 | w for b, w in zip(bits, words[:, k].tolist())]
    return bits


def _unpack(bits: list[int], p: int) -> np.ndarray:
    """The len(bits) x p bool matrix whose row i holds the low p bits of
    bits[i]; the inverse of :func:`_bitsets`."""
    width = (p + 7) // 8
    raw = np.frombuffer(b"".join([b.to_bytes(width, "little") for b in bits]), np.uint8)
    return np.unpackbits(raw.reshape(len(bits), width), axis=1, count=p,
                         bitorder="little").view(bool)


def _members(bits: int) -> list[int]:
    """The indices of the set bits of ``bits``, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@lru_cache(maxsize=16)
def _upper(p: int) -> np.ndarray:
    """The read-only p x p bool mask of the entries above the diagonal."""
    mask = ~np.tri(p, dtype=bool)
    mask.flags.writeable = False
    return mask


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
    each defines ``_adjacency``, its p x p mask in pcalg's [parent, child] form,
    and gets ``_edge_fields``, the names of its edge fields, read once below."""

    _edge_fields: tuple[str, ...]

    def _store(self, p: int, *masks: np.ndarray):
        object.__setattr__(self, "p", p)
        for name, mask in zip(self._edge_fields, masks):
            object.__setattr__(self, name, _EdgeView(mask))
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
        if self._ordering is None:
            raise ValidationError("edge set contains a directed cycle")
        return self

    @property
    def _adjacency(self) -> np.ndarray:
        # entry [parent, child] is True for each edge
        return self.edges._mask

    @cached_property
    def _ordering(self) -> Ordering | None:
        # Kahn's order, None if cyclic, so it doubles as the acyclicity check;
        # built on first use, so a trusted Dag that is only compared or
        # counted never pays for it; not a dataclass field, so equality and
        # hashing still see only (p, edges)
        order = _kahn(_bitsets(self._adjacency.T))
        return None if order is None else Ordering(order)

    # like _ordering, built on first use and shared read-only
    @cached_property
    def _descendant_mask(self) -> np.ndarray:
        # one pass in reverse topological order unions the children of j and
        # their rows, on transient row bitsets unpacked into the matrix
        children = _bitsets(self._adjacency)
        reach = [0] * self.p
        for j in reversed(self._ordering.order):
            below = rest = children[j]
            while rest:
                bit = rest & -rest
                rest ^= bit
                below |= reach[bit.bit_length() - 1]
            reach[j] = below
        mask = _unpack(reach, self.p)
        mask.flags.writeable = False
        return mask

    def _node_in_range(self, j) -> int:
        """``j`` as a node id of this Dag, or ValidationError naming it."""
        j = _node(j)
        if not 0 <= j < self.p:
            raise ValidationError(f"node {j} out of range for p={self.p}")
        return j

    def parents(self, j: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._adjacency[:, self._node_in_range(j)]).tolist())

    def children(self, j: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._adjacency[self._node_in_range(j)]).tolist())


@dataclass(frozen=True)
class Ordering:
    """A permutation of 0..p-1; position i holds the i-th variable."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = _sequence(self.order, "ordering")
        # node ids checked by _node; plain ints, the common case, at C speed
        if not set(map(type, order)) <= {int}:
            order = tuple(map(_node, order))
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


for _cls in (Dag, Cpdag):
    _cls._edge_fields = tuple(f.name for f in fields(_cls)[1:])
del _cls


def _kahn(parents: list[int]) -> tuple[int, ...] | None:
    """Topological sort of the graph with these parent row bitsets, smallest
    ready node first; None if cyclic. Each step places the first node, in
    index order, whose parents are all placed."""
    placed, out, left = 0, [], list(range(len(parents)))
    while left:
        for i, j in enumerate(left):
            if not parents[j] & ~placed:
                break
        else:
            return None
        del left[i]
        out.append(j)
        placed |= 1 << j
    return tuple(out)


def topological_order(g: Dag) -> Ordering:
    """Parents-before-children ordering, ties broken by smallest node index;
    built once per graph."""
    return _instance(g, "topological_order needs", Dag)._ordering


def descendants(g: Dag, j: int) -> frozenset[int]:
    """All nodes reachable from j by directed paths, excluding j itself: row j
    of :func:`descendant_mask`."""
    g = _instance(g, "descendants needs", Dag)
    return frozenset(np.flatnonzero(g._descendant_mask[g._node_in_range(j)]).tolist())


def descendant_mask(g: Dag) -> np.ndarray:
    """Read-only boolean p x p matrix whose row j marks the nodes reachable
    from j by directed paths; built once per graph, in one pass over the
    nodes in reverse topological order."""
    return _instance(g, "descendant_mask needs", Dag)._descendant_mask


def _ordering(pi, p: int) -> Ordering:
    """``pi`` as an Ordering of ``p`` nodes; ValidationError where it has
    another length, checked first, or is not a permutation of 0..p-1."""
    order = pi.order if isinstance(pi, Ordering) else _sequence(pi, "ordering")
    if len(order) != p:
        raise ValidationError(f"ordering of length {len(order)} for p={p}")
    return pi if isinstance(pi, Ordering) else Ordering(order)


def is_consistent(ordering: Sequence[int], g: Dag) -> bool:
    """True iff every edge points from earlier to later in the ordering, read
    by :func:`_ordering`."""
    ordering = _ordering(ordering, _instance(g, "is_consistent needs", Dag).p)
    pos = np.empty(g.p, dtype=np.intp)
    pos[list(ordering.order)] = np.arange(g.p)
    parents, children = np.nonzero(g._adjacency)
    return bool(np.all(pos[parents] < pos[children]))


def vstructures(g: Dag) -> frozenset[tuple[int, int, int]]:
    """Unshielded colliders (a, c, b) with a->c<-b, a<b, and a,b non-adjacent."""
    parents = _bitsets(g._adjacency.T)
    adjacent = [pa | ch for pa, ch in zip(parents, _bitsets(g._adjacency))]
    return frozenset(
        (a, c, b)
        for c, pa in enumerate(parents)
        for a in _members(pa)
        # the parents of c above a that are not adjacent to a
        if (far := (pa >> a + 1 << a + 1) & ~adjacent[a])
        for b in _members(far)
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
    exactly the edges w->y with w->x compelled are. Each node's step is a few
    operations on parent bitsets. No orientation rules (Meek, UAI 1995) are
    needed.
    """
    topo = _instance(g, "dag_to_cpdag needs", Dag)._ordering.order
    # bit w of pa[y], and of compelled[y], for each such edge w->y
    pa = _bitsets(g._adjacency.T)
    compelled = [0] * g.p
    for i, y in enumerate(topo):
        if pa_y := pa[y]:
            # x, the parent of y placed last: the first one back along topo
            k = i - 1
            while not pa_y >> topo[k] & 1:
                k -= 1
            x = topo[k]
            c = compelled[x]
            compelled[y] = pa_y if c & ~pa_y or (pa_y ^ 1 << x) & ~pa[x] else c
    # the edges of g not compelled are reversible, kept at (low, high); edges
    # of a valid Dag, so the Cpdag needs no re-validation
    d = _unpack(compelled, g.p).T
    reversible = g._adjacency & ~d
    return Cpdag._trusted(g.p, d, (reversible | reversible.T) & _upper(g.p))


def _comparable(kind: type, a, b) -> None:
    """ValidationError unless ``a`` and ``b`` are both ``kind`` on as many nodes."""
    if not (isinstance(a, kind) and isinstance(b, kind)):
        raise ValidationError(f"expected two {kind.__name__}s, got"
                              f" {type(a).__name__} and {type(b).__name__}")
    if a.p != b.p:
        raise ValidationError(f"node counts differ: {a.p} vs {b.p}")


def hamming_dag(g_true: Dag, g_est: Dag) -> int:
    """Missing plus extra directed edges, so a reversed edge costs 2: the
    entries where the two graphs' adjacency masks differ."""
    _comparable(Dag, g_true, g_est)
    return int(np.count_nonzero(g_true._adjacency != g_est._adjacency))


def hamming_cpdag(c_true: Cpdag, c_est: Cpdag) -> int:
    """Count pairs whose orientation kind (absent/undirected/direction) differs:
    the pairs {i, j} whose PDAG-mask entries [i, j], [j, i] differ, a one-to-one
    code of the four kinds (neither set, either direction, or both)."""
    _comparable(Cpdag, c_true, c_est)
    diff = c_true._adjacency != c_est._adjacency
    # symmetric with a zero diagonal, so each differing pair is set twice
    return int(np.count_nonzero(diff | diff.T)) // 2


# --- graph text format -------------------------------------------------------
# First line: p. One line per edge: "parent child", 0-based; undirected CPDAG
# edges carry a trailing "u". Edges are written sorted, so write/read/write is
# byte-identical.


def format_graph(g: Dag | Cpdag) -> str:
    adj = _instance(g, "graph text needs", Dag, Cpdag)._adjacency
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
    return _located(path, Dag, p, frozenset(directed))


def read_cpdag(path) -> Cpdag:
    p, directed, undirected = _parse_graph_lines(read_text(path), str(path))
    return _located(path, Cpdag, p, frozenset(directed), frozenset(undirected))
