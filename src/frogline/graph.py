"""Implicit finite-graph families: d-ary trees, complete graphs, cycles.

Adjacency is index arithmetic, never stored, so graphs with millions of
vertices cost nothing to build. Trees use heap order: vertex 0 is the root,
the children of v are d*v+1 .. d*v+d, and the parent of v > 0 is
(v-1) // d. The frog-model origin is a runtime parameter elsewhere; it is
not part of the graph.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FamilyError, ParameterError

TREE = "tree"
COMPLETE = "complete"
CYCLE = "cycle"


@dataclass(frozen=True)
class GraphDescriptor:
    family: str
    d: int = 0  # branching factor, trees only
    n: int = 0  # depth (trees) or vertex count (complete, cycle)

    def __post_init__(self):
        if self.family == TREE:
            if self.d < 2:
                raise ParameterError("tree needs d >= 2, got d=%r" % (self.d,))
            if self.n < 1:
                raise ParameterError("tree needs depth n >= 1, got n=%r" % (self.n,))
        elif self.family == COMPLETE:
            if self.n < 2:
                raise ParameterError("complete graph needs n >= 2, got n=%r" % (self.n,))
        elif self.family == CYCLE:
            if self.n < 3:
                raise ParameterError("cycle needs n >= 3, got n=%r" % (self.n,))
        else:
            raise ParameterError("unknown graph family %r" % (self.family,))
        if self.vertex_count >= 2 ** 63:
            raise ParameterError("%s has more vertices than int64 ids cover"
                                 % (self.label(),))

    @property
    def vertex_count(self):
        if self.family == TREE:
            return (self.d ** (self.n + 1) - 1) // (self.d - 1)
        return self.n

    def label(self):
        """Canonical descriptor string, same grammar the CLI parses."""
        if self.family == TREE:
            return "tree:d=%d,n=%d" % (self.d, self.n)
        return "%s:n=%d" % (self.family, self.n)


def parse_fields(text, usage):
    """The family and the {key: int} fields of `text`, in the grammar
    family:key=<int>,...; ParameterError(usage) when it does not parse."""
    try:
        family, _, rest = text.partition(":")
        pairs = [part.partition("=") for part in rest.split(",")]
        kv = {key.strip(): int(val) for key, _, val in pairs}
    except (ValueError, AttributeError):
        raise ParameterError(usage) from None
    # a repeated key would otherwise let the last one win
    if len(kv) < len(pairs):
        raise ParameterError("repeated key in %r" % (text,))
    return family, kv


def parse_descriptor(text):
    """Parse `tree:d=<int>,n=<int>` | `complete:n=<int>` | `cycle:n=<int>`."""
    family, kv = parse_fields(text, "cannot parse graph descriptor %r"
                              % (text,))
    if family == TREE:
        if set(kv) != {"d", "n"}:
            raise ParameterError("tree descriptor needs d= and n=, got %r" % (text,))
        return GraphDescriptor(TREE, d=kv["d"], n=kv["n"])
    if family in (COMPLETE, CYCLE):
        if set(kv) != {"n"}:
            raise ParameterError("%s descriptor needs n= only, got %r" % (family, text))
        return GraphDescriptor(family, n=kv["n"])
    raise ParameterError("unknown graph family in %r" % (text,))


def build_graph(descriptor):
    """Materialize a handle for the described graph family."""
    if descriptor.family == TREE:
        return TreeGraph(descriptor)
    if descriptor.family == COMPLETE:
        return CompleteGraph(descriptor)
    return CycleGraph(descriptor)


class GraphHandle:
    """Immutable view of one graph; safe to share across concurrent trials.
    Each family's subclass gives `degree`, `neighbors` and `degrees_array`."""

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.vertex_count = descriptor.vertex_count
        self.family = descriptor.family
        # dtype of vertex ids in walk paths: half the bytes of int64 whenever
        # every id fits
        self.index_dtype = np.int32 if self.vertex_count < 2 ** 31 else np.int64

    def check_vertex(self, v):
        if not 0 <= v < self.vertex_count:
            raise IndexError("vertex %r outside [0, %d)" % (v, self.vertex_count))

    def label(self):
        return self.descriptor.label()


class TreeGraph(GraphHandle):
    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.d = descriptor.d
        self.n = descriptor.n
        # level_starts[l] = first index on level l; one past-the-end sentinel
        d, n = self.d, self.n
        starts = [(d ** l - 1) // (d - 1) for l in range(n + 2)]
        self.level_starts = np.asarray(starts, dtype=np.int64)
        self.first_leaf = starts[n]

    def parent(self, v):
        self.check_vertex(v)
        if v == 0:
            return None
        return (v - 1) // self.d

    def children(self, v):
        self.check_vertex(v)
        if v >= self.first_leaf:
            return []
        return list(range(self.d * v + 1, self.d * v + self.d + 1))

    def level(self, v):
        self.check_vertex(v)
        return int(np.searchsorted(self.level_starts, v, side="right")) - 1

    def is_leaf(self, v):
        self.check_vertex(v)
        return v >= self.first_leaf

    def leaves(self):
        return np.arange(self.first_leaf, self.vertex_count, dtype=np.int64)

    def degree(self, v):
        self.check_vertex(v)
        if v == 0:
            return self.d
        if v >= self.first_leaf:
            return 1
        return self.d + 1

    def neighbors(self, v):
        self.check_vertex(v)
        out = [] if v == 0 else [(v - 1) // self.d]
        return out + self.children(v)

    def meet(self, x, y):
        """Deepest common ancestor under heap order; meet(x, x) = x."""
        self.check_vertex(x)
        self.check_vertex(y)
        lx, ly = self.level(x), self.level(y)
        while lx > ly:
            x = (x - 1) // self.d
            lx -= 1
        while ly > lx:
            y = (y - 1) // self.d
            ly -= 1
        while x != y:
            x = (x - 1) // self.d
            y = (y - 1) // self.d
        return x

    def levels_array(self, vs):
        vs = np.asarray(vs, dtype=np.int64)
        return np.searchsorted(self.level_starts, vs, side="right").astype(np.int64) - 1

    def degrees_array(self, vs):
        vs = np.asarray(vs, dtype=np.int64)
        deg = np.full(vs.shape, self.d + 1, dtype=np.int64)
        deg[vs == 0] = self.d
        deg[vs >= self.first_leaf] = 1
        return deg


class CompleteGraph(GraphHandle):
    def degree(self, v):
        self.check_vertex(v)
        return self.vertex_count - 1

    def neighbors(self, v):
        self.check_vertex(v)
        return [u for u in range(self.vertex_count) if u != v]

    def degrees_array(self, vs):
        vs = np.asarray(vs, dtype=np.int64)
        return np.full(vs.shape, self.vertex_count - 1, dtype=np.int64)


class CycleGraph(GraphHandle):
    def degree(self, v):
        self.check_vertex(v)
        return 2

    def neighbors(self, v):
        self.check_vertex(v)
        n = self.vertex_count
        return sorted({(v - 1) % n, (v + 1) % n})

    def degrees_array(self, vs):
        vs = np.asarray(vs, dtype=np.int64)
        return np.full(vs.shape, 2, dtype=np.int64)


def require_tree(g, what):
    """`g`, when it is a tree; `what` is defined on trees only."""
    if g.family != TREE:
        raise FamilyError("%s is defined on trees only, not on %s"
                          % (what, g.label()))
    return g


def resolve_origin(g, spec):
    """Map a CLI origin spec (index, 'root', or 'leaf') to a vertex id."""
    if spec == "root":
        return 0
    if spec == "leaf":
        return require_tree(g, "origin 'leaf'").vertex_count - 1
    try:
        v = int(spec)
    except (TypeError, ValueError) as exc:
        raise ParameterError("bad origin %r" % (spec,)) from exc
    if not 0 <= v < g.vertex_count:
        raise ParameterError("origin %d outside [0, %d)" % (v, g.vertex_count))
    return v
