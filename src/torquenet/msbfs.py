"""Multi-source breadth-first search over packed bitsets.

A level set is an (n, words) array of little-endian uint64 words, one row
per node: bit s of row v (word s // 64, bit s % 64) is set once a walk from
source s has reached v. Level 0 is the identity, every node having reached
itself. One more level ORs into each row the rows of the node's
in-neighbours,

    R_d = R_{d-1} | bitwise_or.reduceat(R_{d-1}[tail], starts)

over the arcs grouped by head, so the breadth-first searches from all n
sources advance one hop together in a few numpy calls (the MS-BFS of Then
et al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
PVLDB 2014). A graph with one layer removed is a mask over the arcs'
layer-support counts, not a new graph.

Only numpy 1.24 APIs are used: set bits are counted through a byte lookup
table, and per-source counts through unpackbits.
"""

from __future__ import annotations

import numpy as np

WORD = np.dtype("<u8")
_BITS = 64
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    """Level 0: row v holds source v alone."""
    out = np.zeros((n, -(-n // _BITS)), dtype=WORD)
    v = np.arange(n)
    out[v, v // _BITS] = np.ones(n, dtype=WORD) << (v % _BITS).astype(WORD)
    return out


def popcount(bits: np.ndarray) -> int:
    """Number of set bits in the array."""
    return int(_POPCOUNT8[np.ascontiguousarray(bits).view(np.uint8)].sum())


def source_matrix(bits: np.ndarray, n: int) -> np.ndarray:
    """Unpacked bitsets: out[r, s] is bit s of row r, as a bool matrix."""
    octets = np.ascontiguousarray(bits).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def source_counts(bits: np.ndarray, n: int) -> np.ndarray:
    """Per source s, the number of rows whose bit s is set (int64)."""
    return source_matrix(bits, n).sum(axis=0, dtype=np.int64)


class Gather:
    """Arcs grouped by head: the in-neighbour lists one level reads."""

    __slots__ = ("heads", "starts", "tail")

    def __init__(self, head: np.ndarray, tail: np.ndarray):
        # head is non-decreasing, so each head's arcs form one reduceat segment
        self.starts = np.flatnonzero(np.diff(head, prepend=-1))
        self.heads = head[self.starts]
        self.tail = tail

    def step(self, reached: np.ndarray, src: np.ndarray | None = None) -> np.ndarray:
        """The next level: reached, plus src's rows ORed along every arc."""
        out = reached.copy()
        if len(self.tail):
            src = reached if src is None else src
            # np.take: several times faster than src[self.tail] on small rows
            out[self.heads] |= np.bitwise_or.reduceat(np.take(src, self.tail, axis=0),
                                                      self.starts, axis=0)
        return out


class ArcSet:
    """Directed arcs tail -> head, each with the layers that carry it."""

    __slots__ = ("head", "tail", "support", "_arc", "_layer")

    def __init__(self, n: int, tail: np.ndarray, head: np.ndarray,
                 layer: np.ndarray, n_layers: int):
        n, n_layers = max(n, 1), max(n_layers, 1)
        keys, arc_of = np.unique(np.asarray(head, dtype=np.int64) * n + tail,
                                 return_inverse=True)
        self.head, self.tail = np.divmod(keys, n)
        carried = np.unique(arc_of * n_layers + layer)
        self._arc, self._layer = np.divmod(carried, n_layers)
        self.support = np.bincount(self._arc, minlength=len(keys))

    def gather(self, excluded_layer: int | None = None) -> Gather:
        """The arcs still carried by some layer once excluded_layer is gone."""
        if excluded_layer is None:
            return Gather(self.head, self.tail)
        lost = np.zeros(len(self.head), dtype=np.int64)
        lost[self._arc[self._layer == excluded_layer]] = 1
        keep = self.support > lost
        return Gather(self.head[keep], self.tail[keep])


def levels(gather: Gather, n: int, depth: int | None = None,
           interior: np.ndarray | None = None) -> list[np.ndarray]:
    """Level sets R_0..R_depth of the breadth-first searches from every node.

    With depth None the search runs to its fixed point and the last level
    returned is the reachability closure. interior, a boolean mask over
    the nodes, restricts path interiors: from level 2 on, only rows of
    nodes in the mask pass sources on. Endpoints are exempt.
    """
    out = [identity(n)]
    while depth is None or len(out) <= depth:
        cur = out[-1]
        src = cur if interior is None or len(out) == 1 \
            else np.where(interior[:, None], cur, WORD.type(0))
        nxt = gather.step(cur, src)
        if depth is None and np.array_equal(nxt, cur):
            break
        out.append(nxt)
    return out
