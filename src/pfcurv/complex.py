"""Combinatorial simplicial complexes assembled from top-dimensional cells.

As in PyDEC's ``simplicial_complex`` (Bell & Hirani, ACM TOMS 2012),
``simplices[k]`` holds the k-simplexes as sorted vertex rows in
lexicographic order, giving each a dense, stable (dimension, index) id, and
``facets[k][i, j]`` indexes the face of k-simplex i opposite its j-th
vertex, which picks up the boundary sign (-1)**j.  The facet table with a
weight per slot is an incidence operator: :meth:`SimplicialComplex.scatter`
applies it and :meth:`SimplicialComplex.gather` its transpose, so no
matrix is ever built.  Tuple views and the orientation are built from
these on first use.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BrokenCycle,
    DuplicateCell,
    InconsistentOrientation,
    NonManifold,
    UnsupportedRequest,
)


class SimplexId(NamedTuple):
    """Dense reference to a simplex: dimension and per-dimension index."""

    dim: int
    index: int


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, and the position of every
    input row among them."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    start = np.ones(len(srt), dtype=bool)
    start[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    return srt[start], inverse


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by the
    edges (a, b): the smallest node id in the component.

    Min-label propagation with pointer jumping; the number of rounds is
    bounded by the component diameter.
    """
    lab = np.arange(n)
    while True:
        low = np.minimum(lab[a], lab[b])
        new = lab.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _matches(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions a, b with key[a] == key[b], for keys that occur at most
    twice."""
    order = np.argsort(key, kind="stable")
    same = np.flatnonzero(key[order][1:] == key[order][:-1])
    return order[same], order[same + 1]


class SimplicialComplex:
    """Pure combinatorics of a simplicial complex of dimension ``d``.

    Instances are built with :func:`build_complex` and are immutable.
    ``simplices``, ``facets`` and ``is_boundary`` are read-only arrays
    set at construction; the face index tables (:meth:`edge_ids`,
    :attr:`top_hinges`), the tuple views and the orientation are built
    once, on first use.
    """

    def __init__(self, dim: int, simplices: list[np.ndarray], facets: list[np.ndarray | None]):
        self.dim = dim
        self.simplices = simplices
        self.facets = facets
        self._edge_ids: dict[int, np.ndarray] = {}
        self.is_boundary = self._find_boundary()
        for a in (*simplices, *facets[1:], *self.is_boundary):
            a.flags.writeable = False

    def _find_boundary(self) -> list[np.ndarray]:
        d = self.dim
        counts = np.bincount(self.facets[d].ravel(), minlength=self.n_simplices(d - 1))
        if (counts > 2).any():
            r = SimplexId(d - 1, int(np.argmax(counts > 2)))
            raise NonManifold(f"{d - 1}-simplex {self.simplex(r)} has {counts[r.index]} top cofaces")
        flags = [np.zeros(len(s), dtype=bool) for s in self.simplices]
        flags[d - 1] = counts == 1
        for k in range(d - 2, -1, -1):
            flags[k][self.facets[k + 1][flags[k + 1]].ravel()] = True
        return flags

    # -- views built on first use ----------------------------------------

    @functools.cached_property
    def simplex_tuples(self) -> list[list[tuple[int, ...]]]:
        """Every simplex as a tuple of plain ints, per dimension."""
        return [[tuple(r) for r in s.tolist()] for s in self.simplices]

    @functools.cached_property
    def index(self) -> list[dict[tuple[int, ...], int]]:
        """Per dimension, the index of each simplex keyed by its tuple."""
        return [{s: i for i, s in enumerate(sk)} for sk in self.simplex_tuples]

    # -- queries ---------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    def simplex(self, s: SimplexId) -> tuple[int, ...]:
        return tuple(self.simplices[s.dim][s.index].tolist())

    def id_of(self, vertices: Iterable[int]) -> SimplexId:
        t = tuple(sorted(vertices))
        return SimplexId(len(t) - 1, self.index[len(t) - 1][t])

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1))

    def faces(self, s: SimplexId, k: int) -> list[SimplexId]:
        """All k-dimensional faces of ``s`` (k <= dim of ``s``)."""
        if not 0 <= k <= s.dim:
            raise ValueError(f"no {k}-faces on a {s.dim}-simplex")
        combos = itertools.combinations(self.simplex(s), k + 1)
        return [SimplexId(k, self.index[k][c]) for c in combos]

    def cofaces(self, s: SimplexId, k: int) -> list[SimplexId]:
        """All k-dimensional simplexes containing ``s`` (k >= dim of ``s``)."""
        if not s.dim <= k <= self.dim:
            raise ValueError(f"no {k}-cofaces of a {s.dim}-simplex in dim {self.dim}")
        hits = np.isin(self.simplices[k], self.simplices[s.dim][s.index]).sum(axis=1)
        return [SimplexId(k, int(i)) for i in np.flatnonzero(hits == s.dim + 1)]

    def scatter(self, k: int, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Apply the incidence operator of ``facets[k]``: entry f of the
        result sums weights[s, j] x[s] over the k-simplexes s whose j-th
        facet is f.

        The default weights, the boundary signs (-1)**j, make this the
        boundary B_k; :class:`~pfcurv.geometry.MetricComplex` passes its
        elevations for the chain step W_k.  Integer input with integer
        weights stays integer.
        """
        table, weights = self._operator(k, weights)
        vals = np.asarray(x)[:, None] * weights
        out = np.zeros(self.n_simplices(k - 1), dtype=vals.dtype)
        np.add.at(out, table.ravel(), vals.ravel())
        return out

    def gather(self, k: int, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Apply the transpose of :meth:`scatter`: entry s of the result
        sums weights[s, j] y[f] over the facets f of the k-simplex s."""
        table, weights = self._operator(k, weights)
        return (np.asarray(y)[table] * weights).sum(axis=1)

    def _operator(self, k: int, weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The facet table of the k-simplexes and its slot weights, by
        default the boundary signs."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"no facet table for k={k} in dim {self.dim}")
        return self.facets[k], (-1) ** np.arange(k + 1) if weights is None else weights

    # -- face index tables -----------------------------------------------

    def _face_index(self, k: int, keep: tuple[int, ...]) -> np.ndarray:
        """Index of the face of every k-simplex spanned by its vertices at
        the sorted positions ``keep``.

        Deleting positions from the highest down leaves the lower ones in
        place, so each deletion is one gather through a facet table.
        """
        idx = np.arange(self.n_simplices(k))
        for r in range(k, -1, -1):
            if r not in keep:
                idx = self.facets[k][idx, r]
                k -= 1
        return idx

    def edge_ids(self, k: int) -> np.ndarray:
        """Edge index of every vertex-position pair of every k-simplex.

        Shape (n_k, C(k+1, 2)); column order is
        ``itertools.combinations(range(k + 1), 2)``.
        """
        if not 1 <= k <= self.dim:
            raise ValueError(f"no edges on a {k}-simplex in dim {self.dim}")
        tab = self._edge_ids.get(k)
        if tab is None:
            pairs = itertools.combinations(range(k + 1), 2)
            tab = np.stack([self._face_index(k, p) for p in pairs], axis=1)
            tab.flags.writeable = False
            self._edge_ids[k] = tab
        return tab

    @functools.cached_property
    def top_hinges(self) -> np.ndarray:
        """Index of the hinge opposite every vertex-position pair (i, j), i < j, of
        every top cell.

        Shape (n_top, C(d+1, 2)); column order is
        ``itertools.combinations(range(d + 1), 2)``.  Entry (t, (i, j)) is
        ``facets[d-1][facets[d][t, j], i]``.
        """
        d = self.dim
        if d < 2:
            raise UnsupportedRequest("hinges need dimension >= 2")
        tab = np.stack(
            [
                self._face_index(d, tuple(r for r in range(d + 1) if r not in p))
                for p in itertools.combinations(range(d + 1), 2)
            ],
            axis=1,
        )
        tab.flags.writeable = False
        return tab

    # -- hinge stars -----------------------------------------------------

    def _check_stars(self) -> None:
        """Raise :class:`BrokenCycle` unless the top cells around every
        hinge are connected across ridges through that hinge.

        Node t * P + p stands for top cell t at hinge column p = (i, j) of
        :attr:`top_hinges`; its two ridges through the hinge are the
        facets opposite i and opposite j.  With no ridge on more than two
        top cells, each node links to at most two others, so one component
        per hinge means each star is a single cycle or a single open chain,
        and it is open exactly when the hinge lies on a boundary ridge.
        """
        d = self.dim
        i, j = np.array(list(itertools.combinations(range(d + 1), 2))).T
        F = self.facets[d]
        # a ridge and its one vertex outside the hinge name the incidence:
        # v_j sits at position j - 1 of the facet opposite i, and v_i at
        # position i of the facet opposite j
        a, b = _matches(np.stack([F[:, i] * d + j - 1, F[:, j] * d + i], axis=2).ravel())
        lab = _components(F.shape[0] * len(i), a // 2, b // 2)
        roots = self.top_hinges.ravel()[lab == np.arange(len(lab))]
        broken = np.bincount(roots, minlength=self.n_simplices(d - 2)) != 1
        if broken.any():
            h = SimplexId(d - 2, int(np.argmax(broken)))
            raise BrokenCycle(f"hinge {self.simplex(h)}: star splits into several fans")

    # -- orientation -----------------------------------------------------

    @functools.cached_property
    def orientation(self) -> np.ndarray | None:
        """Sign of every top cell in a consistent orientation (the lowest
        cell of each connected piece is +1), or None if there is none.

        Top cell t has two sheets, t (+) and n + t (-).  Cells t, t2 that
        meet at ridge positions j, j2 induce opposite ridge orientations
        when sign[t2] = -sign[t] (-1)**(j + j2); joining the sheets that
        satisfy this gives the signed double cover, and the complex is
        orientable when no cell has both sheets in one component.
        """
        d, n = self.dim, self.n_simplices(self.dim)
        p, q = _matches(self.facets[d].ravel())
        t, t2 = p // (d + 1), q // (d + 1)
        flip = (p % (d + 1) + q % (d + 1)) % 2 == 0
        a = np.concatenate([t, t + n])
        b = np.concatenate([np.where(flip, t2 + n, t2), np.where(flip, t2, t2 + n)])
        lab = _components(2 * n, a, b)
        plus, minus = lab[:n], lab[n:]
        if (plus == minus).any():
            return None
        return np.where(plus < minus, 1, -1)

    @property
    def orientable(self) -> bool:
        return self.orientation is not None


def build_complex(
    dimension: int,
    cells: Sequence[Sequence[int]],
    *,
    require_orientation: bool = False,
) -> SimplicialComplex:
    """Build a simplicial complex from its top-dimensional cells.

    Parameters
    ----------
    dimension : int
        Dimension d of the cells (each cell lists d+1 distinct vertex ids).
    cells : sequence of sequences of int, or an int array of shape (n, d+1)
        Top cells; vertex ids are arbitrary integers.
    require_orientation : bool
        Raise :class:`InconsistentOrientation` when no globally consistent
        orientation of the top cells exists.

    Manifoldness is validated eagerly: any codimension-1 simplex with more
    than two top cofaces raises :class:`NonManifold`, and a hinge whose
    star is not a single cycle or chain raises :class:`BrokenCycle`.
    """
    d = dimension
    if d < 1:
        raise ValueError("dimension must be >= 1")
    given = np.asarray(cells, dtype=np.int64)
    if given.ndim != 2 or given.shape[1] != d + 1 or not len(given):
        raise ValueError(f"cells must be a nonempty list of {d + 1} vertex ids each")
    top = np.sort(given, axis=1)
    repeated = (top[:, 1:] == top[:, :-1]).any(axis=1)
    if repeated.any():
        i = int(np.argmax(repeated))
        raise ValueError(f"cell {tuple(given[i].tolist())} does not have {d + 1} distinct vertices")
    simplices, facets = [None] * (d + 1), [None] * (d + 1)
    simplices[d], where = _unique_rows(top)
    if len(simplices[d]) < len(top):
        i = int(np.argmax(np.bincount(where) > 1))
        raise DuplicateCell(f"cell {tuple(simplices[d][i].tolist())} supplied more than once")
    for k in range(d, 0, -1):
        # row j of ``drop`` lists the positions that remain after deleting j
        drop = np.array([[c for c in range(k + 1) if c != j] for j in range(k + 1)])
        simplices[k - 1], inverse = _unique_rows(simplices[k][:, drop].reshape(-1, k))
        facets[k] = inverse.reshape(-1, k + 1)
    c = SimplicialComplex(d, simplices, facets)
    if d >= 2:
        c._check_stars()
    if require_orientation and not c.orientable:
        raise InconsistentOrientation("complex is not orientable")
    return c
