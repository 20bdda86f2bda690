"""Combinatorial simplicial complexes assembled from top-dimensional cells.

Simplexes are stored per dimension as lexicographically sorted tuples of
vertex ids, so every simplex has a dense, stable (dimension, index) id.
Orientation bookkeeping uses the sorted vertex order: the boundary of a
simplex picks up the sign (-1)**position for the face obtained by deleting
the vertex at that position.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sparse

from .errors import (
    BrokenCycle,
    DuplicateCell,
    InconsistentOrientation,
    NonManifold,
)


class SimplexId(NamedTuple):
    """Dense reference to a simplex: dimension and per-dimension index."""

    dim: int
    index: int


@dataclass(frozen=True)
class Hinge:
    """A codimension-2 simplex with its ordered star of top cells.

    For an interior hinge ``star`` lists the incident top cells in cyclic
    order (consecutive cells share a codimension-1 face containing the
    hinge, and so do the last and the first).  For a boundary hinge it is
    an open chain from one boundary face to the other.
    """

    simplex: SimplexId
    star: tuple[SimplexId, ...]
    is_boundary: bool


class SimplicialComplex:
    """Pure combinatorics of a simplicial complex of dimension ``d``.

    Instances are built with :func:`build_complex` and are immutable in
    practice: incidence tables are computed during construction, and the
    face index tables (:meth:`edge_ids`, :attr:`top_hinges`) and the
    boundary matrices once, on first use.
    """

    def __init__(self, dim: int, skeletons: list[list[tuple[int, ...]]]):
        self.dim = dim
        self.simplex_tuples: list[list[tuple[int, ...]]] = skeletons
        self.index: list[dict[tuple[int, ...], int]] = [
            {s: i for i, s in enumerate(sk)} for sk in skeletons
        ]
        self.simplices: list[np.ndarray] = [
            np.array(sk, dtype=np.int64).reshape(len(sk), k + 1)
            for k, sk in enumerate(skeletons)
        ]
        self._build_incidence()
        self._find_boundary()
        self._hinges: list[Hinge] | None = None
        self._edge_ids: dict[int, np.ndarray] = {}
        self._boundary: dict[int, sparse.csr_array] = {}
        self.orientable, self.orientation = self._orient()

    # -- construction helpers -------------------------------------------

    def _build_incidence(self) -> None:
        d = self.dim
        # facets[k][i, j] = index of the face of simplex i opposite its
        # j-th vertex (in sorted order); cofacets inverts that table.
        self.facets: list[np.ndarray | None] = [None]
        self.cofacets: list[list[list[tuple[int, int]]] | None] = []
        for k in range(1, d + 1):
            idx = self.index[k - 1]
            tab = np.empty((len(self.simplex_tuples[k]), k + 1), dtype=np.int64)
            for i, s in enumerate(self.simplex_tuples[k]):
                for j in range(k + 1):
                    tab[i, j] = idx[s[:j] + s[j + 1:]]
            self.facets.append(tab)
        for k in range(d):
            co: list[list[tuple[int, int]]] = [[] for _ in self.simplex_tuples[k]]
            tab = self.facets[k + 1]
            for i in range(tab.shape[0]):
                for j in range(k + 2):
                    co[tab[i, j]].append((i, j))
            self.cofacets.append(co)
        self.cofacets.append(None)

    def _find_boundary(self) -> None:
        d = self.dim
        self.is_boundary: list[np.ndarray] = [
            np.zeros(len(sk), dtype=bool) for sk in self.simplex_tuples
        ]
        counts = np.array([len(c) for c in self.cofacets[d - 1]])
        if (counts > 2).any():
            i = int(np.argmax(counts > 2))
            raise NonManifold(
                f"{d - 1}-simplex {self.simplex_tuples[d - 1][i]} has "
                f"{counts[i]} top cofaces"
            )
        self.is_boundary[d - 1][:] = counts == 1
        for k in range(d - 2, -1, -1):
            flag = self.is_boundary[k]
            upper = self.is_boundary[k + 1]
            tab = self.facets[k + 1]
            for i in np.nonzero(upper)[0]:
                flag[tab[i]] = True

    def _orient(self) -> tuple[bool, np.ndarray | None]:
        # Try to 2-color the top cells so that every interior
        # codimension-1 face receives opposite induced orientations.
        d = self.dim
        n = len(self.simplex_tuples[d])
        sign = np.zeros(n, dtype=np.int64)
        ok = True
        for seed in range(n):
            if sign[seed]:
                continue
            sign[seed] = 1
            stack = [seed]
            while stack:
                t = stack.pop()
                for j in range(d + 1):
                    f = self.facets[d][t, j]
                    for t2, j2 in self.cofacets[d - 1][f]:
                        if t2 == t:
                            continue
                        want = -sign[t] * (-1) ** j * (-1) ** j2
                        if sign[t2] == 0:
                            sign[t2] = want
                            stack.append(t2)
                        elif sign[t2] != want:
                            ok = False
        return ok, (sign if ok else None)

    # -- queries ---------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplex_tuples[k])

    def simplex(self, s: SimplexId) -> tuple[int, ...]:
        return self.simplex_tuples[s.dim][s.index]

    def id_of(self, vertices: Iterable[int]) -> SimplexId:
        t = tuple(sorted(vertices))
        return SimplexId(len(t) - 1, self.index[len(t) - 1][t])

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1))

    def faces(self, s: SimplexId, k: int) -> list[SimplexId]:
        """All k-dimensional faces of ``s`` (k <= dim of ``s``)."""
        if not 0 <= k <= s.dim:
            raise ValueError(f"no {k}-faces on a {s.dim}-simplex")
        verts = self.simplex(s)
        idx = self.index[k]
        return [
            SimplexId(k, idx[c]) for c in itertools.combinations(verts, k + 1)
        ]

    def cofaces(self, s: SimplexId, k: int) -> list[SimplexId]:
        """All k-dimensional simplexes containing ``s`` (k >= dim of ``s``)."""
        if not s.dim <= k <= self.dim:
            raise ValueError(f"no {k}-cofaces of a {s.dim}-simplex in dim {self.dim}")
        ids = {s.index}
        for j in range(s.dim, k):
            ids = {t for i in ids for t, _ in self.cofacets[j][i]}
        sv = set(self.simplex(s))
        return [
            SimplexId(k, i)
            for i in sorted(ids)
            if sv.issubset(self.simplex_tuples[k][i])
        ]

    def boundary_matrix(self, k: int) -> sparse.csr_array:
        """Signed incidence of k-simplexes onto their (k-1)-faces.

        Entry [f, s] is (-1)**j when f is the face of s opposite its j-th
        vertex.  Matrices compose to zero over the integers.  Each is
        built once, on first use, and its entries are read-only.
        """
        if not 1 <= k <= self.dim:
            raise ValueError(f"no boundary matrix for k={k}")
        B = self._boundary.get(k)
        if B is None:
            n = self.n_simplices(k)
            signs = np.tile((-1) ** np.arange(k + 1, dtype=np.int64), n)
            B = sparse.csr_array(
                (signs, (self.facets[k].ravel(), np.repeat(np.arange(n), k + 1))),
                shape=(self.n_simplices(k - 1), n),
            )
            B.data.flags.writeable = False
            self._boundary[k] = B
        return B

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
        """Hinge index opposite every vertex-position pair (i, j), i < j, of
        every top cell.

        Shape (n_top, C(d+1, 2)); column order is
        ``itertools.combinations(range(d + 1), 2)``.  Entry (t, (i, j)) is
        ``facets[d-1][facets[d][t, j], i]``.
        """
        d = self.dim
        if d < 2:
            raise ValueError("hinges need dimension >= 2")
        tab = np.stack(
            [
                self._face_index(d, tuple(r for r in range(d + 1) if r not in p))
                for p in itertools.combinations(range(d + 1), 2)
            ],
            axis=1,
        )
        tab.flags.writeable = False
        return tab

    # -- hinges ----------------------------------------------------------

    def hinges(self) -> list[Hinge]:
        """All codimension-2 simplexes with ordered stars (``dim >= 2``)."""
        if self.dim < 2:
            raise ValueError("hinges need dimension >= 2")
        if self._hinges is None:
            self._hinges = [
                self._make_hinge(i) for i in range(self.n_simplices(self.dim - 2))
            ]
        return self._hinges

    def _make_hinge(self, h: int) -> Hinge:
        d = self.dim
        hv = set(self.simplex_tuples[d - 2][h])
        tops = [t.index for t in self.cofaces(SimplexId(d - 2, h), d)]
        # Each top cell around the hinge has exactly two codim-1 faces
        # containing it; walking across those faces orders the star.
        ridge_pair: dict[int, tuple[int, int]] = {}
        ridge_tops: dict[int, list[int]] = {}
        fidx = self.index[d - 1]
        for t in tops:
            extra = [v for v in self.simplex_tuples[d][t] if v not in hv]
            r = tuple(
                fidx[tuple(sorted(hv | {x}))] for x in extra
            )
            ridge_pair[t] = r  # type: ignore[assignment]
            for f in r:
                ridge_tops.setdefault(f, []).append(t)
        ends = [f for f, ts in ridge_tops.items() if len(ts) == 1]
        name = self.simplex_tuples[d - 2][h]
        if len(ends) not in (0, 2):
            raise BrokenCycle(f"hinge {name}: star splits into several fans")
        if ends:
            start_face = min(ends)
            cur = ridge_tops[start_face][0]
            prev_face = start_face
        else:
            cur = tops[0]
            prev_face = ridge_pair[cur][0]
        order = [cur]
        while True:
            a, b = ridge_pair[cur]
            nxt_face = b if a == prev_face else a
            cands = [t for t in ridge_tops[nxt_face] if t != cur]
            if not cands:
                break  # reached the opposite boundary face
            cur = cands[0]
            if cur == order[0] and not ends:
                break  # cycle closed
            order.append(cur)
            prev_face = nxt_face
        if len(order) != len(tops):
            raise BrokenCycle(f"hinge {name}: star does not close into one cycle")
        boundary = bool(self.is_boundary[d - 2][h])
        if bool(ends) != boundary:
            raise BrokenCycle(f"hinge {name}: open star on an interior hinge")
        return Hinge(
            simplex=SimplexId(d - 2, h),
            star=tuple(SimplexId(d, t) for t in order),
            is_boundary=boundary,
        )


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
    cells : sequence of sequences of int
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
    if len(cells) == 0:
        raise ValueError("at least one cell is required")
    seen: set[tuple[int, ...]] = set()
    tops: list[tuple[int, ...]] = []
    for c in cells:
        t = tuple(sorted(int(v) for v in c))
        if len(set(t)) != d + 1:
            raise ValueError(f"cell {tuple(c)} does not have {d + 1} distinct vertices")
        if t in seen:
            raise DuplicateCell(f"cell {t} supplied more than once")
        seen.add(t)
        tops.append(t)
    skeletons: list[list[tuple[int, ...]]] = [[] for _ in range(d + 1)]
    skeletons[d] = sorted(tops)
    level: set[tuple[int, ...]] = set(tops)
    for k in range(d - 1, -1, -1):
        lower = {s[:j] + s[j + 1:] for s in level for j in range(k + 2)}
        skeletons[k] = sorted(lower)
        level = lower
    c = SimplicialComplex(d, skeletons)
    if d >= 2:
        c.hinges()
    if require_orientation and not c.orientable:
        raise InconsistentOrientation("complex is not orientable")
    return c

