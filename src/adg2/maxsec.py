"""Positive sections of a signature-(3, b) pairing over a 3-d box and the
discrete area functional whose critical points are the maximal sections.

A section is sampled on a rectangular grid with values in R^(3+b), the
width of its pairing, and extended by trilinear interpolation.  The area
integrand det^(1/3) of the derivative Gram matrix is integrated cell by
cell with the full 2x2x2 Gauss rule on the interpolant.  Two properties of
this discretization carry the test suite: affine sections are exactly
critical (the integral of the gradient of an interior-supported
perturbation vanishes element-wise), and the rule has no hourglass modes
(checkerboard perturbations are visible at the off-center Gauss points), so
the discrete critical point with affine boundary data is the affine section
itself.  grad_area assembles the exact gradient of the discrete functional,
so the solver converges to genuine discrete critical points and the
finite-difference oracle matches it to rounding.

The residual norm reported by the solver is isometry-invariant: at each
interior node the Q-dual gradient vector is measured in the positive
definite metric that agrees with Q on the tangent 3-plane of the section
and with -Q on its Q-orthogonal complement.  Composing the section with any
Q-isometry leaves this norm unchanged, which is the computable form of the
duality statement for maximal sections.  Its nodewise derivatives are the
interior of gauge.diff, the grid half's one derivative stencil, written by
gauge.central (gauge._path_trapezoid is its one path rule).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .gauge import _base_values, base_map_from_json, central
from .jsondoc import array, at, member, numbers

SIG_PLUS = 3


class PositivityError(ValueError):
    """The derivative Gram matrix is not positive definite.  `cell` (i, j, k)
    and `gauss` (an index into _GAUSS_PTS) name the failing point with the
    smallest eigenvalue, `min_eig`."""

    def __init__(self, cell, gauss, min_eig):
        self.cell = tuple(int(i) for i in cell)
        self.gauss = int(gauss)
        self.min_eig = float(min_eig)
        super().__init__(
            f"derivative Gram matrix not positive definite in cell {self.cell}"
            f" at Gauss point {self.gauss} (min eigenvalue {self.min_eig:.3e})")


class SolveError(RuntimeError):
    pass


def standard_pairing(b: int = 19) -> np.ndarray:
    """diag(1, 1, 1, -1, ..., -1) of signature (3, b): K3's b = 19, T^4's 3."""
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"b must be an integer >= 1, got {b!r}")
    q = -np.eye(SIG_PLUS + b)
    q[:SIG_PLUS, :SIG_PLUS] = np.eye(SIG_PLUS)
    return q


def check_pairing(q: np.ndarray) -> np.ndarray:
    """q as floats, if symmetric and square of signature (3, b), b >= 1."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or not np.allclose(q, q.T, atol=1e-12):
        raise ValueError("pairing must be a symmetric square matrix")
    eig = np.linalg.eigvalsh(q)
    if np.sum(eig > 0) != SIG_PLUS or not 0 < np.sum(eig < 0) == len(q) - SIG_PLUS:
        raise ValueError("pairing must have signature (3, b) with b >= 1")
    return q


@dataclass
class SectionGrid:
    """Grid-sampled map from a box in R^3 to R^(3+b), paired by Q of signature (3, b)."""

    values: np.ndarray  # (n1, n2, n3, 3 + b)
    spacing: tuple[float, float, float]
    pairing: np.ndarray = field(default_factory=standard_pairing)

    def __post_init__(self):
        self.pairing = check_pairing(self.pairing)
        self.values, self.spacing = _base_values(self.values, self.spacing, len(self.pairing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape[:3]

    def copy(self) -> "SectionGrid":
        return replace(self, values=self.values.copy())

    def interior_mask(self) -> np.ndarray:
        m = np.zeros(self.dims, dtype=bool)
        m[_INTERIOR] = True
        return m


_CORNERS = [(o1, o2, o3) for o1 in (0, 1) for o2 in (0, 1) for o3 in (0, 1)]
_GAUSS_1D = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
_GAUSS_PTS = [(a, b, c) for a in _GAUSS_1D for b in _GAUSS_1D for c in _GAUSS_1D]
_INTERIOR = (slice(1, -1),) * 3  # index of the interior nodes


@functools.cache
def _shape_gradient_table(spacing: tuple) -> np.ndarray:
    """d(N_corner)/d(t_axis) at each Gauss point of the unit cell, shape (8
    gauss, 8 corners, 3 axes), for the trilinear shape functions N_o(xi) =
    prod_d (xi_d if o_d else 1 - xi_d); built once per spacing, read-only."""
    table = np.empty((8, 8, 3))
    for gi, xi in enumerate(_GAUSS_PTS):
        for ci, o in enumerate(_CORNERS):
            for ax in range(3):
                val = 1.0
                for d in range(3):
                    if d == ax:
                        val *= (1.0 if o[d] else -1.0) / spacing[d]
                    else:
                        val *= xi[d] if o[d] else 1.0 - xi[d]
                table[gi, ci, ax] = val
    table.setflags(write=False)
    return table


# the entries (i, j), i <= j, that stand for a symmetric 3x3 matrix, and the
# weight of each in the Frobenius product of two symmetric matrices
_SYM_ROWS = np.array([0, 1, 2, 0, 0, 1])
_SYM_COLS = np.array([0, 1, 2, 1, 2, 2])
_SYM_WEIGHT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
# _SYM_INDEX[i, j] is the position of entry (i, j) among them
_SYM_INDEX = np.empty((3, 3), dtype=int)
_SYM_INDEX[_SYM_ROWS, _SYM_COLS] = _SYM_INDEX[_SYM_COLS, _SYM_ROWS] = np.arange(6)


@functools.cache
def _tangent_table():
    """(rows, cols, table): the 21 products p_n = m_rows[n] m_cols[n] of
    two symmetric entries m of G^-1, and the (36, 21) table that takes them
    to the 6x6 matrix C (row-major) with E = C Js for E = (1/3) <Js, G^-1>
    G^-1 - G^-1 Js G^-1, where Js and E stand for their symmetric entries;
    the Frobenius weights of Js are folded in.  C is quadratic in G^-1, so
    products of w m with m give w C.  Built on first use, so that importing
    the module runs none of it."""
    rows, cols = np.triu_indices(6)
    sym = _SYM_INDEX
    pair = np.empty((6, 6), dtype=int)
    pair[rows, cols] = pair[cols, rows] = np.arange(21)
    table = np.zeros((6, 6, 21))
    for r, (a, b) in enumerate(zip(_SYM_ROWS, _SYM_COLS)):
        for k, (i, j) in enumerate(zip(_SYM_ROWS, _SYM_COLS)):
            table[r, k, pair[r, k]] += _SYM_WEIGHT[k] / 3.0
            table[r, k, pair[sym[a, i], sym[b, j]]] -= 0.5 * _SYM_WEIGHT[k]
            table[r, k, pair[sym[a, j], sym[b, i]]] -= 0.5 * _SYM_WEIGHT[k]
    return rows, cols, table.reshape(36, 21)


@functools.cache
def _cell_maps(spacing: tuple):
    """The two linear maps between a cell's 8x8 corner matrices and its
    Gauss-point 3x3 symmetric matrices, built once per spacing from the rows
    t2_g (3, 8) of the shape-gradient table: to_gauss (64, 48) takes R
    (row-major) to the symmetric entries (_SYM_ROWS, _SYM_COLS) of t2_g (R +
    R^T) t2_g^T at each Gauss point g, and to_cell (48, 64) takes the
    symmetric entries of E_g to sum_g t2_g^T E_g t2_g."""
    t2 = _shape_gradient_table(spacing).transpose(0, 2, 1)  # (8 gauss, 3, 8)
    to_gauss = np.empty((8, 8, 8, 6))
    to_cell = np.empty((8, 6, 8, 8))
    for g in range(8):
        for k, (i, j) in enumerate(zip(_SYM_ROWS, _SYM_COLS)):
            outer = np.outer(t2[g, i], t2[g, j])
            to_gauss[:, :, g, k] = outer + outer.T
            to_cell[g, k] = outer + outer.T if i != j else outer
    return to_gauss.reshape(64, 48), to_cell.reshape(48, 64)


def _sym(g: np.ndarray) -> list:
    """Views of the entries (_SYM_ROWS, _SYM_COLS) of the 3x3 matrices of g."""
    return [g[..., i, j] for i, j in zip(_SYM_ROWS, _SYM_COLS)]


def _det3(g00, g11, g22, g01, g02, g12):  # of symmetric matrices, from _sym
    return g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02) + g02 * (
        g01 * g12 - g11 * g02)


def _inv3(g: np.ndarray, det: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The symmetric entries (_SYM_ROWS, _SYM_COLS) of the inverse of each
    symmetric 3x3 matrix of g, read from its upper entries, into out if
    given; det is det g."""
    g00, g11, g22, g01, g02, g12 = _sym(g)
    out = np.stack([g11 * g22 - g12 * g12, g00 * g22 - g02 * g02,
                    g00 * g11 - g01 * g01, g02 * g12 - g01 * g22,
                    g01 * g12 - g02 * g11, g02 * g01 - g00 * g12], axis=-1, out=out)
    out /= det[..., None]
    return out


def _carve(*shapes) -> list:
    """Zeroed float arrays of the given shapes, views of one allocation."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.zeros(sum(sizes))
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def _corner_runs(nodes: np.ndarray, start: int, cells: int) -> list:
    """Cell (i, j, k) of nodes (n1, n2, n3, w) is padded cell p = (i n2 + j)
    n3 + k, its first node's flat index; a pad if j = n2 - 1 or k = n3 - 1,
    with boundary nodes at all its corners.  Corner o of padded cells start,
    ..., start + cells - 1 is a run of flat nodes, cut at the last real cell."""
    n1, n2, n3, width = nodes.shape
    offsets = [n2 * n3 * o1 + n3 * o2 + o3 for o1, o2, o3 in _CORNERS]
    flat = nodes.reshape(-1, width)
    stop = min(start + cells, len(flat) - offsets[-1])
    return [flat[start + o:stop + o] for o in offsets]


def _scatter(terms: np.ndarray, nodes: np.ndarray, start: int):
    """Add padded terms (8, cells, w) onto nodes from cell start on, corner
    after corner."""
    for run, term in zip(_corner_runs(nodes, start, terms.shape[1]), terms):
        run += term[:len(run)]


def _real_cells(terms: np.ndarray, dims) -> np.ndarray:
    """The real cells (slabs, n2 - 1, n3 - 1, 8, w) of padded (8, cells, w)."""
    return terms.reshape(8, -1, *dims[1:], terms.shape[-1])[:, :, :-1, :-1].transpose(1, 2, 3, 0, 4)


def _gram(s: SectionGrid, out=None):
    """The corner frames X (cells..., 8 corners, 3 + b), corner values less the
    first corner, the Q-dual frames Q^T X^T and the Gram matrices (cells...,
    8 gauss, 3, 3).  Each row t2_g of the shape-gradient table sums to zero,
    so the Gauss-point derivatives are dh_g = t2_g X and g_g = t2_g (X Q
    X^T) t2_g^T: half of to_gauss of an 8x8 product a cell, filled from its
    symmetric entries.

    Returns (X, Q^T X^T, g), written into out = (X, Q^T X^T, g, a flat
    scratch of 112 numbers a cell) if given."""
    to_gauss, _ = _cell_maps(s.spacing)
    cells = tuple(n - 1 for n in s.dims)
    size, width = int(np.prod(cells)), len(s.pairing)
    if out is None:
        out = _carve(cells + (8, width), cells + (width, 8), cells + (8, 3, 3), (112 * size,))
    frames, qframes, g, scratch = out
    n1, n2, n3 = s.dims
    first = s.values[:-1, :-1, :-1]
    for ci, (o1, o2, o3) in enumerate(_CORNERS):
        corner = s.values[o1:n1 - 1 + o1, o2:n2 - 1 + o2, o3:n3 - 1 + o3]
        np.subtract(corner, first, out=frames[..., ci, :])
    np.matmul(s.pairing.T, frames.swapaxes(-1, -2), out=qframes)
    prod = scratch[:64 * size].reshape(size, 64)
    gsym = scratch[64 * size:112 * size].reshape(size, 48)
    np.matmul(frames, qframes, out=prod.reshape(cells + (8, 8)))
    np.matmul(prod, to_gauss, out=gsym)
    gsym *= 0.5
    np.take(gsym.reshape(cells + (8, 6)), _SYM_INDEX, axis=-1, out=g)
    return frames, qframes, g


def _check_positive(g: np.ndarray):
    """Sylvester criterion at every quadrature point; cheap and vectorized."""
    e = _sym(g)
    m3 = _det3(*e)
    positive = (e[0] > 0) & (e[0] * e[1] - e[3] * e[3] > 0) & (m3 > 0)  # False for a NaN minor
    if not positive.all():
        bad = ~positive
        # name the failing point with the smallest eigenvalue; a point whose
        # Gram matrix is not finite has none, reads NaN and is named first
        g_bad = g[bad]
        finite = np.isfinite(g_bad).all(axis=(-2, -1))
        eig = np.full(len(g_bad), np.nan)
        eig[finite] = np.linalg.eigvalsh(g_bad[finite])[:, 0]
        worst = int(np.argmin(eig))
        *cell, gauss = np.argwhere(bad)[worst]
        raise PositivityError(cell, gauss, eig[worst])
    return m3


def _min_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric 3x3 matrix of g, from the
    trigonometric roots of its characteristic cubic (Smith, CACM 4(4),
    1961): with q = tr g / 3, p^2 = |g - q I|^2 / 6 and r = det(g - q I) /
    (2 p^3), it is q + 2 p cos(arccos(r) / 3 + 2 pi / 3), and q where p = 0.
    Near r = 1 the smallest root is nearly double and the formula keeps only
    half the digits, so those few matrices go to eigvalsh."""
    e = _sym(g)
    q = (e[0] + e[1] + e[2]) / 3.0
    b = [e[0] - q, e[1] - q, e[2] - q] + e[3:]
    p = np.sqrt(sum(w * x * x for w, x in zip(_SYM_WEIGHT, b)) / 6.0)
    scalar = p == 0.0
    r = np.clip(_det3(*b) / (2.0 * np.where(scalar, 1.0, p) ** 3), -1.0, 1.0)
    lam = np.where(scalar, q,
                   q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0))
    near = r > 1.0 - 1e-3
    if near.any():
        lam[near] = np.linalg.eigvalsh(g[near])[:, 0]
    return lam


def min_gram_eigenvalue(s: SectionGrid) -> float:
    return float(_min_eigenvalues(_gram(s)[2]).min())


class _Iterate:
    """A section s and its cell data, each computed once: X, Q^T X^T and g
    (_gram), det g (_check_positive, so a section that is not positive
    raises PositivityError), the symmetric entries of G^-1 and of A = w G^-1
    (w = (2/3) (Gauss weight) det^(1/3)), the 8x8 stiffness S = sum_g t2_g^T
    A_g t2_g, the area and its gradient grad.  The gradient's cell term
    sum_g t2_g^T A_g dh_g Q is S X Q: S X is summed onto the nodes, and Q
    applied once per node.

    The arrays are one allocation, made for the grid of s; load rebuilds
    them for another section on that grid, so one iterate serves a solve.
    X is held corner-major.  A scratch holds g (its first 72 numbers a
    cell), then _gram's 8x8 products and the padded S X, until
    _hessian_cache writes the tangent maps over it: g and tangent are two
    views of the scratch, and g is valid until then."""

    def __init__(self, s: SectionGrid):
        cells = tuple(n - 1 for n in s.dims)
        size, width = int(np.prod(cells)), len(s.pairing)
        padded = cells[0] * s.dims[1] * s.dims[2]
        (frames, self.qframes, self.ginv, self.a, self.stiff, self.scratch,
         self.nodes, self.grad) = _carve(
            (8, *cells, width), cells + (width, 8), cells + (8, 6), cells + (8, 6),
            cells + (8, 8), (max(288 * size, 72 * size + 8 * width * padded),),
            s.values.shape, s.values.shape)
        self.frames = np.moveaxis(frames, 0, -2)
        self.g = self.scratch[:72 * size].reshape(cells + (8, 3, 3))
        self.tangent = self.scratch[:288 * size].reshape(8, 36, size)
        self.load(s)

    def load(self, s: SectionGrid):
        """Rebuild the arrays for s; grad's boundary nodes stay zero."""
        self.s = s
        rest = self.scratch[self.g.size:]
        _gram(s, (self.frames, self.qframes, self.g, rest))
        det = _check_positive(self.g)
        weight = float(np.prod(s.spacing)) / 8.0
        cbrt = det ** (1.0 / 3.0)
        self.area = float(np.sum(cbrt) * weight)
        _inv3(self.g, det, out=self.ginv)
        np.multiply((weight * cbrt * (2.0 / 3.0))[..., None], self.ginv, out=self.a)
        _, to_cell = _cell_maps(s.spacing)
        np.matmul(self.a.reshape(-1, 48), to_cell, out=self.stiff.reshape(-1, 64))
        cells = len(self.frames) * s.dims[1] * s.dims[2]
        terms = rest[:8 * cells * len(s.pairing)].reshape(8, cells, -1)
        np.matmul(self.stiff, self.frames, out=_real_cells(terms, s.dims))
        self.nodes.fill(0.0)
        _scatter(terms, self.nodes, 0)
        np.matmul(self.nodes[_INTERIOR], s.pairing, out=self.grad[_INTERIOR])


def area(s: SectionGrid) -> float:
    """Gauss quadrature of det^(1/3) of the derivative Gram matrices."""
    return _Iterate(s).area


def grad_area(s: SectionGrid) -> np.ndarray:
    """Exact gradient of the discrete area w.r.t. interior node values.

    Returns an array shaped like values with zeros at boundary nodes (their
    values are Dirichlet data).
    """
    return _Iterate(s).grad


def residual_norm(s: SectionGrid) -> float:
    """Isometry-invariant sup norm of the Q-dual gradient over interior nodes.

    The gradient is first converted to a density (divided by the lumped node
    volume), so the tolerance means the same thing on every grid; the
    per-node norm then uses the positive definite metric adapted to the
    section: Q on the span of the nodewise derivatives, -Q on its
    Q-complement.  Every construction step commutes with Q-isometries, so
    composing the section with one leaves the value unchanged exactly.
    Where the nodewise derivative frame is not positive that metric is not
    either, and a negative squared norm counts as 0 (_residual counts those
    nodes).
    """
    return _residual(s, grad_area(s))[0]


def _residual(s: SectionGrid, grad: np.ndarray):
    """(residual_norm(s), given grad = grad_area(s), and the number of
    interior nodes whose squared norm was negative and counted as 0).

    With v the nodewise frame, G = v^T Q v and gd = Q^-1 grad / mass, the
    part of gd on the span of v is v G^-1 y, y = v^T grad / mass.  Its
    square is y^T G^-1 y and that of the rest y^T G^-1 y - <gd, gd>_Q, so
    the squared norm is 2 y^T G^-1 y - <gd, gd>_Q."""
    inner = grad[_INTERIOR]
    frame = np.empty((3,) + inner.shape)  # v, one contiguous derivative field at a time
    for i in range(3):  # the interior nodes of diff(s.values, ..., i, periodic=False)
        central(s.values.swapaxes(0, i)[:, 1:-1, 1:-1], s.spacing[i], frame[i].swapaxes(0, i))
    g = np.stack([(w @ s.pairing) @ w.swapaxes(-1, -2) for w in np.moveaxis(frame, 0, -2)])
    y = (np.moveaxis(frame, 0, -2) @ inner[..., None])[..., 0]
    del frame  # so that the norms' temporaries reuse its memory
    ginv = _inv3(g, _det3(*_sym(g)))
    sq = 2.0 * ((ginv * y[..., _SYM_ROWS] * y[..., _SYM_COLS]) @ _SYM_WEIGHT)
    sq -= np.sum((inner @ np.linalg.inv(s.pairing).T) * inner, axis=-1)
    negative = sq < 0
    sq[negative] = 0.0
    norm = float(np.sqrt(sq.max())) / float(np.prod(s.spacing)) if sq.size else 0.0
    return norm, int(np.count_nonzero(negative))


# largest entry of M^T Q M - Q that MuMap accepts, relative to max(1, |Q|)
_ISOMETRY_TOL = 1e-10


class MuMap:
    """A linear map preserving the pairing; composition acts nodewise."""

    def __init__(self, matrix: np.ndarray, pairing: np.ndarray | None = None):
        self.matrix = np.asarray(matrix, dtype=float)
        q = standard_pairing() if pairing is None else check_pairing(pairing)
        if self.matrix.shape != q.shape:
            raise ValueError("isometry must be square, of its pairing's size")
        defect = float(np.abs(self.matrix.T @ q @ self.matrix - q).max())
        if not defect <= _ISOMETRY_TOL * max(1.0, float(np.abs(q).max())):  # NaN fails
            raise ValueError(f"matrix is not a Q-isometry (defect {defect:.3e})")
        self.pairing = q

    @staticmethod
    def random(rng: np.random.Generator, b: int = 19) -> "MuMap":
        """Random isometry of standard_pairing(b): O(3) x O(b) followed by
        three boosts of rapidity at most 0.4."""
        q = standard_pairing(b)
        m = np.eye(SIG_PLUS + b)
        for k in (slice(SIG_PLUS), slice(SIG_PLUS, None)):  # the O(3) and O(b) blocks
            m[k, k] = np.linalg.qr(rng.normal(size=m[k, k].shape))[0]
        for _ in range(3):
            p = rng.integers(0, SIG_PLUS)
            n = rng.integers(SIG_PLUS, SIG_PLUS + b)
            t = rng.uniform(-0.4, 0.4)
            boost = np.eye(SIG_PLUS + b)
            boost[p, p] = boost[n, n] = np.cosh(t)
            boost[p, n] = boost[n, p] = np.sinh(t)
            m = boost @ m
        return MuMap(m, q)


def dualize(s: SectionGrid, psi: MuMap) -> SectionGrid:
    """Nodewise composition with an isometry; positivity is preserved."""
    p, q = psi.pairing, s.pairing
    if p.shape != q.shape or not np.allclose(p, q, atol=1e-10):
        raise ValueError(f"isometry and grid use different pairings (widths {len(p)} and {len(q)})")
    out = SectionGrid(s.values @ psi.matrix.T, s.spacing, s.pairing)
    _check_positive(_gram(out)[2])
    return out


def affine_section(dims, spacing, frame: np.ndarray | None = None,
                   pairing: np.ndarray | None = None) -> SectionGrid:
    """h(t) = frame @ t with Q-orthonormal positive frame columns."""
    q = standard_pairing() if pairing is None else check_pairing(pairing)
    if frame is None:
        frame = np.zeros((len(q), 3))
        frame[:SIG_PLUS, :] = np.eye(3)
    frame = np.asarray(frame, dtype=float)
    axes = [np.arange(n) * h for n, h in zip(dims, spacing)]
    tt = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return SectionGrid(tt @ frame.T, spacing, q)


@dataclass
class SolveResult:
    """The outcome of solve_dirichlet and the work it did.  The counters are
    those of the whole solve; gradients and hvps follow from them."""

    grid: SectionGrid
    converged: bool
    iterations: int
    residual: float
    history: list  # rows (iter, area, residual_norm, min_eig_G)
    message: str = ""
    krylov_per_step: list = field(default_factory=list)  # MINRES iterations, per step
    line_search_rejections: int = 0  # positive trials without P-norm decrease
    positivity_failures: int = 0  # trials that lost positivity
    # interior nodes whose squared residual norm was negative and counted as
    # 0, over every residual the solve evaluated (residual_norm)
    residual_clamped_nodes: int = 0
    # seconds per phase: "start" (the initial gradient and residual),
    # "krylov" (_newton_direction: Hessian data, preconditioner set-up and
    # MINRES), "line_search" (trial gradients, residuals and positivity
    # checks) and "history" (the history rows)
    phase_seconds: dict = field(default_factory=dict)

    @property
    def gradients(self) -> int:
        """Iterates built (_Iterate): the start and every line-search trial,
        each accepted, rejected or not positive."""
        return (1 + self.iterations + self.line_search_rejections
                + self.positivity_failures)

    @property
    def hvps(self) -> int:
        """Hessian-vector products: one per MINRES iteration."""
        return sum(self.krylov_per_step)


@contextlib.contextmanager
def _timed(phases: dict, key: str):
    """Add the seconds spent in the with-block to phases[key]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[key] += time.perf_counter() - t0


def solve_dirichlet(init: SectionGrid, tol: float = 1e-8,
                    max_iter: int = 500) -> SolveResult:
    """Drive the interior nodes to a discrete critical point of the area,
    holding the boundary values of `init` fixed.

    Each step solves the Newton system by MINRES with exact Hessian-vector
    products and the split preconditioner P, to the fixed forcing term
    ||g - H delta||_P <= _ETA ||g||_P (_newton_direction), then halves the
    step s until the trial keeps positivity and ||g(x + s delta)||_P < (1 -
    1e-4 s (1 - _ETA)) ||g(x)||_P, with the step's P: the sufficient
    decrease an inexact Newton step meets for small s (Eisenstat and Walker,
    SIAM J. Optim. 4, 1994).  P's scale cancels from both tests, and a step
    too small to move x fails the strict one.  SolveError names the
    iteration and the residual when MINRES breaks down (then also its own
    iteration and beta^2) or gives no usable direction, when positivity is
    lost at the minimum step, or when no step is accepted (then also the
    step's ||g||_P and its last trial's).

    Each history row is (iteration, area, residual, smallest Gram
    eigenvalue); the residual is residual_norm of the iterate.
    """
    phases = dict.fromkeys(("start", "krylov", "line_search", "history"), 0.0)
    with _timed(phases, "start"):
        it = _Iterate(init.copy())
        work = _Workspace(it.s)
        spare = it.s.copy()  # the node values of the next trial
        res, clamped = _residual(it.s, it.grad)
    out = SolveResult(it.s, False, 0, res, [], phase_seconds=phases,
                      residual_clamped_nodes=clamped)
    for n_iter in range(max(max_iter, 0) + 1):
        out.grid, out.iterations, out.residual = it.s, n_iter, res
        with _timed(phases, "history"):
            out.history.append((n_iter, it.area, res, float(_min_eigenvalues(it.g).min())))
        if res <= tol or n_iter >= max_iter:
            break
        with _timed(phases, "krylov"):
            try:
                delta, iters, precond, gnorm = _newton_direction(it, work)
            except SolveError as err:
                raise SolveError(f"no Newton direction at iteration {n_iter + 1} "
                                 f"(residual {res:.3e}): {err}") from err
        shrink = 1.0
        trial, spare = spare, out.grid
        with _timed(phases, "line_search"):
            # each trial is built into the spent iterate's arrays, and its
            # P-norm into MINRES's spent v; trial and the accepted section
            # share their boundary values
            for _ in range(60):
                np.multiply(delta, shrink, out=trial.values[_INTERIOR])
                trial.values[_INTERIOR] += out.grid.values[_INTERIOR]
                try:
                    it.load(trial)
                    res_trial, clamped = _residual(trial, it.grad)
                except PositivityError:
                    out.positivity_failures += 1
                    shrink *= 0.5
                    if shrink < 1e-10:
                        raise SolveError(
                            f"positivity lost at minimum step (iteration {n_iter + 1}, "
                            f"residual {res:.3e})")
                    continue
                out.residual_clamped_nodes += clamped
                g = it.grad[_INTERIOR]
                trial_gnorm = np.sqrt(np.vdot(g, precond(g, work.vectors[1])))
                if trial_gnorm < (1.0 - 1e-4 * shrink * (1.0 - _ETA)) * gnorm:
                    break
                out.line_search_rejections += 1
                shrink *= 0.5
            else:
                raise SolveError(f"no acceptable step at iteration {n_iter + 1} "
                                 f"(residual {res:.3e}; ||g||_P {gnorm:.3e} at the step, "
                                 f"{trial_gnorm:.3e} at its last trial)")
        res = res_trial
        out.krylov_per_step.append(iters)
    out.converged = res <= tol
    if not out.converged:
        out.message = f"max_iter reached with residual {res:.3e}"
    return out


# A Hessian-vector product runs over blocks of whole cell slabs (fixed first
# cell index) of at most this many cells where a slab allows, so that the
# block's buffers (4.6 KB a cell) and its share of the per-cell data (5.6
# KB a cell) stay near a 2 MB L2 cache.  On the padded layout (2-vCPU Xeon
# host, one BLAS thread, medians of 300 products), 256 and 384 were within
# 2% at 11^3, 128 was 11% and 512 to 1400 7-14% slower; 256 was best at 9^3
# and within 2% of the best at 17^3, where 2048 was 28% slower.
_BLOCK_CELLS = 256


class _Workspace:
    """What the Newton steps of one solve use besides the iterate, made once
    per solve for the grid and pairing of s: -Q, which _hessian_apply
    applies to its node sums, and in one allocation the zero-bordered nodes
    of delta, the block buffers of _hessian_apply, the preconditioner's
    symbol, DST-I matrices (_sine_symbol) and transform buffers, and the
    seven vectors of _minres, of the symbol's shape (n - 2)^3 x (3 + b)."""

    def __init__(self, s: SectionGrid):
        c1, c2, c3 = (n - 1 for n in s.dims)
        self.slabs = min(c1, max(1, _BLOCK_CELLS // (c2 * c3)))
        size, inner = self.slabs * c2 * c3, s.values[_INTERIOR].shape
        padded = (8, self.slabs * s.dims[1] * s.dims[2], inner[3])
        (self.delta, self.corners, self.r, self.js, self.e, self.m, self.sd, self.symbol,
         self.x, self.y, self.vectors) = _carve(
            s.values.shape, padded, (size, 64), (48, size), (48, size), (size, 64),
            padded, inner, inner, inner, (7,) + inner)
        self.sines = _sine_symbol(s, self.symbol)
        self.neg_q = -s.pairing


def _hessian_cache(it: _Iterate, work: _Workspace):
    """Write the per-cell data of the Hessian at the iterate it that the
    iterate does not already hold, once per Newton step, into it.tangent.

    The gradient's Gauss-point term A dh Q varies along delta by (A dd +
    E dh) Q, with dd = t2_g D the derivatives of delta at Gauss point g (D
    the cell's 8 corner values of delta, t2_g the 3x8 shape rows of g) and E
    linear in dd.  Per cell this is S D + M X with:
    - S = sum_g t2_g^T A_g t2_g, an 8x8 stiffness: the A-block acts alike on
      all 3 + b components, so one scalar matrix serves them all;
    - X the cell's corner frames (_gram), so dh = t2_g X and sum_g t2_g^T
      E_g dh = M X with M = sum_g t2_g^T E_g t2_g (_cell_maps' to_cell);
    - E = (2/3) tr(K) A - w (L + L^T), where K = dd Q dh^T G^-1 and L =
      G^-1 K.  With R = D (Q^T X^T) the 8x8 product of D with the cell's
      Q-dual frames Q^T X^T, J = dd Q dh^T = t2_g R t2_g^T, and E = w
      ((1/3) <Js, G^-1> G^-1 - G^-1 Js G^-1) for Js = J + J^T.  So the six
      entries of Js come from R by _cell_maps' to_gauss, and E_g = C_g Js_g
      with a 6x6 C_g per Gauss point (_tangent_table).
    S, X and Q^T X^T are the iterate's already.  C comes from its G^-1 and
    A, a product block at a time, and goes component-major (8 gauss, 36,
    cells) over the iterate's scratch (it.tangent): E = C Js runs along the
    cells."""
    pair_rows, pair_cols, table = _tangent_table()
    a, ginv, block = it.a.reshape(-1, 8, 6), it.ginv.reshape(-1, 8, 6), len(work.r)
    for k in range(0, len(a), block):
        products = a[k:k + block][..., pair_rows]
        products *= ginv[k:k + block][..., pair_cols]
        np.matmul(table, products.transpose(1, 2, 0), out=it.tangent[..., k:k + block])


def _hessian_apply(it: _Iterate, work: _Workspace, delta: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Exact directional derivative of -grad_area along delta (so the
    returned operator is positive definite near a discrete maximum) at the
    iterate it, after _hessian_cache: per cell, S D + M X with S, X and Q^T
    X^T the iterate's and M from the 8x8 product R = D (Q^T X^T) through
    to_gauss, C (it.tangent) and to_cell.  The Gauss-point derivatives dd
    and A dd are never formed.  Q commutes with the sum onto the nodes, so
    it is applied once per node, as the workspace's -Q.

    The cells go a block of whole slabs at a time, each block's terms
    added onto the node sums (it.nodes) before the next starts.  A block's
    corner values, from the zero-bordered nodes of delta, and its terms are
    held padded (_corner_runs): the gather and the scatter are eight
    contiguous copies and adds, and a pad's terms reach only boundary
    sums, which no product reads.  delta and out are interior node arrays;
    delta is only read."""
    to_gauss, to_cell = _cell_maps(it.s.spacing)
    c1, c2, c3 = it.frames.shape[:3]
    slab = it.s.dims[1] * it.s.dims[2]
    work.delta[_INTERIOR] = delta
    it.nodes.fill(0.0)
    for i0 in range(0, c1, work.slabs):
        i1 = min(i0 + work.slabs, c1)
        terms, sd = work.corners[:, :(i1 - i0) * slab], work.sd[:, :(i1 - i0) * slab]
        for run, corner in zip(_corner_runs(work.delta, i0 * slab, terms.shape[1]), terms):
            corner[:len(run)] = run
        d = _real_cells(terms, it.s.dims)  # (slabs, c2, c3, 8, 3 + b)
        size = (i1 - i0) * c2 * c3
        r, js, e, m = work.r[:size], work.js[:, :size], work.e[:, :size], work.m[:size]
        np.matmul(d, it.qframes[i0:i1], out=r.reshape(d.shape[:3] + (8, 8)))
        np.matmul(to_gauss.T, r.T, out=js)
        np.einsum("gikc,gkc->gic", it.tangent[..., i0 * c2 * c3:i1 * c2 * c3].reshape(8, 6, 6, -1),
                  js.reshape(8, 6, -1), out=e.reshape(8, 6, -1))
        np.matmul(e.T, to_cell, out=m)
        np.matmul(it.stiff[i0:i1], d, out=_real_cells(sd, it.s.dims))
        # D is spent: the block's per-corner terms M X + S D take its place
        np.matmul(m.reshape(d.shape[:3] + (8, 8)), it.frames[i0:i1], out=d)
        terms += sd
        _scatter(terms, it.nodes, i0 * slab)
    np.matmul(it.nodes[_INTERIOR], work.neg_q, out=out)
    return out


def _section_frame_basis(s: SectionGrid, frames: np.ndarray):
    """Columns [A | N] of R^(3+b): the (Q-orthonormalized) mean of the
    derivative 3-frames dh_g = t2_g X, (mean_g t2_g) (sum_cells X), and a
    Q-orthonormal basis of its Q-complement, b columns for signature (3, b)."""
    centre = _shape_gradient_table(s.spacing).mean(axis=0)  # (8 corners, 3)
    a = np.einsum("ijkcv->vc", frames) @ centre  # (3 + b, 3)
    ga = a.T @ s.pairing @ a
    a = a @ np.linalg.inv(np.linalg.cholesky(ga).T)
    w, u = np.linalg.eigh(s.pairing)
    neg = u[:, w < 0]
    proj = np.eye(len(a)) - a @ (a.T @ s.pairing)
    n = proj @ neg
    gn = -(n.T @ s.pairing @ n)
    n = n @ np.linalg.inv(np.linalg.cholesky(gn).T)
    return a, n


def _sine_symbol(s: SectionGrid, symbol: np.ndarray) -> list:
    """Write the symbol of _split_preconditioner, with prod_d (n_d - 1) / 2
    folded in, into symbol (interior..., 3 + b); return the S_d."""
    kappa, mass, sines = [], [], []
    for ax, (n, h) in enumerate(zip(s.dims, s.spacing)):
        k = np.arange(1, n - 1)
        theta = np.pi * k / (n - 1)
        shape = [1, 1, 1]
        shape[ax] = n - 2
        kappa.append(((4.0 / h ** 2) * np.sin(theta / 2.0) ** 2).reshape(shape))
        mass.append(((2.0 + np.cos(theta)) / 3.0).reshape(shape))
        sines.append(np.sin(np.pi * np.outer(k, k) / (n - 1)))
    # stiff[d] = kappa_d prod_{e != d} m_e on the interior sine modes
    stiff = [kappa[d] * mass[d - 1] * mass[d - 2] for d in range(3)]
    for m in range(3):
        symbol[..., m] = (2.0 / 9.0) * stiff[m]
    symbol[..., 3:] = ((2.0 / 3.0) * (stiff[0] + stiff[1] + stiff[2]))[..., None]
    symbol *= np.prod([(n - 1) / 2.0 for n in s.dims])
    return sines


def _split_preconditioner(it: _Iterate, work: _Workspace):
    """Positive definite approximation of |H / V|^-1, with H the Hessian
    (_hessian_apply) at the iterate it and V = h1 h2 h3 the cell volume;
    exact at an affine section with a Q-orthonormal frame.

    There, in the frame/complement coordinates, the blocks of H are sums of
    trilinear-element products K (x) M (x) M, with 1-d stiffness K = (1/h)
    tridiag(-1, 2, -1) and mass M = (h/6) tridiag(1, 4, 1) per axis: the
    2x2x2 Gauss rule integrates the products of Q1 shape functions and their
    derivatives exactly.  The sine transform (DST-I) on the interior
    diagonalizes K and M, with eigenvalues h kappa_d and h m_d at theta =
    pi k / (n_d - 1), where kappa_d = (4 / h_d^2) sin^2(theta / 2) and m_d =
    (2 + cos theta) / 3.  So H / V has the symbol (2/3) sum_d kappa_d
    prod_{e != d} m_e on the complement and (2/9) kappa_m prod_{e != m} m_e
    on the m-th frame coefficient, and the apply divides by it mode by mode.

    The DST-I is applied as the dense symmetric matrix S_d = sin(pi j k /
    (n_d - 1)), j, k = 1..n_d - 2, along each axis by matmul.  S_d^2 = ((n_d
    - 1) / 2) I, so the inverse transform is the same three products, with
    prod_d (n_d - 1) / 2 folded into the symbol.  That costs O(n^4 (3+b)) ops
    against an FFT's O(n^3 log n (3+b)), but as matrix products: on a 2-vCPU
    Xeon host with one BLAS thread, one 22-wide transform of the 31^3 interior
    of a 33^3 grid took 9 ms against 31 ms for an FFT-based DST-I, and 0.07 /
    0.45 / 2.6 ms against 0.6 / 2.7 / 11.6 ms at 11^3 / 17^3 / 25^3.  It
    agrees with the FFT to 2e-15 to 5e-15 relative.

    The symbol and the S_d depend only on the grid and come from the
    workspace (_sine_symbol), so this sets up only the frame basis, from the
    iterate's corner frames X.  The apply, apply(r, out), writes P r into
    out, interior node arrays, with the transforms in the workspace's two
    interior buffers.

    The scale is that of the area density, as in residual_norm.  A constant
    factor cancels from every P-norm ratio the solve compares, so inverting
    H itself (P larger by 1/V) gives the same solve to rounding.
    """
    a, nbasis = _section_frame_basis(it.s, it.frames)
    t = np.concatenate([a, nbasis], axis=1)  # (3 + b, 3 + b)
    x, y, symbol, sines = work.x, work.y, work.symbol, work.sines
    m1, m2, m3 = symbol.shape[:3]

    def sine(src, dst):
        """The DST-I of src along the three grid axes, into dst; src is
        overwritten on the way."""
        np.matmul(sines[0], src.reshape(m1, -1), out=dst.reshape(m1, -1))
        np.matmul(sines[1], dst.reshape(m1, m2, -1), out=src.reshape(m1, m2, -1))
        np.matmul(sines[2], src.reshape(m1 * m2, m3, -1),
                  out=dst.reshape(m1 * m2, m3, -1))

    def apply(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(r, t, out=x)
        sine(x, y)
        np.divide(y, symbol, out=y)
        sine(y, x)
        np.matmul(x, t.T, out=out)
        return out

    return apply


# Forcing term of the Newton-MINRES step: MINRES stops once ||g - H x||_P
# <= _ETA ||g||_P, with P the split preconditioner.  Tighter costs more
# products: away from the solution the Hessian is indefinite and an
# accurate Newton direction there is a poor one.  Looser costs Newton steps,
# each with its Hessian set-up and line search.  On the first maxsec-rough
# draw of seed 0 (noisy affine, 11^3), eta = 0.01 takes 9 Newton steps, 4
# line-search rejections and 206 MINRES iterations; 0.03 takes 7 steps and
# 91 iterations, 0.1 8 and 77, and 0.3 12 and 73.  With 0.1, 9^3 to 17^3
# solves take 7 to 10 Newton steps.
_ETA = 0.1


def _minres(apply, precond, b: np.ndarray, eta: float, maxiter: int,
            vectors: np.ndarray):
    """Preconditioned MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12,
    1975) for apply(x) = b from x = 0, with apply symmetric and precond
    symmetric positive definite.  Both are called as f(u, out): they write
    their result, shaped like b, into out (apply also returns it) and do not
    change u.  vectors (7,) + b.shape is the workspace: MINRES allocates no
    vector of its own, and returns x in vectors[0].

    Stops when phibar <= eta beta1, that is ||b - apply(x)||_P <= eta
    ||b||_P with ||r||_P^2 = r . precond(r), or after maxiter iterations.
    The recurrences carry phibar, so the test costs no product, and it does
    not change when precond is scaled by a constant.  One apply and one
    precond per iteration, and one precond before the first.  Returns (x,
    iterations, beta1 = ||b||_P); raises SolveError when some beta^2 = r .
    precond(r) is negative or not finite, which a positive definite precond
    cannot give.

    Each operation is the textbook one, in its order, into a vector free at
    that point.  r1 and r2 (b at first) take two vectors, and a product
    goes where r1 was once y holds the scaled r1.  y holds P r2 only from
    the preconditioner to the next v, and v is scratch after its last use;
    the new w replaces w2, which the recurrence no longer needs."""

    def beta_of(r, z, itn):
        beta2 = float(np.vdot(r, z))
        if not (np.isfinite(beta2) and beta2 >= 0.0):
            raise SolveError(f"MINRES broke down at its iteration {itn}: beta^2 = "
                             f"{beta2:.3e} is negative or not finite")
        return np.sqrt(beta2)

    x, v, y, w, w2, *lanczos = vectors
    x.fill(0.0)
    w.fill(0.0)
    w2.fill(0.0)
    r1 = r2 = b
    precond(b, y)
    beta1 = beta = phibar = beta_of(b, y, 0)
    oldb = dbar = epsln = 0.0
    cs, sn = -1.0, 0.0
    itn = 0
    while phibar > eta * beta1 and itn < maxiter:
        itn += 1
        # Lanczos step: v is the next P-orthonormal vector, y = P r2
        np.divide(y, beta, out=v)
        if itn >= 2:
            np.multiply(r1, beta / oldb, out=y)
        p = apply(v, lanczos[itn - 1] if r1 is b else r1)
        if itn >= 2:
            p -= y
        alfa = float(np.vdot(v, p))
        p -= np.multiply(r2, alfa / beta, out=y)
        r1, r2 = r2, p
        precond(r2, y)
        oldb, beta = beta, beta_of(r2, y, itn)
        # the next Givens rotation of the tridiagonal QR factorization
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # the new w = (v - oldeps w2 - delta w) / gamma, in the place of w2
        np.multiply(w2, oldeps, out=w2)
        np.subtract(v, w2, out=w2)
        w2 -= np.multiply(w, delta, out=v)
        w2 /= gamma
        w, w2 = w2, w
        x += np.multiply(w, phi, out=v)
    return x, itn, beta1


def _newton_direction(it: _Iterate, work: _Workspace):
    """Approximately solve H delta = g with H = -Hessian (exact analytic
    Hessian-vector products) and g the gradient at the iterate it.  The
    Hessian is indefinite in general (the critical sections are saddles of
    the discrete area in the tangential compression modes), so the Krylov
    solver is MINRES (_minres) with the positive definite split
    preconditioner P, stopped at ||g - H delta||_P <= _ETA ||g||_P, the
    same relative residual on every grid and under Q-isometries.  Returns
    the interior direction (in work), the MINRES iteration count (the
    Hessian-vector products), P's apply and ||g||_P.  Raises SolveError
    when MINRES breaks down or gives a non-finite or all-zero direction."""
    _hessian_cache(it, work)
    precond = _split_preconditioner(it, work)
    x, iters, gnorm = _minres(lambda d, out: _hessian_apply(it, work, d, out), precond,
                              it.grad[_INTERIOR], _ETA, 60, work.vectors)
    if not np.isfinite(x).all() or not x.any():
        raise SolveError("MINRES gave a non-finite or all-zero direction")
    return x, iters, precond, gnorm


# ----------------------------------------------------------------------------
# serialization


def grid_to_json(s: SectionGrid) -> dict:
    return {
        "dims": list(s.dims),
        "spacing": list(s.spacing),
        "Q": s.pairing.tolist(),
        "nodes": s.values.reshape(-1, len(s.pairing)).tolist(),
    }


def grid_from_json(doc: dict) -> SectionGrid:
    """The grid of a grid_to_json document.  The length n of /Q is the width:
    /Q is checked as an n x n pairing, then /nodes is read n wide."""
    width = len(array(member(doc, "/Q"), "/Q"))
    q = at("/Q", check_pairing, numbers(doc["Q"], "/Q", (width, width)))
    return SectionGrid(*base_map_from_json(doc, "nodes", width), q)
