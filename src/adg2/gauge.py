"""Discretized gauge fields on a product of a 3-d base box (or torus) with a
flat 4-torus fibre, against the constant standard fibre triple.

Connections are anti-Hermitian r x r matrix fields with one component per
coordinate direction; curvature comes from 2nd-order finite differences
(periodic wrap where the geometry is periodic, one-sided stencils at box
edges) plus the commutator term.  A connection stores its components
entry-first, one contiguous node field per matrix entry, and exposes them as
the (7, *grid, r, r) view `components`; the matrix products of the rank-r
half (_matmul, _fold_trace) are then products of contiguous node fields,
and the (..., r, r) fields they and the residuals return are entry-first too.
The residual conventions:

  * rho_fibre[i]  = coefficient of the vertical curvature against the i-th
    standard self-dual form (the fibrewise anti-self-duality defect);
  * rho_horiz[a]  = a-th component of sum_i I_i (interior product of the
    curvature with the i-th base direction, vertical part), the horizontal
    defect written as a fibre 1-form; its Hodge dual against the base volume
    reproduces the horizontal part of the structure-form equation.

The path functional cs_instanton integrates Tr(F ^ dA/dtau) against the
structure 4-form with the seven-manifold orientation -dt123 dx1234 (the
orientation the pointwise model fixes); with the product orientation the
associative-side comparison in the fueter module would fail by a sign.  Its
density folds each curvature into its one slot term (_CS_TERMS) as it is built.
_matmul's commutators skip the products that cancel and are trace-free, and a
+-1 coefficient of _SD_SLOTS or I_VEC adds or subtracts (_ADD), never multiplies.

The grid half's shared rules live here once: diff is the one derivative
stencil, _path_trapezoid the one path rule and _path_times the one path check.
diff equals the rolled central difference on a periodic axis and
np.gradient(edge_order=2) on a box axis, bit for bit on finite input, without
calling np.gradient: it builds each derivative field in place, and divides a
complex field by 2 h as its real view times 1 / (2 h) (_scale), which is what
numpy's complex division computes.  That needs the field's innermost axis in
memory to be contiguous; other complex fields, and all real ones, are divided
by np.divide.
"""

from __future__ import annotations

import math
import operator
import reprlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import hk
from .jsondoc import at, boolean, integer, integers, member, numbers

# the standard fibre triple and its complex structures, from hk, as float
# matrices; I_i acts alike on vectors and on 1-form coefficients
W_SD = np.array(hk.STANDARD_TRIPLE, dtype=float)
I_VEC = np.array(hk.complex_structure_matrices(hk.HKTriple.standard()), dtype=float)

# the (a<b) component order of fibre 2-forms
PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# _SD_SLOTS[l, s]: the vol4 pairing hk.wedge22 of the unit 2-form of PAIR_ORDER
# slot s with the l-th standard form; each standard form sees two of the six
# slots, and fibre_defect and cs_instanton pair only those
_SD_SLOTS = np.array([[float(hk.wedge22(hk.form2({pq: 1}), w)) for pq in PAIR_ORDER]
                      for w in hk.STANDARD_TRIPLE])

_ADD = {1.0: np.add, -1.0: np.subtract}  # adds a +-1 coefficient times a field

# (mu, nu, sign, c): the 18 curvatures with the one term sign Tr(F_mu_nu d_c) each enters
# of T_l[ab] = Tr(F_la d_b - F_lb d_a + F_ab d_l), on the slots ab that w_l pairs
_CS_TERMS = [(mu, nu, sign * _SD_SLOTS[l, s], c)
             for l in range(3) for s in np.flatnonzero(_SD_SLOTS[l]) for a, b in [PAIR_ORDER[s]]
             for mu, nu, sign, c in ((l, 3 + a, 1, 3 + b), (l, 3 + b, -1, 3 + a),
                                     (3 + a, 3 + b, 1, l))]


def _entry_first(shape, dtype=complex) -> np.ndarray:
    """An uninitialized (..., r, r) matrix field stored entry-first: the node
    field of each matrix entry is one contiguous block."""
    return np.moveaxis(np.empty(shape[-2:] + shape[:-2], dtype), (0, 1), (-2, -1))


def _matmul(a: np.ndarray, b: np.ndarray, commutator: bool = False,
            add_to: np.ndarray | None = None) -> np.ndarray:
    """a b, or the commutator a b - b a, of two (..., r, r) matrix fields,
    returned entry-first; or, given add_to, added to add_to in place.

    Sums the r^3 entry products as elementwise multiplies of node fields: for
    the small r of a gauge group this is several times faster than a batched
    `@`, which pays a per-node matrix call.  Each product reads the entry
    fields a[..., i, k], which are contiguous when the operands are stored
    entry-first, as connection components are; strided node-major entry
    fields make each product several times slower.  The products go through
    one scratch node field, and an entry added to add_to is summed in full in
    a second one first (first product, += the rest, -= the reversed ones), so
    it is added exactly as a separately built product would be.  A commutator
    skips the k = i pair of a diagonal entry, 0 up to numpy's last bit, and its
    last diagonal entry is minus the others, with no product: at r = 1, 0."""
    r = a.shape[-1]
    shape = np.broadcast_shapes(a.shape, b.shape)
    dtype = np.result_type(a, b)
    out = _entry_first(shape, dtype) if add_to is None else add_to
    prod = np.empty(shape[:-2], dtype)
    total = None if add_to is None else np.empty(shape[:-2], dtype)
    last = out[..., -1, -1] if total is None else np.empty(shape[:-2], dtype)
    last.fill(0)  # a commutator's last diagonal entry, summed here
    for i, j in np.ndindex(r, r):
        entry = out[..., i, j]
        if commutator and i == j == r - 1:
            acc = last
        else:
            acc = entry if total is None else total
            ks = [k for k in range(r) if not (commutator and k == i == j)]
            np.multiply(a[..., i, ks[0]], b[..., ks[0], j], out=acc)
            for k in ks[1:]:
                acc += np.multiply(a[..., i, k], b[..., k, j], out=prod)
            for k in ks if commutator else ():
                acc -= np.multiply(b[..., i, k], a[..., k, j], out=prod)
            if commutator and i == j:
                last -= acc
        if total is not None:
            entry += acc
    return out


def _fold_trace(acc: np.ndarray, x: np.ndarray, y: np.ndarray, sign, prod) -> np.ndarray:
    """acc += sign Tr(x y), sign +-1, of two (..., r, r) matrix fields, as r^2 entry
    products x[..., i, j] y[..., j, i] of node fields through the scratch prod."""
    for i, j in np.ndindex(x.shape[-2:]):
        _ADD[sign](acc, np.multiply(x[..., i, j], y[..., j, i], out=prod), out=acc)
    return acc


def _unit_spacing(n: int, periodic: bool) -> float:
    """Spacing of n nodes on the unit interval, or on the unit circle when periodic."""
    return 1.0 / n if periodic else 1.0 / (n - 1)


def _spacings(hs, n: int, axes: str) -> tuple:
    """hs as n floats, one finite positive spacing per axis."""
    hs = tuple(float(h) for h in hs)
    if len(hs) != n:
        raise ValueError(f"grid needs {n} {axes} spacings, got {len(hs)}")
    if not all(0 < h < np.inf for h in hs):
        raise ValueError(f"{axes} spacings must be finite and positive, got {hs}")
    return hs


def _dims(ns, n: int, axes: str) -> tuple:
    """ns as n integer node counts; a float is rejected, never truncated."""
    try:
        ns = tuple(map(operator.index, ns))
    except TypeError:
        raise ValueError(f"{axes} dims must be integers, got {reprlib.repr(ns)}") from None
    if len(ns) != n or min(ns) < 3:
        raise ValueError(f"grid needs {n} {axes} dims, three nodes per axis or more, "
                         f"got {reprlib.repr(ns)}")
    return ns


def _base_values(values, spacing, width: int) -> tuple:
    """The float (n1, n2, n3, width) values and three spacings of a base map."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 4 or values.shape[-1] != width:
        raise ValueError(f"values must have shape (n1, n2, n3, {width})")
    _dims(values.shape[:3], 3, "base")
    return values, _spacings(spacing, 3, "base")


def base_map_from_json(doc, rows: str, width: int) -> tuple:
    """The /rows, as floats of shape /dims + (width,), and the /spacing of a
    map on the base grid: the part that grid and section documents share."""
    dims = at("/dims", _dims, integers(member(doc, "/dims"), "/dims"), 3, "base")
    spacing = numbers(member(doc, "/spacing"), "/spacing", (None,))
    spacing = at("/spacing", _spacings, spacing, 3, "base")
    values = numbers(member(doc, f"/{rows}"), f"/{rows}", (math.prod(dims), width))
    return np.reshape(np.array(values, dtype=float), dims + (width,)), spacing


def trapezoid_weights(dims, spacing, periodic: bool) -> np.ndarray:
    """Node quadrature weights: trapezoid on a box, uniform on a torus."""
    w = np.ones(dims)
    if not periodic:
        for ax in range(len(dims)):
            np.moveaxis(w, ax, 0)[[0, -1]] *= 0.5
    return w * float(np.prod(spacing))


@dataclass
class LatticeGrid:
    dims_base: tuple[int, int, int]
    dims_fibre: tuple[int, int, int, int]
    spacing_base: tuple[float, float, float]
    spacing_fibre: tuple[float, float, float, float]
    base_periodic: bool = False
    fibre_periodic: bool = True

    def __post_init__(self):
        self.dims_base = _dims(self.dims_base, 3, "base")
        self.dims_fibre = _dims(self.dims_fibre, 4, "fibre")
        self.spacing_base = _spacings(self.spacing_base, 3, "base")
        self.spacing_fibre = _spacings(self.spacing_fibre, 4, "fibre")

    @staticmethod
    def unit(nb: int, nf: int, base_periodic=False, fibre_periodic=True) -> "LatticeGrid":
        hb = _unit_spacing(nb, base_periodic)
        hf = _unit_spacing(nf, fibre_periodic)
        return LatticeGrid((nb,) * 3, (nf,) * 4, (hb,) * 3, (hf,) * 4,
                           base_periodic, fibre_periodic)

    @property
    def shape(self):
        return self.dims_base + self.dims_fibre

    def spacing(self, direction: int) -> float:
        return (self.spacing_base[direction] if direction < 3
                else self.spacing_fibre[direction - 3])

    def periodic(self, direction: int) -> bool:
        return self.base_periodic if direction < 3 else self.fibre_periodic

    def diff(self, values: np.ndarray, axis: int) -> np.ndarray:
        """diff along grid axis `axis`, with that axis's spacing and wrap."""
        return diff(values, self.spacing(axis), axis, self.periodic(axis))

    def coordinates(self):
        """Arrays t1,t2,t3,x1..x4 broadcastable over the node grid."""
        return np.meshgrid(*(np.arange(n) * self.spacing(ax)
                             for ax, n in enumerate(self.shape)),
                           indexing="ij", sparse=True)

    def node_weights(self) -> np.ndarray:
        base = trapezoid_weights(self.dims_base, self.spacing_base, self.base_periodic)
        fibre = trapezoid_weights(self.dims_fibre, self.spacing_fibre, self.fibre_periodic)
        return base.reshape(self.dims_base + (1, 1, 1, 1)) * fibre


def _scale(x: np.ndarray, d: float) -> np.ndarray:
    """x /= d in place, bit for bit on finite input, and x.

    numpy divides a complex field by a real d through its general complex
    division, whose result on finite input is each real and imaginary part
    times 1 / d; that multiply of the real view is several times faster.  The
    view needs the innermost axis in memory to be contiguous, as it is in a
    C-order or entry-first field or a slice of one along an outer axis; any
    other x, and every real x, keeps np.divide."""
    if x.dtype.kind == "c" and x.size:
        t = x.transpose(sorted(range(x.ndim), key=lambda ax: -abs(x.strides[ax])))
        if t.strides[-1] == x.itemsize:
            parts = t.view(x.real.dtype)
            np.multiply(parts, 1.0 / d, out=parts)
            return x
    return np.divide(x, d, out=x)


def central(values: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """(v[k+1] - v[k-1]) / (2 h) along the first axis of values, into out,
    which has the shape of values less two nodes along it: the interior of
    diff along a box axis.  Returns out."""
    np.subtract(values[2:], values[:-2], out=out)
    return _scale(out, 2.0 * h)


def diff(values: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """2nd-order derivative along an axis of a node field (one-sided at the
    ends of a box axis): the one derivative stencil of the grid half.

    On a periodic axis it is (np.roll(v, -1) - np.roll(v, 1)) / (2 h), on a
    box axis np.gradient(v, h, edge_order=2), bit for bit on finite input:
    the same differences and edge constants in the same order, and the
    division by 2 h done by _scale.  The result has the memory layout of
    values (an entry-first field stays entry-first).  Along the axis of
    smallest stride np.roll copies runs of one element, so there each node
    slab is one strided subtract instead."""
    values = np.asarray(values, dtype=np.result_type(values, 1.0))
    v = values.swapaxes(0, axis)
    n = len(v)
    if periodic:
        if abs(values.strides[axis]) == min(map(abs, values.strides)):
            out = np.empty_like(values)
            slabs = out.swapaxes(0, axis)
            for k in range(n):
                np.subtract(v[(k + 1) % n], v[k - 1], out=slabs[k])
        else:
            out = np.roll(values, -1, axis=axis)
            out -= np.roll(values, 1, axis=axis)
        return _scale(out, 2 * h)
    if n < 3:
        raise ValueError(f"a box axis needs three nodes or more, got {n}")
    out = np.empty_like(values)
    slabs = out.swapaxes(0, axis)
    central(v, h, slabs[1:-1])
    slabs[0] = -1.5 / h * v[0] + 2.0 / h * v[1] + -0.5 / h * v[2]
    slabs[-1] = 0.5 / h * v[-3] + -2.0 / h * v[-2] + 1.5 / h * v[-1]
    return out


@dataclass
class LatticeConnection:
    """Anti-Hermitian connection components A_mu, mu = t1..t3, x1..x4.

    The components are stored entry-first, as one contiguous (7, r, r, *grid)
    array; `components` is its (7, *grid, r, r) view.  At rank 1 the two
    layouts are the same memory and the given array is kept without a copy."""

    grid: LatticeGrid
    components: np.ndarray  # (7, *grid.shape, r, r) complex

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=complex)
        want = (7,) + self.grid.shape
        if comps.shape[:8] != want or comps.ndim != 10:
            raise ValueError("components must have shape (7, grid, r, r)")
        if comps.shape[-1] != comps.shape[-2]:
            raise ValueError("matrix blocks must be square")
        entries = np.ascontiguousarray(np.moveaxis(comps, (-2, -1), (1, 2)))
        self.components = np.moveaxis(entries, (1, 2), (-2, -1))

    @property
    def rank(self) -> int:
        return self.components.shape[-1]

    def deriv(self, comp: int, axis: int) -> np.ndarray:
        return self.grid.diff(self.components[comp], axis)

    def curvature(self, mu: int, nu: int) -> np.ndarray:
        """F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] at every node."""
        f = self.deriv(nu, mu)
        f -= self.deriv(mu, nu)
        if self.rank > 1:  # 1x1 blocks commute exactly
            _matmul(self.components[mu], self.components[nu], commutator=True, add_to=f)
        return f

    @staticmethod
    def zero(grid: LatticeGrid, rank: int = 1) -> "LatticeConnection":
        return LatticeConnection(
            grid, np.zeros((7,) + grid.shape + (rank, rank), dtype=complex))


def from_functions(grid: LatticeGrid, funcs) -> LatticeConnection:
    """Sample a dict {direction: f(t1,t2,t3,x1..x4) -> complex} as a rank-1
    connection."""
    coords = grid.coordinates()
    comps = np.zeros((7,) + grid.shape + (1, 1), dtype=complex)
    for mu, f in funcs.items():
        comps[mu, ..., 0, 0] = np.asarray(f(*coords), dtype=complex)
    return LatticeConnection(grid, comps)


def fibre_curvatures(a: LatticeConnection) -> list:
    """The six vertical curvature components in PAIR_ORDER."""
    return [a.curvature(3 + p, 3 + q) for (p, q) in PAIR_ORDER]


def fibre_defect(f_vert) -> np.ndarray:
    """rho_fibre, shape (3, grid, r, r) and stored entry-first, from the six
    vertical curvatures."""
    out = _entry_first((3,) + f_vert[0].shape)
    out.fill(0)
    for i in range(3):
        for s in np.flatnonzero(_SD_SLOTS[i]):  # the two slots the i-th form pairs
            _ADD[_SD_SLOTS[i, s]](out[i], f_vert[s], out=out[i])
    return out


def instanton_residual(a: LatticeConnection):
    """Defect fields of the limiting structure-form equation.

    Returns (rho_fibre, rho_horiz): complex matrix fields of shape
    (3, grid, r, r) and (4, grid, r, r).
    """
    rho_fibre = fibre_defect(fibre_curvatures(a))

    rho_horiz = _entry_first((4,) + a.grid.shape + (a.rank, a.rank))
    rho_horiz.fill(0)
    for i in range(3):
        for b in range(4):
            fib = a.curvature(i, 3 + b)
            for out_a in np.flatnonzero(I_VEC[i][:, b]):
                _ADD[I_VEC[i][out_a, b]](rho_horiz[out_a], fib, out=rho_horiz[out_a])
    return rho_fibre, rho_horiz


def residual_scalars(rho: np.ndarray) -> np.ndarray:
    """Real scalar view: imaginary part at rank 1 (rho.shape[-1]), Frobenius norm otherwise."""
    if rho.shape[-1] == 1:
        return rho[..., 0, 0].imag
    return np.sqrt(np.sum(np.abs(rho) ** 2, axis=(-2, -1)))


def _path_times(times, samples, what: str, shared: str, kind) -> list:
    """A path's times as floats: one sample per time, ascending, and one
    kind(sample) along the path, else a ValueError naming the first misfit."""
    times = [float(t) for t in times]
    if len(times) != len(samples):
        raise ValueError(f"one {what} per time sample")
    for k, t in enumerate(times):
        if not math.isfinite(t):
            raise ValueError(f"time {k} is not finite: {t!r}")
    if sorted(times) != times:
        raise ValueError("times must be ascending")
    for k, x in enumerate(samples):
        if kind(x) != kind(samples[0]):
            raise ValueError(f"the {what}s of a path must share one {shared}: "
                             f"{what} {k} differs from {what} 0")
    return times


@dataclass
class ConnectionPath:
    """Snapshots of a connection on one grid and of one rank along [0, 1]."""

    times: list
    fields: object  # sequence-like of LatticeConnection

    def __post_init__(self):
        self.times = _path_times(self.times, self.fields, "field", "grid and rank",
                                 lambda a: (a.grid, a.rank))


def _path_trapezoid(samples, density, increment, workers: int = 1) -> float:
    """Sum over segments j of (f_j(d_j) + f_j+1(d_j)) / 2, d_j = increment(s_j,
    s_j+1) built once each: the trapezoid in the path parameter, exactly
    reparametrization invariant.  density(s_k, [d_k-1, d_k]) returns f_k of each
    increment of a segment bordering s_k; with one worker only those are alive."""
    n = len(samples)

    def value(k: int, increments: list) -> float:
        return 0.5 * sum(density(samples[k], increments)) if increments else 0.0

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            d = list(ex.map(lambda j: increment(samples[j], samples[j + 1]), range(n - 1)))
            values = list(ex.map(lambda k: value(k, d[max(k - 1, 0):k + 1]), range(n)))
    else:
        values, held = [], []
        for k in range(n):
            held = held[-1:]  # segment k - 1; segment k - 2 is dropped
            if k < n - 1:
                held.append(increment(samples[k], samples[k + 1]))
            values.append(value(k, held))
    return float(np.sum(values))


def _cs_density(acc: np.ndarray, w: np.ndarray) -> float:
    """Node integral with weights w of the real part of acc, one snapshot's
    accumulator for one segment in cs_instanton (weighted in place)."""
    np.multiply(acc.real, w, out=acc.real)
    return float(np.sum(acc.real))


def cs_instanton(path: ConnectionPath, workers: int = 1) -> float:
    """Path functional whose critical points are the limiting instantons.

    _path_trapezoid in the path parameter, node quadrature in space,
    seven-manifold orientation -dt123 dx1234.  The density builds a snapshot's
    18 curvatures once each and folds each, as it is built, into one accumulator
    per bordering increment (differences of entry-first components) as its
    slot term (_CS_TERMS).
    """

    def density(a: LatticeConnection, increments: list) -> list:
        accs = [np.zeros(a.grid.shape, complex) for _ in increments]
        prod = np.empty(a.grid.shape, complex)
        for mu, nu, sign, c in _CS_TERMS:
            f = a.curvature(mu, nu)
            for acc, delta in zip(accs, increments):
                _fold_trace(acc, f, delta[c], sign, prod)
        w = a.grid.node_weights()
        return [_cs_density(acc, w) for acc in accs]

    total = _path_trapezoid(path.fields, density,
                            lambda a0, a1: a1.components - a0.components, workers)
    return -total / (4 * np.pi ** 2)


def gauge_transform(a: LatticeConnection, g: np.ndarray) -> LatticeConnection:
    """A -> g A g^-1 - (d g) g^-1 with a U(r) field g of shape (grid, r, r)."""
    ginv = np.conj(g.swapaxes(-1, -2))
    comps = np.empty_like(a.components)
    for mu in range(7):
        comps[mu] = _matmul(_matmul(g, a.components[mu]) - a.grid.diff(g, mu), ginv)
    return LatticeConnection(a.grid, comps)


# ----------------------------------------------------------------------------
# serialization


def field_to_json(a: LatticeConnection) -> dict:
    flat = np.stack([a.components.real, a.components.imag], axis=-1).ravel()
    return {
        "dims": {"base": list(a.grid.dims_base), "fibre": list(a.grid.dims_fibre)},
        "rank": a.rank,
        "spacing": {"base": list(a.grid.spacing_base),
                    "fibre": list(a.grid.spacing_fibre)},
        "periodic": {"base": a.grid.base_periodic, "fibre": a.grid.fibre_periodic},
        "values": flat.tolist(),
    }


def field_from_json(doc: dict) -> LatticeConnection:
    """The connection of a field_to_json document, whose /rank must be
    positive; /spacing and /periodic, or any of their members, may be left
    out for the unit grid's."""
    rank = integer(member(doc, "/rank"), "/rank")
    if rank < 1:
        raise ValueError(f"/rank must be a positive integer, got {rank!r}")
    axes = []  # (dims, spacing, periodic) of the base, then of the fibre
    for name, n, default in (("base", 3, False), ("fibre", 4, True)):
        where = f"/dims/{name}"
        dims = integers(member(member(doc, "/dims"), where), where)
        dims = at(where, _dims, dims, n, name)  # before the unit spacings divide by them
        where = f"/periodic/{name}"
        flag = boolean(member(member(doc, "/periodic", {}), where, default), where)
        where = f"/spacing/{name}"
        unit = [_unit_spacing(k, flag) for k in dims]
        spacing = member(member(doc, "/spacing", {}), where, unit)
        spacing = at(where, _spacings, numbers(spacing, where, (None,)), n, name)
        axes.append((dims, spacing, flag))
    (db, hb, pb), (df, hf, pf) = axes
    grid = LatticeGrid(db, df, hb, hf, pb, pf)
    want = 7 * math.prod(grid.shape) * rank * rank * 2
    flat = numbers(member(doc, "/values"), "/values", (want,))
    pairs = np.reshape(np.array(flat, dtype=float), (7,) + grid.shape + (rank, rank, 2))
    return LatticeConnection(grid, pairs[..., 0] + 1j * pairs[..., 1])
