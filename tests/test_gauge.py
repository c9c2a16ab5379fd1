import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from adg2 import fueter as fu
from adg2 import gauge as ga
from adg2 import hk
from adg2.excalc import (
    BigradedForm,
    FibrationData,
    Poly,
    exterior_d,
    star4,
    wedge,
)


def observed_order(e_coarse, e_fine, floor=1e-12):
    """Richardson order between grids differing by factor two; residuals at
    machine-zero level count as converged."""
    if e_coarse <= floor and e_fine <= floor:
        return np.inf
    if e_fine <= floor:
        return np.inf
    return float(np.log2(e_coarse / e_fine))


def box_grid(nb=5, nf=6, **kw):
    kw.setdefault("fibre_periodic", False)
    return ga.LatticeGrid.unit(nb, nf, **kw)


def random_anti_hermitian(rng, shape, scale=0.3):
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return scale * (m - np.conj(m.swapaxes(-1, -2)))


def batched_curvature(a, mu, nu):
    """F_mu_nu with the commutator as a batched matmul."""
    am, an = a.components[mu], a.components[nu]
    return a.deriv(nu, mu) - a.deriv(mu, nu) + am @ an - an @ am


def cs_reference(path):
    """cs_instanton segment by segment, as Tr(F @ delta) of each end's curvatures."""
    total = 0.0
    for k in range(len(path.fields) - 1):
        delta = path.fields[k + 1].components - path.fields[k].components
        for a in path.fields[k:k + 2]:
            w = a.grid.node_weights()
            for l in range(3):
                t6 = []
                for (p, q) in ga.PAIR_ORDER:
                    t6.append(
                        np.trace(batched_curvature(a, l, 3 + p) @ delta[3 + q],
                                 axis1=-2, axis2=-1)
                        - np.trace(batched_curvature(a, l, 3 + q) @ delta[3 + p],
                                   axis1=-2, axis2=-1)
                        + np.trace(batched_curvature(a, 3 + p, 3 + q) @ delta[l],
                                   axis1=-2, axis2=-1))
                f = [[0] * 4 for _ in range(4)]
                for (p, q), t in zip(ga.PAIR_ORDER, t6):
                    f[p][q], f[q][p] = t, -t
                total += 0.5 * float(np.sum((w * hk.wedge22(f, ga.W_SD[l])).real))
    return -total / (4 * np.pi ** 2)


def random_connection(rng, grid, r, scale=0.3):
    return ga.LatticeConnection(
        grid, random_anti_hermitian(rng, (7,) + grid.shape + (r, r), scale))


def node_major(a):
    """a with node-major components, one C-contiguous (7, *grid, r, r) array:
    built past __post_init__, which would store them entry-first."""
    b = object.__new__(ga.LatticeConnection)
    b.grid, b.components = a.grid, np.ascontiguousarray(a.components)
    return b


def entry_first(x):
    """Whether the (..., r, r) field x is stored entry-first."""
    return np.moveaxis(x, (-2, -1), (0, 1)).flags.c_contiguous


def random_rank2_path(n_times=4, seed=11):
    """A non-commuting rank-2 anti-Hermitian path on a box base."""
    rng = np.random.default_rng(seed)
    grid = ga.LatticeGrid.unit(3, 3, fibre_periodic=True)
    shape = (7,) + grid.shape + (2, 2)
    start, velocity = random_anti_hermitian(rng, shape), random_anti_hermitian(rng, shape)
    times = np.linspace(0, 1, n_times)
    fields = [ga.LatticeConnection(grid, start + tau * velocity
                                   + tau ** 2 * random_anti_hermitian(rng, shape, 0.1))
              for tau in times]
    return ga.ConnectionPath(list(times), fields)


@pytest.fixture
def curvature_calls(monkeypatch):
    """Counts LatticeConnection.curvature calls."""
    calls = []
    original = ga.LatticeConnection.curvature

    def counted(self, mu, nu):
        calls.append((mu, nu))
        return original(self, mu, nu)

    monkeypatch.setattr(ga.LatticeConnection, "curvature", counted)
    return calls


def numpy_stencil(v, h, axis, periodic):
    """The stencils diff reproduces, as numpy writes them."""
    if periodic:
        return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2 * h)
    return np.gradient(v, h, axis=axis, edge_order=2)


def bits(x):
    """The bit patterns of a float or complex array, in C order."""
    return np.ascontiguousarray(x).view(np.uint64)


def stencil_inputs(rng, dtype):
    """Finite (3, 4, 5, 3, 3) node fields of dtype, laid out C-order, entry-first
    (the layout of connection components) and as a strided slice of a larger
    field, which also has a strided innermost axis."""
    def draw(shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if dtype is complex else x

    shape = (3, 4, 5, 3, 3)
    entry_first = np.moveaxis(draw(shape[-2:] + shape[:-2]), (0, 1), (-2, -1))
    strided = draw((5, 4, 10, 3, 6))[1:-1, :, ::2, :, ::2]
    return {"C-order": draw(shape), "entry-first": entry_first, "strided": strided}


class TestDiff:
    @pytest.mark.parametrize("h", [1 / 3, 1 / 4, 0.1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_equal_to_numpy(self, h, dtype):
        # on every axis of every layout: np.gradient's values on a box axis
        # and the rolled central difference on a periodic one, bit for bit,
        # stored in the layout numpy would have given them
        rng = np.random.default_rng(29)
        for layout, v in stencil_inputs(rng, dtype).items():
            for axis in range(v.ndim):
                for periodic in (False, True):
                    got = ga.diff(v, h, axis, periodic)
                    want = numpy_stencil(v, h, axis, periodic)
                    assert got.dtype == want.dtype and got.strides == want.strides, \
                        (layout, axis, periodic)
                    assert np.array_equal(bits(got), bits(want)), (layout, axis, periodic)

    def test_entry_first_fields_stay_entry_first(self):
        v = stencil_inputs(np.random.default_rng(3), complex)["entry-first"]
        for axis in range(3):
            for periodic in (False, True):
                assert entry_first(ga.diff(v, 0.25, axis, periodic))

    @pytest.mark.parametrize("d", [2 / 3, 0.2, 0.7, 0.003])
    def test_numpy_complex_division_is_a_real_view_multiply(self, d):
        # _scale's contract rests on this: numpy divides a complex array by a
        # real scalar as each part times 1 / d.  A numpy that stops doing so
        # fails here, before diff drifts from np.gradient by a last bit
        rng = np.random.default_rng(7)
        z = rng.normal(size=10 ** 5) + 1j * rng.normal(size=10 ** 5)
        parts = z.view(float) * (1.0 / d)
        assert np.array_equal((z / d).view(np.uint64), parts.view(np.uint64))

    def test_short_box_axis_rejected(self):
        with pytest.raises(ValueError, match="three nodes"):
            ga.diff(np.zeros((2, 4)), 0.5, 0, periodic=False)


class TestCurvature:
    def test_zero_connection(self):
        a = ga.LatticeConnection.zero(box_grid(), rank=1)
        rf, rh = ga.instanton_residual(a)
        assert np.abs(rf).max() == 0 and np.abs(rh).max() == 0

    def test_flux_connection(self):
        # A = x1 dx2 has curvature dx1 dx2; defect (1,0,0) against the triple
        a = ga.from_functions(box_grid(), {4: lambda t1, t2, t3, x1, x2, x3, x4: 1j * x1})
        rf, rh = ga.instanton_residual(a)
        s = ga.residual_scalars(rf)
        assert np.abs(s[0] - 1.0).max() < 1e-10
        assert np.abs(s[1]).max() < 1e-10 and np.abs(s[2]).max() < 1e-10
        assert np.abs(rh).max() < 1e-10

    def test_asd_connection(self):
        a = ga.from_functions(box_grid(), {
            4: lambda t1, t2, t3, x1, x2, x3, x4: 1j * x1,
            6: lambda t1, t2, t3, x1, x2, x3, x4: -1j * x3,
        })
        rf, rh = ga.instanton_residual(a)
        assert np.abs(rf).max() < 1e-10
        assert np.abs(rh).max() < 1e-10

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matmul_matches_batched_matmul(self, r):
        rng = np.random.default_rng(r)
        plain = [rng.normal(size=(3, 5, r, r)) + 1j * rng.normal(size=(3, 5, r, r))
                 for _ in range(2)]
        a = random_connection(rng, ga.LatticeGrid.unit(3, 3), r)
        for x, y in (plain, (a.components[3], a.components[4])):
            assert np.abs(ga._matmul(x, y) - x @ y).max() < 1e-13
            assert np.abs(ga._matmul(x, y, commutator=True) - (x @ y - y @ x)).max() < 1e-13
            acc = np.zeros(x.shape[:-2], complex)
            assert np.abs(ga._fold_trace(acc, x, y, 1, np.empty_like(acc))
                          - np.trace(x @ y, axis1=-2, axis2=-1)).max() < 1e-13

    @pytest.mark.parametrize("r", [2, 3])
    def test_commutator_is_trace_free_exactly(self, r):
        # the last diagonal entry is minus the others, on fields that are not
        # anti-Hermitian, whose true commutators are trace-free too
        rng = np.random.default_rng(40 + r)
        x, y = (rng.normal(size=(3, 4, 5, r, r)) + 1j * rng.normal(size=(3, 4, 5, r, r))
                for _ in range(2))
        c = ga._matmul(x, y, commutator=True)
        assert np.array_equal(c[..., -1, -1], -sum(c[..., i, i] for i in range(r - 1)))
        assert np.abs(c - (x @ y - y @ x)).max() < 1e-13

    def test_rank1_commutator_is_zero(self):
        rng = np.random.default_rng(6)
        x, y = (rng.normal(size=(3, 5, 1, 1)) + 1j * rng.normal(size=(3, 5, 1, 1))
                for _ in range(2))
        assert np.array_equal(ga._matmul(x, y, commutator=True), np.zeros_like(x))
        f = rng.normal(size=x.shape) + 0j
        assert np.array_equal(ga._matmul(x, y, commutator=True, add_to=f.copy()), f)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_curvature_is_the_separately_built_sum(self, r):
        # the in-place curvature adds the commutator entry by entry, each
        # summed in full first: the same values as the three separate terms,
        # on fields that are not anti-Hermitian.  Rank 1 adds none (numpy's
        # a b - b a of complex scalars can be a last bit off zero)
        rng = np.random.default_rng(30 + r)
        grid = ga.LatticeGrid.unit(3, 3)  # box base, periodic fibre
        shape = (7,) + grid.shape + (r, r)
        a = ga.LatticeConnection(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for mu in range(7):
            for nu in range(7):
                want = a.deriv(nu, mu) - a.deriv(mu, nu)
                if r > 1:
                    want += ga._matmul(a.components[mu], a.components[nu], commutator=True)
                got = a.curvature(mu, nu)
                assert np.array_equal(got, want) and entry_first(got), (mu, nu)

    def test_rank2_curvature_peak_memory(self):
        # a curvature holds its result, one more derivative and np.roll's
        # second shift: no more than 3.1 times the result
        a = random_connection(np.random.default_rng(8), ga.LatticeGrid.unit(4, 4), 2)
        for mu, nu in ((0, 3), (1, 6), (3, 4), (5, 6)):
            a.curvature(mu, nu)
            tracemalloc.start()
            try:
                f = a.curvature(mu, nu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.1 * f.nbytes, (mu, nu, peak / f.nbytes)


class TestEntryFirstStorage:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_components_view_equals_the_given_array(self, r):
        grid = ga.LatticeGrid.unit(3, 3)
        c = random_anti_hermitian(np.random.default_rng(r), (7,) + grid.shape + (r, r))
        a = ga.LatticeConnection(grid, c)
        assert a.components.shape == c.shape and np.array_equal(a.components, c)
        assert np.moveaxis(a.components, (-2, -1), (1, 2)).flags.c_contiguous
        # at rank 1 both layouts are the same memory: no copy
        assert np.shares_memory(a.components, c) == (r == 1)

    def test_rank2_fields_are_stored_entry_first(self):
        rng = np.random.default_rng(4)
        a = random_connection(rng, box_grid(nb=3, nf=3), 2)
        x, y = (np.ascontiguousarray(a.components[mu]) for mu in (3, 4))
        assert entry_first(ga._matmul(x, y))
        assert entry_first(ga._matmul(a.components[3], a.components[4], commutator=True))
        for mu, nu in ((0, 4), (3, 5)):
            assert entry_first(a.curvature(mu, nu))
        rho_fibre, rho_horiz = ga.instanton_residual(a)
        assert entry_first(rho_fibre) and entry_first(rho_horiz)

    def test_json_document_is_that_of_the_node_major_array(self):
        rng = np.random.default_rng(5)
        a = random_connection(rng, ga.LatticeGrid.unit(3, 3), 2)
        doc = ga.field_to_json(a)
        assert doc == ga.field_to_json(node_major(a))
        b = ga.field_from_json(doc)
        assert np.array_equal(b.components, a.components)
        assert (b.grid, b.rank) == (a.grid, a.rank)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_results_equal_the_node_major_results(self, r):
        rng = np.random.default_rng(r)
        grid = box_grid(nb=3, nf=4)
        a = random_connection(rng, grid, r)
        g = np.linalg.qr(rng.normal(size=grid.shape + (r, r))
                         + 1j * rng.normal(size=grid.shape + (r, r)))[0]
        assert np.array_equal(ga.gauge_transform(a, g).components,
                              ga.gauge_transform(node_major(a), g).components)


def poly_eval(poly, coords):
    total = 0.0
    for exp, c in poly.terms.items():
        term = float(c)
        for k, e in enumerate(exp):
            if e:
                term = term * coords[k] ** e
        total = total + term
    return total


class TestAgainstExactCalculus:
    """The discrete residual assembly must reproduce the exact polynomial
    exterior calculus: Sum_i (contraction of F with dt_i) ^ w_i equals minus
    the fibre Hodge dual of the horizontal defect 1-form."""

    def test_rho_horiz_matches_forms(self):
        # abelian polynomial potential with mixed t/x dependence
        t1, t2, t3, x1, x2, x3, x4 = [Poly.var(i) for i in range(7)]
        pot = {
            0: t2 * x1,           # A_{t1}
            4: t1 * x3 + t3,      # A_{x2}
            6: t2 * x1,           # A_{x4}
        }
        # exact side: F = dA, V3 = sum_i iota_{t_i} F ^ w_i as a (0,3) form
        one_forms = {mu: BigradedForm.covector(mu, p) for mu, p in pot.items()}
        a_form = None
        for f in one_forms.values():
            a_form = f if a_form is None else a_form + f
        f_form = exterior_d(a_form)
        tri = FibrationData.product().omega
        v3 = BigradedForm(3)
        for i in range(3):
            # iota_{t_i} F: the dt_i ^ dx_a coefficients become a vertical 1-form
            contraction = BigradedForm(1)
            for (I, J), poly in f_form.terms.items():
                if len(I) == 1 and I[0] == i and len(J) == 1:
                    contraction = contraction + BigradedForm.monomial((), J, poly)
            v3 = v3 + wedge(contraction, tri[i])

        grid = box_grid(nb=5, nf=5)
        conn = ga.from_functions(grid, {
            mu: (lambda p: lambda *c: 1j * poly_eval(p, c) * np.ones(grid.shape))(p)
            for mu, p in pot.items()})
        _, rh = ga.instanton_residual(conn)
        rh_s = np.stack([rh[a][..., 0, 0].imag for a in range(4)], axis=-1)

        # -star4 of the defect 1-form, evaluated at the nodes
        coords = grid.coordinates()
        mismatch = 0.0
        basis3 = [tuple(sorted(set((3, 4, 5, 6)) - {3 + a})) for a in range(4)]
        for a in range(4):
            dual = star4(BigradedForm.monomial((), (3 + a,)))
            (j_key,) = dual.terms
            sign = float(dual.terms[j_key].constant_value())
            want = BigradedForm(3)
            for (I, J), poly in v3.terms.items():
                if J == j_key[1]:
                    want = want + BigradedForm.monomial((), J, poly)
            # evaluate the polynomial coefficient of v3 on this basis 3-form
            if want.terms:
                vals = poly_eval(want.terms[((), j_key[1])], coords)
            else:
                vals = 0.0
            got = -sign * rh_s[..., a]
            mismatch = max(mismatch, float(np.abs(np.broadcast_to(vals, got.shape)
                                                  - got).max()))
        assert mismatch < 1e-9


class TestChernSimons:
    def make_theta_path(self, grid, rng, n_times=4, fourier=False):
        coords = grid.coordinates()
        t_axes = coords[:3]
        fields = []
        times = np.linspace(0, 1, n_times)
        c = rng.normal(size=(4, 3))
        d = rng.normal(size=(4, 3))
        for tau in times:
            funcs = {}
            for b in range(4):
                def f(t1, t2, t3, x1, x2, x3, x4, b=b, tau=tau):
                    if fourier:
                        val = sum(c[b][i] * np.sin(2 * np.pi * [t1, t2, t3][i])
                                  + d[b][i] * np.cos(2 * np.pi * [t1, t2, t3][i])
                                  for i in range(3))
                    else:
                        val = sum((c[b][i] + tau * d[b][i]) * [t1, t2, t3][i]
                                  for i in range(3))
                    return 1j * (tau * val if fourier else val) * np.ones_like(x1 + t1)
                funcs[3 + b] = f
            fields.append(ga.from_functions(grid, funcs))
        return ga.ConnectionPath(list(times), fields)

    def test_constant_path_zero(self):
        grid = box_grid(nb=4, nf=4)
        a = ga.from_functions(grid, {4: lambda t1, t2, t3, x1, x2, x3, x4: 1j * x1})
        path = ga.ConnectionPath([0.0, 1.0], [a, a])
        assert ga.cs_instanton(path) == 0.0

    def test_linear_path_to_constant_form(self):
        # endpoint a dx2 with constant a: curvature vanishes along the path
        grid = box_grid(nb=4, nf=4)
        a0 = ga.LatticeConnection.zero(grid)
        a1 = ga.from_functions(grid, {4: lambda t1, t2, t3, x1, x2, x3, x4:
                                      0.8j * np.ones_like(x1 + t1)})
        path = ga.ConnectionPath([0.0, 0.5, 1.0],
                                 [a0,
                                  ga.LatticeConnection(grid, 0.5 * a1.components),
                                  a1])
        assert abs(ga.cs_instanton(path)) < 1e-14

    def test_closed_form_linear_theta(self):
        # theta(tau, t) = tau (a t2, b t1, 0, 0): CS = -ab/(16 pi^2)
        grid = ga.LatticeGrid.unit(5, 4, fibre_periodic=True)
        aa, bb = 0.7, -0.4
        times = np.linspace(0, 1, 5)
        fields = []
        for tau in times:
            fields.append(ga.from_functions(grid, {
                3: (lambda tau=tau: lambda t1, t2, t3, x1, x2, x3, x4:
                    1j * tau * aa * t2 * np.ones_like(x1 + t1))(),
                4: (lambda tau=tau: lambda t1, t2, t3, x1, x2, x3, x4:
                    1j * tau * bb * t1 * np.ones_like(x1 + t1))(),
            }))
        path = ga.ConnectionPath(list(times), fields)
        want = -aa * bb / (16 * np.pi ** 2)
        got = ga.cs_instanton(path)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_slot_table_is_the_pairing_of_unit_slots(self):
        # the slot table pairs a 2-form's PAIR_ORDER slots as hk.wedge22
        # pairs it with the standard triple, exactly, on random rational forms
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = hk.form2({pq: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                          for pq in ga.PAIR_ORDER})
            for l in range(3):
                got = sum(Fraction(c) * f[p][q]
                          for c, (p, q) in zip(ga._SD_SLOTS[l], ga.PAIR_ORDER))
                assert got == hk.wedge22(f, hk.STANDARD_TRIPLE[l])
        assert all(np.count_nonzero(slots) == 2 for slots in ga._SD_SLOTS)

    def test_rank2_path_matches_batched_reference(self):
        path = random_rank2_path()
        want = cs_reference(path)
        assert abs(ga.cs_instanton(path, workers=1) - want) <= 1e-12 * abs(want)

    def test_thread_pool_gives_the_same_value(self):
        path = random_rank2_path()
        assert ga.cs_instanton(path, workers=2) == ga.cs_instanton(path, workers=1)

    def test_each_snapshot_curvature_computed_once(self, curvature_calls):
        path = random_rank2_path(n_times=4)
        ga.cs_instanton(path, workers=1)
        assert len(curvature_calls) == 18 * 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_increment_built_once(self, increment_calls, workers):
        path = random_rank2_path(n_times=4)
        ga.cs_instanton(path, workers=workers)
        index = {id(a): k for k, a in enumerate(path.fields)}
        assert sorted((index[id(a0)], index[id(a1)]) for a0, a1 in increment_calls) == [
            (0, 1), (1, 2), (2, 3)]

    def test_one_snapshot_path_builds_nothing(self, curvature_calls, increment_calls):
        path = random_rank2_path(n_times=1)
        for workers in (1, 2):
            assert ga.cs_instanton(path, workers=workers) == 0.0
        assert curvature_calls == [] and increment_calls == []

    def test_each_curvature_enters_one_slot_term(self):
        mixed = [(l, 3 + b) for l in range(3) for b in range(4)]
        vertical = [(3 + p, 3 + q) for p, q in ga.PAIR_ORDER]
        assert sorted((mu, nu) for mu, nu, _, _ in ga._CS_TERMS) == sorted(mixed + vertical)
        assert {sign for _, _, sign, _ in ga._CS_TERMS} == {1.0, -1.0}

    def test_path_rule_holds_only_the_bordering_increments(self):
        class Increment:
            def __init__(self, j):
                self.j = j

        alive, seen = weakref.WeakSet(), []

        def increment(j, _):
            d = Increment(j)
            alive.add(d)
            return d

        def density(k, increments):
            seen.append((k, [d.j for d in increments], len(alive)))
            return [k + 1.0 for _ in increments]

        assert ga._path_trapezoid(list(range(5)), density, increment) == 12.0
        assert seen == [(0, [0], 1), (1, [0, 1], 2), (2, [1, 2], 2), (3, [2, 3], 2),
                        (4, [3], 1)]
        assert ga._path_trapezoid(list(range(5)), density, increment, workers=2) == 12.0

    def test_rank2_path_functional_peak_memory(self):
        # each curvature is folded in and dropped as it is built: the peak
        # holds the two bordering increments (14 component fields), one
        # curvature with its temporaries and the accumulators
        rng = np.random.default_rng(12)
        grid = ga.LatticeGrid.unit(4, 4)
        fields = [random_connection(rng, grid, 2) for _ in range(3)]
        path = ga.ConnectionPath([0.0, 0.5, 1.0], fields)
        ga.cs_instanton(path)
        tracemalloc.start()
        try:
            ga.cs_instanton(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 21 * fields[0].components[0].nbytes, \
            peak / fields[0].components[0].nbytes

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0], [np.nan, 0.0], [0.0, np.inf],
                                     [-np.inf, 0.0]])
    def test_path_rejects_non_finite_times(self, bad):
        fields = [ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3))] * len(bad)
        k = next(k for k, t in enumerate(bad) if not np.isfinite(t))
        with pytest.raises(ValueError, match=f"time {k} is not finite: {bad[k]!r}"):
            ga.ConnectionPath(bad, fields)

    def test_path_rejects_snapshots_of_another_rank(self):
        grid = ga.LatticeGrid.unit(3, 3)
        fields = [ga.LatticeConnection.zero(grid, rank=r) for r in (1, 1, 2)]
        with pytest.raises(ValueError, match="grid and rank: field 2 differs"):
            ga.ConnectionPath([0.0, 0.5, 1.0], fields)

    def test_path_rejects_snapshots_on_another_grid(self):
        # the same node counts with another fibre spacing
        grid0 = ga.LatticeGrid((3, 3, 3), (3, 3, 3, 3), (0.5,) * 3, (1 / 3,) * 4)
        grid1 = ga.LatticeGrid((3, 3, 3), (3, 3, 3, 3), (0.5,) * 3, (0.25,) * 4)
        fields = [ga.LatticeConnection.zero(g) for g in (grid0, grid1)]
        with pytest.raises(ValueError, match="grid and rank: field 1 differs"):
            ga.ConnectionPath([0.0, 1.0], fields)

    def test_holonomy_section_computes_vertical_curvatures_once(self, curvature_calls):
        grid = ga.LatticeGrid.unit(3, 4, fibre_periodic=True)
        fu.holonomy_section(ga.LatticeConnection.zero(grid))
        assert len(curvature_calls) == 6

    def test_reparametrization_invariance(self):
        grid = ga.LatticeGrid.unit(4, 4, fibre_periodic=True)
        rng = np.random.default_rng(3)
        path = self.make_theta_path(grid, rng, n_times=4)
        # resample the same polygonal path with shuffled parameter values
        times2 = [0.0, 0.1, 0.75, 1.0]
        path2 = ga.ConnectionPath(times2, path.fields)
        v1 = ga.cs_instanton(path)
        v2 = ga.cs_instanton(path2)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_homotopy_invariance_to_scheme_order(self):
        # two boundary-fixing homotopies through fibrewise-flat connections
        grid = ga.LatticeGrid.unit(5, 4, base_periodic=True, fibre_periodic=True)
        rng = np.random.default_rng(4)
        coords = grid.coordinates()

        def theta_field(tau, warp):
            funcs = {}
            for b in range(4):
                def f(t1, t2, t3, x1, x2, x3, x4, b=b, tau=tau, warp=warp):
                    base = np.sin(2 * np.pi * t1 + b) + np.cos(2 * np.pi * t2 - b)
                    mid = np.sin(np.pi * tau) * warp * np.cos(2 * np.pi * t3 + b)
                    return 1j * (tau * base + mid) * np.ones_like(x1 + t1)
                funcs[3 + b] = f
            return ga.from_functions(grid, funcs)

        times = np.linspace(0, 1, 6)
        v = {}
        for warp in (0.0, 0.35):
            fields = [theta_field(tau, warp) for tau in times]
            v[warp] = ga.cs_instanton(ga.ConnectionPath(list(times), fields))
        h2 = grid.spacing_base[0] ** 2 + (times[1] - times[0]) ** 2
        assert abs(v[0.0] - v[0.35]) <= 5.0 * h2


class TestGaugeInvariance:
    def test_constant_gauge_exact(self):
        rng = np.random.default_rng(5)
        grid = ga.LatticeGrid.unit(3, 5, fibre_periodic=True)
        comps = np.zeros((7,) + grid.shape + (2, 2), dtype=complex)
        for mu in range(7):
            m = rng.normal(size=grid.shape + (2, 2)) + 1j * rng.normal(size=grid.shape + (2, 2))
            comps[mu] = 0.1 * (m - np.conj(m.swapaxes(-1, -2)))
        a = ga.LatticeConnection(grid, comps)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        g = np.broadcast_to(q, grid.shape + (2, 2)).copy()
        b = ga.gauge_transform(a, g)
        rf_a, rh_a = ga.instanton_residual(a)
        rf_b, rh_b = ga.instanton_residual(b)
        for x, y in ((rf_a, rf_b), (rh_a, rh_b)):
            na = ga.residual_scalars(x)
            nb = ga.residual_scalars(y)
            assert np.abs(na - nb).max() < 1e-10

    def test_smooth_gauge_covariance_order(self):
        errs = []
        for nf in (6, 12):
            grid = ga.LatticeGrid.unit(3, nf, fibre_periodic=True)
            coords = grid.coordinates()
            a = ga.from_functions(grid, {
                4: lambda t1, t2, t3, x1, x2, x3, x4:
                1j * np.sin(2 * np.pi * x1) * np.ones_like(t1 + x1)})
            alpha = 0.3 * np.sin(2 * np.pi * coords[4]) * np.ones(grid.shape)
            g = np.exp(1j * alpha)[..., None, None]
            b = ga.gauge_transform(a, g)
            rf_a, _ = ga.instanton_residual(a)
            rf_b, _ = ga.instanton_residual(b)
            errs.append(np.abs(ga.residual_scalars(rf_a)
                               - ga.residual_scalars(rf_b)).max())
        assert observed_order(errs[0], errs[1]) >= 1.8


class TestRichardson:
    def test_pinned_asd_fixture_machine_zero(self):
        # the linear-coefficient fixture is exact at any grid: both residuals
        # sit at machine zero, the strongest way to satisfy the order claim
        errs = []
        for nf in (8, 16):
            grid = ga.LatticeGrid.unit(3, nf, fibre_periodic=False)
            a = ga.from_functions(grid, {
                4: lambda t1, t2, t3, x1, x2, x3, x4: 1j * x1,
                6: lambda t1, t2, t3, x1, x2, x3, x4: -1j * x3,
            })
            rf, _ = ga.instanton_residual(a)
            errs.append(float(np.abs(ga.residual_scalars(rf)).max()))
        assert observed_order(errs[0], errs[1]) >= 1.8

    def test_cubic_fixture_genuine_order_two(self):
        errs = []
        for nf in (8, 16):
            grid = ga.LatticeGrid.unit(3, nf, fibre_periodic=False)
            a = ga.from_functions(grid, {
                4: lambda t1, t2, t3, x1, x2, x3, x4: 1j * x1 ** 3,
            })
            coords = grid.coordinates()
            want = 3.0 * coords[3] ** 2  # defect against w_1 is d(x1^3)/dx1
            rf, _ = ga.instanton_residual(a)
            err = np.abs(ga.residual_scalars(rf)[0]
                         - np.broadcast_to(want, grid.shape)).max()
            errs.append(float(err))
        order = observed_order(errs[0], errs[1])
        assert 1.8 <= order <= 2.6


class TestFieldIO:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        grid = ga.LatticeGrid.unit(3, 3, fibre_periodic=True)
        comps = np.zeros((7,) + grid.shape + (2, 2), dtype=complex)
        m = rng.normal(size=comps.shape) + 1j * rng.normal(size=comps.shape)
        comps = m - np.conj(m.swapaxes(-1, -2))
        a = ga.LatticeConnection(grid, comps)
        doc = ga.field_to_json(a)
        b = ga.field_from_json(doc)
        assert np.allclose(a.components, b.components)
        assert b.grid.dims_base == grid.dims_base

    def test_bad_doc(self):
        dims = {"base": [3, 3, 3], "fibre": [3, 3, 3, 3]}
        with pytest.raises(ValueError):
            ga.field_from_json({"dims": dims, "rank": 1, "values": [0.0]})
        with pytest.raises(ValueError, match="^/values is missing$"):
            ga.field_from_json({"dims": dims, "rank": 1})

    @pytest.mark.parametrize("path", ["/rank", "/dims", "/dims/base",
                                      "/dims/fibre", "/values"])
    def test_missing_key_named_by_path(self, path):
        doc = ga.field_to_json(ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3)))
        *parents, key = path.strip("/").split("/")
        inner = doc
        for name in parents:
            inner = inner[name]
        del inner[key]
        with pytest.raises(ValueError, match=f"^{path} is missing$"):
            ga.field_from_json(doc)

    @pytest.mark.parametrize("rank, where", [
        (0, "/rank must be a positive integer"), (-1, "/rank must be a positive integer"),
        ([1], r"/rank must be an integer, got \[1\]")], ids=["0", "-1", "rank2"])
    def test_rank_is_one_positive_integer(self, rank, where):
        doc = ga.field_to_json(ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3)))
        doc["rank"] = rank
        with pytest.raises(ValueError, match=where):
            ga.field_from_json(doc)

    def test_short_dims_rejected_before_unit_spacing(self):
        # the default unit spacing 1 / (n - 1) needs n >= 3 nodes per axis
        doc = ga.field_to_json(ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3)))
        del doc["spacing"]
        doc["dims"] = {"base": [1, 3, 3], "fibre": [3] * 4}
        with pytest.raises(ValueError, match="3 base dims, three nodes per axis"):
            ga.field_from_json(doc)

    def test_mis_shaped_containers_rejected(self):
        # a container of the wrong shape raises a ValueError naming its path,
        # never an AttributeError or TypeError from deeper down
        doc = ga.field_to_json(ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3)))
        for field, value, where in (
                ("periodic", [True], "/periodic"),
                ("spacing", [0.5], "/spacing"),
                ("dims", [3] * 7, "/dims"),
                ("dims", {"base": 3, "fibre": [3] * 4}, "/dims/base"),
                ("spacing", {"fibre": 0.25}, "/spacing/fibre")):
            with pytest.raises(ValueError, match=where):
                ga.field_from_json({**doc, field: value})
        with pytest.raises(ValueError, match="^/ must be an object, got None$"):
            ga.field_from_json(None)

    @pytest.mark.parametrize("field, value, where", [
        ("rank", 1.7, "/rank"), ("rank", True, "/rank"),
        ("periodic", {"base": "false"}, "/periodic/base"),
        ("periodic", {"fibre": 1}, "/periodic/fibre"),
        ("dims", {"base": [3.0, 3, 3], "fibre": [3] * 4}, "/dims/base"),
        ("dims", {"base": [3] * 3, "fibre": [3, 3, 3, 3.5]}, "/dims/fibre"),
        ("spacing", {"base": ["0.5"] * 3}, "/spacing/base"),
        ("spacing", {"fibre": [0.25, 0.25, 0.25, "0.25"]}, "/spacing/fibre"),
        # a rank-1 field on the 3^7 grid has 7 * 3^7 * 2 values
        ("values", [0.0] * (7 * 3 ** 7 * 2 - 1) + ["1.5"], "/values"),
        ("values", ["nan"] + [0.0] * (7 * 3 ** 7 * 2 - 1), "/values"),
        ("values", [0.0, True] + [0.0] * (7 * 3 ** 7 * 2 - 2), "/values"),
        ("values", [0.0] * (7 * 3 ** 7 * 2 - 1) + [float("inf")],
         "/values/30617 must be a finite number, got inf"),
        ("values", 5, "/values must be an array, got 5"),
        ("dims", {"base": [0, 3, 3], "fibre": [3] * 4},
         r"/dims/base: grid needs 3 base dims, three nodes per axis or more, got \(0, 3, 3\)"),
        ("spacing", {"base": [0.0, 0.5, 0.5]},
         "/spacing/base: base spacings must be finite and positive"),
        ("spacing", {"base": [-1, 0.5, 0.5]},
         "/spacing/base: base spacings must be finite and positive"),
        ("spacing", {"fibre": []}, "/spacing/fibre: grid needs 4 fibre spacings, got 0")],
        ids=["float_rank", "bool_rank", "string_base_flag", "int_fibre_flag",
             "float_base_dim", "float_fibre_dim", "string_base_spacing",
             "string_fibre_spacing", "string_value", "string_nan_value",
             "bool_value", "infinite_value", "scalar_values", "zero_base_dim",
             "zero_base_spacing", "negative_base_spacing", "empty_fibre_spacing"])
    def test_guessed_fields_rejected(self, field, value, where):
        doc = ga.field_to_json(ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3)))
        doc[field] = value
        with pytest.raises(ValueError, match=where):
            ga.field_from_json(doc)

    def test_spacing_count_checked(self):
        # one finite positive spacing per axis, on the grid and in documents;
        # a document's NaN or infinite spacing is rejected by its path first
        nan, inf = float("nan"), float("inf")
        for base, fibre, in_doc in (((0.5, 0.5), (0.5,) * 4, "spacings"),
                                    ((0.5,) * 3, (0.5,) * 5, "spacings"),
                                    ((0.5, 0.0, 0.5), (0.5,) * 4, "spacings"),
                                    ((0.5,) * 3, (0.5, -0.5, 0.5, 0.5), "spacings"),
                                    ((nan, 0.5, 0.5), (0.5,) * 4,
                                     "/spacing/base/0 must be a finite number, got nan"),
                                    ((0.5,) * 3, (0.5, 0.5, 0.5, inf),
                                     "/spacing/fibre/3 must be a finite number, got inf")):
            with pytest.raises(ValueError, match="spacings"):
                ga.LatticeGrid((3, 3, 3), (3, 3, 3, 3), base, fibre)
            doc = ga.field_to_json(ga.LatticeConnection.zero(ga.LatticeGrid.unit(3, 3)))
            doc["spacing"] = {"base": list(base), "fibre": list(fibre)}
            with pytest.raises(ValueError, match=in_doc):
                ga.field_from_json(doc)

    def test_non_integral_dims_rejected(self):
        with pytest.raises(ValueError, match="base dims must be integers"):
            ga.LatticeGrid((3.7, 3, 3), (3,) * 4, (0.5,) * 3, (0.25,) * 4)
        with pytest.raises(ValueError, match="fibre dims must be integers"):
            ga.LatticeGrid((3,) * 3, (3, 3, 3, 4.0), (0.5,) * 3, (0.25,) * 4)
        grid = ga.LatticeGrid(np.array([3, 4, 5]), (np.int64(3),) * 4,
                              (0.5,) * 3, (0.25,) * 4)
        assert grid.shape == (3, 4, 5, 3, 3, 3, 3)
        assert all(type(n) is int for n in grid.shape)

    def test_missing_spacing_follows_the_unit_grid(self):
        # periodic base, box fibre: the opposite of the default flags
        grid = ga.LatticeGrid.unit(4, 5, base_periodic=True, fibre_periodic=False)
        doc = ga.field_to_json(ga.LatticeConnection.zero(grid))
        del doc["spacing"]
        b = ga.field_from_json(doc)
        assert b.grid.spacing_base == grid.spacing_base == (0.25,) * 3
        assert b.grid.spacing_fibre == grid.spacing_fibre == (0.25,) * 4
