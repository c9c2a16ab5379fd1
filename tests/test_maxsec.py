import json
import time
import tracemalloc

import numpy as np
import pytest

from adg2 import maxsec as mx


def perturbed_affine(rng, dims=(7, 7, 7), spacing=None, amp=2e-3):
    spacing = spacing or tuple(1.0 / (n - 1) for n in dims)
    s = mx.affine_section(dims, spacing)
    bump = rng.normal(size=s.values.shape) * amp
    mask = s.interior_mask()
    s.values[mask] += bump[mask]
    return s


def graphical_section(dims=(7, 7, 7), b=19):
    """h(t) = (t, u(t)) with a small smooth graph u in the first negative
    direction of R^(3+b): the maxsec-smooth benchmark input at b = 19."""
    spacing = tuple(1.0 / (n - 1) for n in dims)
    s = mx.affine_section(dims, spacing, pairing=mx.standard_pairing(b))
    axes = [np.arange(n) * h for n, h in zip(dims, spacing)]
    tt = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    u = 0.05 * np.sin(np.pi * tt[..., 0]) * np.cos(np.pi * tt[..., 1]) * tt[..., 2]
    s.values[..., mx.SIG_PLUS] += u
    return s


def catenoid_section(dims=(13, 13, 13), a=0.5, b=1):
    """The spacelike catenoid t = f(|x - c|) over the unit box, c = -0.35
    (1, 1, 1), with f'(r) = a / sqrt(r^4 + a^2) and f(0.5) = 0: a maximal
    hypersurface of R^(3,1), as the first negative component of R^(3+b)
    and zero in the others, with the interior nodes on the graph.  f is
    40-point Gauss-Legendre quadrature of f' over [0.5, r]."""
    spacing = tuple(1.0 / (n - 1) for n in dims)
    s = mx.affine_section(dims, spacing, pairing=mx.standard_pairing(b))
    axes = [np.arange(n) * h for n, h in zip(dims, spacing)]
    r = np.linalg.norm(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1) + 0.35, axis=-1)
    x, w = np.polynomial.legendre.leggauss(40)
    half = 0.5 * (r - 0.5)[..., None]
    rho = 0.5 + half * (1.0 + x)
    s.values[..., mx.SIG_PLUS] = np.sum(w * half * a / np.sqrt(rho ** 4 + a ** 2), axis=-1)
    return s


def general_pairing(rng, s):
    """The section S^-1 h under the pairing S^T Q S, for a random
    (non-orthogonal) S: it has the Gram matrices of h under Q."""
    width = len(s.pairing)
    sm = np.eye(width) + 0.3 * rng.normal(size=(width, width))
    q = sm.T @ s.pairing @ sm
    return mx.SectionGrid(s.values @ np.linalg.inv(sm).T, s.spacing, 0.5 * (q + q.T))


def interior_direction(rng, s):
    d = rng.normal(size=s.values.shape)
    d[~s.interior_mask()] = 0.0
    return d


def sine_mode(s, ks, coord):
    """delta whose coordinate coord is the interior sine mode ks (one wave
    number per axis); zero elsewhere and on the boundary."""
    phi = [np.sin(np.pi * k * np.arange(n) / (n - 1)) for n, k in zip(s.dims, ks)]
    d = np.zeros(s.values.shape)
    d[..., coord] = phi[0][:, None, None] * phi[1][None, :, None] * phi[2][None, None, :]
    d[~s.interior_mask()] = 0.0
    return d


def hessian_setup(s):
    """The iterate at s, with its Hessian data, and a workspace for its grid."""
    it = mx._Iterate(s)
    work = mx._Workspace(s)
    mx._hessian_cache(it, work)
    return it, work


def on_interior(f, u):
    """f, an operator on interior node arrays called as _minres calls it,
    f(u, out), applied to the interior of the node array u: a new node
    array, zero on the boundary."""
    inner = np.ascontiguousarray(u[mx._INTERIOR])
    out = np.zeros_like(u)
    out[mx._INTERIOR] = f(inner, np.empty_like(inner))
    return out


def product(it, work, delta):
    """A Hessian-vector product of delta's interior, as a new node array."""
    return on_interior(lambda d, out: mx._hessian_apply(it, work, d, out), delta)


def hessian_apply(s, delta):
    return product(*hessian_setup(s), delta)


def corner_stack(values):
    """(cells..., 8 corners, 3 + b) copy of the nodal values, corner (o1,
    o2, o3) of cell (i, j, k) at node (i + o1, j + o2, k + o3)."""
    n1, n2, n3 = values.shape[:3]
    return np.stack([values[o1:n1 - 1 + o1, o2:n2 - 1 + o2, o3:n3 - 1 + o3]
                     for o1 in (0, 1) for o2 in (0, 1) for o3 in (0, 1)], axis=-2)


def gauss_derivatives(s, values):
    """Derivatives (cells..., 8 gauss, 3, 22) of the interpolant of values at
    the Gauss points, by the shape-gradient table contracted by einsum."""
    table = mx._shape_gradient_table(s.spacing)
    return np.einsum("gca,...cv->...gav", table, corner_stack(values))


def reference_hessian_apply(s, delta):
    """-d(grad_area) along delta as first written: Gauss-point derivatives
    by einsum, Q applied at every Gauss point, det and inverse by
    numpy.linalg."""
    dh = gauss_derivatives(s, s.values)
    qd = dh @ s.pairing
    g = dh @ qd.swapaxes(-1, -2)
    det = np.linalg.det(g)
    ginv = np.linalg.inv(g)
    w13 = (np.prod(s.spacing) / 8.0) * (2.0 / 3.0) * det ** (1.0 / 3.0)
    gq = ginv @ qd
    table = mx._shape_gradient_table(s.spacing)
    dd = gauss_derivatives(s, delta)
    qdelta = dd @ s.pairing
    half = dd @ qd.swapaxes(-1, -2)
    dgram = half + half.swapaxes(-1, -2)
    tr = np.einsum("...ab,...ba->...", ginv, dgram)
    inner = qdelta - dgram @ gq
    dm = w13[..., None, None] * ((tr / 3.0)[..., None, None] * gq + ginv @ inner)
    cells = np.einsum("gca,...gav->...cv", table, dm)
    out = np.zeros_like(delta)
    n1, n2, n3 = delta.shape[:3]
    for ci, (o1, o2, o3) in enumerate(mx._CORNERS):
        out[o1:n1 - 1 + o1, o2:n2 - 1 + o2, o3:n3 - 1 + o3] += cells[..., ci, :]
    out[~s.interior_mask()] = 0.0
    return -out


class TestSectionGrid:
    @pytest.mark.parametrize("spacing", [
        (0.25, 0.25), (0.25, 0.25, 0.25, 0.25), (0.25, 0.25, float("nan")),
        (0.25, float("inf"), 0.25), (0.25, 0.0, 0.25), (-0.25, 0.25, 0.25)])
    def test_bad_spacing_rejected(self, spacing):
        values = mx.affine_section((5, 5, 5), (0.25,) * 3).values
        with pytest.raises(ValueError):
            mx.SectionGrid(values, spacing)


class TestDiscretization:
    def test_gauss_derivatives_exact_on_affine(self):
        spacing = (0.3, 0.11, 0.7)
        frame = np.zeros((22, 3))
        frame[:3, :] = np.diag([2.0, -1.0, 0.5])
        s = mx.affine_section((6, 5, 7), spacing, frame=frame)
        frames, _, g = mx._gram(s)
        # every Gauss point sees the exact constant derivative t2_g X and
        # the exact Gram matrix frame^T Q frame
        table = mx._shape_gradient_table(s.spacing)
        dh = np.einsum("gca,...cv->...gav", table, frames)
        for ax in range(3):
            want = frame[:, ax]
            assert np.abs(dh[..., ax, :] - want).max() < 1e-12
        assert np.abs(g - frame.T @ s.pairing @ frame).max() < 1e-12

    def test_shape_gradient_table_is_built_once_per_spacing(self):
        # _cell_maps and every Newton step's _section_frame_basis share one
        # read-only table per spacing
        table = mx._shape_gradient_table((0.3, 0.11, 0.7))
        assert mx._shape_gradient_table((0.3, 0.11, 0.7)) is table
        assert not table.flags.writeable

    @pytest.mark.parametrize("dims", [(3, 5, 4), (9, 7, 8)])
    @pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
    def test_gram_equals_gauss_point_derivatives(self, dims, general):
        # _gram's cell products against dh Q dh^T from the Gauss-point
        # derivatives of the interpolant
        rng = np.random.default_rng(26)
        s = perturbed_affine(rng, dims=dims, amp=2e-2)
        if general:
            s = general_pairing(rng, s)
        dh = gauss_derivatives(s, s.values)
        want = dh @ s.pairing @ dh.swapaxes(-1, -2)
        got = mx._gram(s)[2]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_interior_perturbation_integrates_to_zero(self):
        # element-wise integration by parts: the mean Gauss derivative of an
        # interior-supported perturbation vanishes (affine criticality)
        rng = np.random.default_rng(2)
        delta = np.zeros((6, 6, 6, 22))
        delta[1:-1, 1:-1, 1:-1] = rng.normal(size=(4, 4, 4, 22))
        s = mx.SectionGrid(mx.affine_section((6, 6, 6), (0.2,) * 3).values,
                           (0.2,) * 3)
        table = mx._shape_gradient_table(s.spacing)
        corners = corner_stack(delta)
        dd = np.einsum("gca,...cv->...gav", table, corners)
        total = dd.sum(axis=(0, 1, 2, 3))
        assert np.abs(total).max() < 1e-10

    def test_checkerboard_not_in_kernel(self):
        # the 2x2x2 Gauss rule has no hourglass modes
        s = mx.affine_section((7, 7, 7), (1 / 6,) * 3)
        idx = np.indices((7, 7, 7)).sum(axis=0) % 2
        mask = s.interior_mask()
        s.values[..., 5] += 1e-3 * np.where(idx == 0, 1.0, -1.0) * mask
        assert np.abs(mx.grad_area(s)).max() > 1e-8


class TestArea:
    def test_orthonormal_affine_unit_cube(self):
        s = mx.affine_section((9, 9, 9), (0.125, 0.125, 0.125))
        assert abs(mx.area(s) - 1.0) < 1e-12

    def test_quadratic_scaling(self):
        s = mx.affine_section((5, 6, 7), (0.25, 0.2, 1.0 / 6))
        a1 = mx.area(s)
        s2 = mx.SectionGrid(1.7 * s.values, s.spacing, s.pairing)
        assert abs(mx.area(s2) - 1.7 ** 2 * a1) < 1e-10 * a1

    def test_isometry_invariance(self):
        rng = np.random.default_rng(2)
        s = perturbed_affine(rng)
        a0 = mx.area(s)
        for _ in range(5):
            psi = mx.MuMap.random(rng)
            assert abs(mx.area(mx.dualize(s, psi)) - a0) < 1e-10 * abs(a0)

    def test_positivity_rejected_with_node(self):
        # a timelike kick at the corner node (4, 4, 0) touches only cell
        # (3, 3, 0); its worst Gauss point is the one nearest that node,
        # offsets (1, 1, 0), index 4 * 1 + 2 * 1 + 0
        s = mx.affine_section((5, 5, 5), (0.25, 0.25, 0.25))
        s.values[4, 4, 0, mx.SIG_PLUS] += 2.0
        eig = np.linalg.eigvalsh(mx._gram(s)[2])[..., 0]
        assert {tuple(c) for c in np.argwhere(eig <= 0)[:, :3]} == {(3, 3, 0)}
        with pytest.raises(mx.PositivityError) as err:
            mx.area(s)
        assert err.value.cell == (3, 3, 0)
        assert err.value.gauss == 6
        assert err.value.min_eig == eig[3, 3, 0, 6] == eig.min()

    def test_nan_node_rejected_with_its_cell(self):
        # a NaN minor is not positive: the corner node (4, 4, 0) touches only
        # cell (3, 3, 0), whose Gram matrices are all NaN, and its first
        # Gauss point is named, with no eigenvalue
        s = mx.affine_section((5, 5, 5), (0.25, 0.25, 0.25))
        s.values[4, 4, 0, 0] = np.nan
        for run in (mx.area, mx.solve_dirichlet):
            with pytest.raises(mx.PositivityError) as err:
                run(s)
            assert err.value.cell == (3, 3, 0) and err.value.gauss == 0
            assert np.isnan(err.value.min_eig)

    def test_constant_shift_changes_nothing(self):
        rng = np.random.default_rng(3)
        s = perturbed_affine(rng)
        shift = rng.normal(size=22)
        s2 = mx.SectionGrid(s.values + shift, s.spacing, s.pairing)
        assert abs(mx.area(s2) - mx.area(s)) < 1e-12
        assert np.allclose(mx.grad_area(s2), mx.grad_area(s), atol=1e-10)


class TestGradArea:
    def test_affine_critical(self):
        s = mx.affine_section((7, 7, 7), (1 / 6, 1 / 6, 1 / 6))
        assert np.abs(mx.grad_area(s)).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        s = perturbed_affine(rng, dims=(5, 5, 5))
        g = mx.grad_area(s)
        mask = s.interior_mask()
        step = 1e-5
        for _ in range(20):
            d = rng.normal(size=s.values.shape)
            d[~mask] = 0.0
            d /= np.abs(d).max()
            sp = mx.SectionGrid(s.values + step * d, s.spacing, s.pairing)
            sm = mx.SectionGrid(s.values - step * d, s.spacing, s.pairing)
            fd = (mx.area(sp) - mx.area(sm)) / (2 * step)
            an = float(np.sum(g * d))
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    def test_isometry_equivariance(self):
        rng = np.random.default_rng(5)
        s = perturbed_affine(rng)
        g = mx.grad_area(s)
        qinv = np.linalg.inv(s.pairing)
        for _ in range(5):
            psi = mx.MuMap.random(rng)
            g2 = mx.grad_area(mx.dualize(s, psi))
            # Q-dual vectors transform by the isometry itself
            lhs = g2 @ qinv.T
            rhs = (g @ qinv.T) @ psi.matrix.T
            assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())

    def test_clamped_residual_nodes_counted(self):
        # moving node (4, 3, 3) makes the central-difference frame at node
        # (3, 3, 3) indefinite, while every Gauss-point Gram matrix stays
        # positive; the residual metric is indefinite there too, and the one
        # negative squared norm counts as 0
        s = mx.affine_section((7, 7, 7), (1 / 6,) * 3)
        s.values[4, 3, 3, 0] -= 2 / 6
        s.values[4, 3, 3, mx.SIG_PLUS] += 0.2 / 6
        frame = np.stack([np.gradient(s.values, 1 / 6, axis=i)[3, 3, 3]
                          for i in range(3)], axis=-1)
        assert np.linalg.eigvalsh(frame.T @ s.pairing @ frame)[0] < 0
        out = mx.solve_dirichlet(s, max_iter=0)
        assert out.residual_clamped_nodes == 1
        assert out.residual == mx.residual_norm(s) > 0

    def test_residual_of_the_stacked_gradient_frame(self):
        # _residual fills its frame one derivative at a time; the frame
        # stacked from whole-grid np.gradient fields gives the same norm and
        # clamped count, bit for bit
        rng = np.random.default_rng(29)
        s = perturbed_affine(rng, dims=(6, 7, 8), spacing=(0.2, 0.15, 0.1))
        s.values[3, 3, 3, 0] -= 0.4  # an indefinite frame: one clamped node
        grad = mx.grad_area(s)
        inner = grad[mx._INTERIOR]
        v = np.stack([np.gradient(s.values, s.spacing[i], axis=i, edge_order=2)[mx._INTERIOR]
                      for i in range(3)], axis=-2)
        g = (v @ s.pairing) @ v.swapaxes(-1, -2)
        y = (v @ inner[..., None])[..., 0]
        ginv = mx._inv3(g, mx._det3(*mx._sym(g)))
        sq = 2.0 * ((ginv * y[..., mx._SYM_ROWS] * y[..., mx._SYM_COLS]) @ mx._SYM_WEIGHT)
        sq -= np.sum((inner @ np.linalg.inv(s.pairing).T) * inner, axis=-1)
        want = float(np.sqrt(np.maximum(sq, 0).max())) / float(np.prod(s.spacing))
        assert mx._residual(s, grad) == (want, int(np.count_nonzero(sq < 0)))
        assert np.count_nonzero(sq < 0) >= 1

    def test_residual_peak_memory(self):
        # the frame v is built one contiguous derivative field at a time and
        # freed before the norms: at 11^3 the peak is v plus numpy's buffers
        # for one strided difference (2.1 values.nbytes); three whole-grid
        # derivative fields and a stacked frame would take 4.7
        s = perturbed_affine(np.random.default_rng(29), dims=(11, 11, 11))
        grad = mx.grad_area(s)
        mx._residual(s, grad)
        tracemalloc.start()
        try:
            mx._residual(s, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * s.values.nbytes

    def test_invariant_residual_norm(self):
        rng = np.random.default_rng(6)
        s = perturbed_affine(rng)
        r0 = mx.residual_norm(s)
        for _ in range(5):
            psi = mx.MuMap.random(rng)
            r1 = mx.residual_norm(mx.dualize(s, psi))
            assert abs(r1 - r0) <= 1e-10 * max(1.0, r0)


class TestHessian:
    @pytest.mark.parametrize("make", [
        lambda: perturbed_affine(np.random.default_rng(20), dims=(5, 5, 5), amp=2e-2),
        graphical_section], ids=["perturbed5", "graphical7"])
    def test_matches_central_differences_of_grad(self, make):
        s = make()
        rng = np.random.default_rng(21)
        step = 1e-5
        for _ in range(3):
            d = interior_direction(rng, s)
            sp = mx.SectionGrid(s.values + step * d, s.spacing, s.pairing)
            sm = mx.SectionGrid(s.values - step * d, s.spacing, s.pairing)
            fd = -(mx.grad_area(sp) - mx.grad_area(sm)) / (2 * step)
            hv = hessian_apply(s, d)
            assert np.abs(hv - fd).max() <= 1e-6 * np.abs(hv).max()

    def test_symmetric(self):
        s = graphical_section()
        rng = np.random.default_rng(22)
        it, work = hessian_setup(s)
        for _ in range(3):
            u, v = interior_direction(rng, s), interior_direction(rng, s)
            uhv = float(np.sum(u * product(it, work, v)))
            vhu = float(np.sum(v * product(it, work, u)))
            assert abs(uhv - vhu) <= 1e-12 * abs(uhv)

    def test_equals_reference_under_a_general_pairing(self):
        # the section S^-1 h under the pairing S^T Q S has the Gram matrices
        # of h under Q, for a random (non-orthogonal) S
        rng = np.random.default_rng(23)
        base = perturbed_affine(rng, dims=(5, 5, 5), amp=2e-2)
        for s in (base, general_pairing(rng, base)):
            d = interior_direction(rng, s)
            want = reference_hessian_apply(s, d)
            got = hessian_apply(s, d)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # (3, 5, 4) and (5, 3, 40) have a 3-node axis, and (6, 5, 3) a 3-node
    # last axis, so that every other padded cell is a pad; the cells of (9,
    # 7, 8) and (5, 3, 40) do not split into equal blocks of whole slabs, and
    # a slab of (4, 19, 17) holds more than _BLOCK_CELLS cells, so its
    # blocks are single slabs
    BLOCK_GRIDS = [(3, 5, 4), (9, 7, 8), (5, 3, 40), (4, 19, 17), (6, 5, 3)]

    def test_block_grids_cover_the_block_rule(self):
        slabs = []
        for dims in self.BLOCK_GRIDS:
            cells = [n - 1 for n in dims]
            slab = cells[1] * cells[2]
            slabs.append((cells[0], max(1, mx._BLOCK_CELLS // slab)))
        assert any(n % k and k < n for n, k in slabs)  # a short last block
        assert any(k == 1 for _, k in slabs)  # one slab per block
        assert any(k >= n for n, k in slabs)  # one block

    @pytest.mark.parametrize("dims", BLOCK_GRIDS)
    def test_padded_gather_and_scatter_match_strided_slices(self, dims):
        # the product's blocks, gathered and scattered on the padded layout:
        # a gather from zero-bordered nodes reads each real cell's corners
        # and zeros at the pads, and _scatter adds the same terms onto the
        # same nodes in the same corner order as strided adds, block after
        # block, so the node sums agree bit for bit
        rng = np.random.default_rng(27)
        n1, n2, n3 = dims
        work = mx._Workspace(perturbed_affine(rng, dims=dims))
        nodes = np.zeros(dims + (5,))
        nodes[mx._INTERIOR] = rng.normal(size=nodes[mx._INTERIOR].shape)
        terms = rng.normal(size=(8, n1 - 1, n2 - 1, n3 - 1, 5))
        got, want = np.zeros_like(nodes), np.zeros_like(nodes)
        slab = n2 * n3
        for i0 in range(0, n1 - 1, work.slabs):
            i1 = min(i0 + work.slabs, n1 - 1)
            gathered = np.full((8, (i1 - i0) * slab, 5), np.nan)
            runs = mx._corner_runs(nodes, i0 * slab, gathered.shape[1])
            for run, corner in zip(runs, gathered):
                corner[:len(run)] = run
            real = mx._real_cells(gathered, dims)
            assert np.array_equal(real, corner_stack(nodes)[i0:i1])
            pads = np.ones(gathered.shape[1], dtype=bool)
            pads.reshape(i1 - i0, n2, n3)[:, :-1, :-1] = False
            cut = len(runs[0])  # the runs stop at the grid's last real cell
            assert not gathered[:, :cut][:, pads[:cut]].any()
            padded = np.zeros_like(gathered)
            real = mx._real_cells(padded, dims)
            real[...] = np.moveaxis(terms[:, i0:i1], 0, -2)
            mx._scatter(padded, got, i0 * slab)
            # a pad cell's corners are all boundary nodes
            at_pads = np.zeros(dims + (5,))
            mx._scatter(np.ones_like(padded) * pads[:, None], at_pads, i0 * slab)
            assert at_pads.any() and not at_pads[mx._INTERIOR].any()
            for ci, (o1, o2, o3) in enumerate(mx._CORNERS):
                want[i0 + o1:i1 + o1, o2:n2 - 1 + o2, o3:n3 - 1 + o3] += terms[ci, i0:i1]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dims", BLOCK_GRIDS)
    def test_gradient_is_the_strided_sum(self, dims):
        # the gradient's cell terms S X, added onto the nodes by strided
        # adds corner after corner and mapped by Q, give the iterate's
        # gradient bit for bit
        s = general_pairing(np.random.default_rng(28), perturbed_affine(
            np.random.default_rng(28), dims=dims))
        it = mx._Iterate(s)
        terms = it.stiff @ it.frames
        n1, n2, n3 = dims
        nodes = np.zeros(s.values.shape)
        for ci, (o1, o2, o3) in enumerate(mx._CORNERS):
            nodes[o1:n1 - 1 + o1, o2:n2 - 1 + o2, o3:n3 - 1 + o3] += terms[..., ci, :]
        want = np.zeros_like(nodes)
        want[mx._INTERIOR] = nodes[mx._INTERIOR] @ s.pairing
        assert np.array_equal(it.grad, want)

    @pytest.mark.parametrize("dims", BLOCK_GRIDS)
    @pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
    def test_equals_reference_on_uneven_blocks(self, dims, general):
        rng = np.random.default_rng(25)
        s = perturbed_affine(rng, dims=dims)
        if general:
            s = general_pairing(rng, s)
        it, work = hessian_setup(s)
        u, v = interior_direction(rng, s), interior_direction(rng, s)
        hu, hv = product(it, work, u), product(it, work, v)
        for d, got in ((u, hu), (v, hv)):
            want = reference_hessian_apply(s, d)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        uhv, vhu = float(np.sum(u * hv)), float(np.sum(v * hu))
        assert abs(uhv - vhu) <= 1e-12 * abs(uhv)

    def test_cache_peak_memory(self):
        # the tangent maps go into the iterate's scratch a block at a time:
        # the cache allocates only a block's two (rows, 21) products at 11^3
        # (2.3 values.nbytes)
        s = perturbed_affine(np.random.default_rng(24), dims=(11, 11, 11))
        it, work = hessian_setup(s)
        tracemalloc.start()
        try:
            mx._hessian_cache(it, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * s.values.nbytes

    def test_iterate_peak_memory(self):
        # an iterate built from its corner frames at 11^3 (32.07
        # values.nbytes); the Gauss-point derivatives dh and dh Q alone take 36
        s = perturbed_affine(np.random.default_rng(24), dims=(11, 11, 11))
        mx._Iterate(s)
        tracemalloc.start()
        try:
            mx._Iterate(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * s.values.nbytes

    def test_reload_allocates_no_cell_arrays(self):
        # the line search builds each trial into the arrays of one iterate:
        # a reload allocates only per-cell scalars (det, det^(1/3) and the
        # entries of G^-1) at 11^3 (2.7 values.nbytes), and rebuilds the
        # iterate exactly
        rng = np.random.default_rng(24)
        s = perturbed_affine(rng, dims=(11, 11, 11))
        other = perturbed_affine(rng, dims=(11, 11, 11))
        it = mx._Iterate(other)
        tracemalloc.start()
        try:
            it.load(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * s.values.nbytes
        fresh = mx._Iterate(s)
        assert it.area == fresh.area
        for name in ("frames", "qframes", "g", "ginv", "a", "stiff", "grad"):
            assert np.array_equal(getattr(it, name), getattr(fresh, name)), name

    @staticmethod
    def workspace_case():
        """An 11^3 iterate, its workspace and two directions, as the interior
        node arrays that MINRES hands the product."""
        rng = np.random.default_rng(24)
        s = perturbed_affine(rng, dims=(11, 11, 11))
        it, work = hessian_setup(s)
        d1, d2 = (np.ascontiguousarray(interior_direction(rng, s)[mx._INTERIOR])
                  for _ in range(2))
        return s, it, work, d1, d2

    def test_product_allocates_only_its_result(self):
        # the product goes into the buffer it is given and its intermediates
        # into the workspace, and the gathers and scatters are contiguous
        # copies and adds, so it allocates no array and needs no ufunc
        # buffer: only views (3.1 KB at 11^3, against 1/16 of d.nbytes = 7.8
        # KB; the strided adds of the corner slices took 72 KB)
        _, it, work, d, _ = self.workspace_case()
        out = np.empty_like(d)
        mx._hessian_apply(it, work, d, out)
        tracemalloc.start()
        try:
            mx._hessian_apply(it, work, d, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= d.nbytes / 16

    def test_krylov_vectors_are_interior(self):
        # MINRES's seven vectors, the preconditioner's symbol and transform
        # buffers, and a product's delta and result are interior node arrays;
        # the product reads delta through the workspace's zero-bordered nodes
        s, it, work, d, _ = self.workspace_case()
        inner = s.values[mx._INTERIOR].shape
        assert d.shape == inner == (9, 9, 9, 22)
        assert work.vectors.shape == (7,) + inner
        assert work.symbol.shape == work.x.shape == work.y.shape == inner
        assert work.delta.shape == s.values.shape
        mx._hessian_apply(it, work, d, np.empty_like(d))
        assert np.array_equal(work.delta[mx._INTERIOR], d)
        work.delta[mx._INTERIOR] = 0.0
        assert not work.delta.any()

    def test_results_are_fresh_and_repeatable(self):
        # the buffer contract of MINRES on interior node arrays: a product
        # overwrites all of the buffer it is given and returns it; it only
        # reads delta, and leaves every other buffer as it was
        s, it, work, d1, d2 = self.workspace_case()
        kept_d1 = d1.copy()
        first = np.full_like(d1, np.nan)
        assert mx._hessian_apply(it, work, d1, first) is first
        assert np.array_equal(d1, kept_d1)
        kept = first.copy()
        second = np.full_like(d2, np.nan)
        mx._hessian_apply(it, work, d2, second)
        assert np.array_equal(first, kept)
        want = reference_hessian_apply(s, np.pad(d2, [(1, 1)] * 3 + [(0, 0)]))[mx._INTERIOR]
        assert np.abs(second - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(mx._hessian_apply(it, work, d1, second), kept)


class TestPreconditioner:
    @pytest.mark.parametrize("dims", [(11, 11, 11), (9, 7, 8), (4, 9, 11)])
    def test_exact_at_affine_section(self, dims):
        # M H = V on the sine modes, with V the cell volume: M H delta = V
        # delta on the complement, and Rayleigh quotient V on each frame
        # coefficient's modes
        s = mx.affine_section(dims, tuple(1.0 / (n - 1) for n in dims))
        it, work = hessian_setup(s)
        precond = mx._split_preconditioner(it, work)
        vol = float(np.prod(s.spacing))
        top = tuple(n - 2 for n in dims)
        modes = [(1, 1, 1), (2, 3, 1), (1, top[1], 3), top]
        for ks in modes:
            for coord in (mx.SIG_PLUS, 12, len(s.pairing) - 1):
                d = sine_mode(s, ks, coord)
                mhd = on_interior(precond, product(it, work, d)) / vol
                assert np.abs(mhd - d).max() <= 1e-12
            for coord in range(mx.SIG_PLUS):
                d = sine_mode(s, ks, coord)
                mhd = on_interior(precond, product(it, work, d)) / vol
                assert abs(np.sum(d * mhd) / np.sum(d * d) - 1.0) <= 1e-12


def dense_pair(n, components, b=19):
    """Dense H (_hessian_apply) and P (_split_preconditioner) at the affine
    n^3 section with the standard frame and spacing 1 / (n - 1) under
    standard_pairing(b), on the interior unknowns of the given node
    components (node-major order), with the cell volume V and each
    unknown's component.  Both operators act on interior node arrays."""
    s = mx.affine_section((n,) * 3, (1.0 / (n - 1),) * 3, pairing=mx.standard_pairing(b))
    it, work = hessian_setup(s)
    precond = mx._split_preconditioner(it, work)
    inner = s.values[mx._INTERIOR].shape
    mask = np.zeros(inner, dtype=bool)
    mask[..., components] = True
    unknowns = np.flatnonzero(mask)
    h, p = np.empty((2, unknowns.size, unknowns.size))
    for col, flat in enumerate(unknowns):
        unit = np.zeros(inner)
        unit.flat[flat] = 1.0
        h[:, col] = mx._hessian_apply(it, work, unit, np.empty(inner)).flat[unknowns]
        p[:, col] = precond(unit, np.empty(inner)).flat[unknowns]
    return h, p, float(np.prod(s.spacing)), unknowns % len(s.pairing)


def spectrum(m):
    """The eigenvalues of m, real to rounding, in ascending order."""
    w = np.linalg.eigvals(m)
    assert np.abs(w.imag).max() <= 1e-10
    return np.sort(w.real)


class TestPreconditionerSpectrum:
    """The diagnosis of the MINRES growth with the grid: at the affine
    section P H / V is the identity on the b = B normal components and does
    not couple them to the frame; on the frame it lies in (0, 3), with an
    O(h^2) floor from the divergence-free tangential modes.  Fails if either
    block's symbol changes."""

    B = 19

    def test_blocks_at_5(self):
        h, p, vol, comp = dense_pair(5, slice(None), self.B)
        m = p @ h / vol
        normal, tangential = comp >= mx.SIG_PLUS, comp < mx.SIG_PLUS
        assert np.abs(spectrum(m[np.ix_(normal, normal)]) - 1.0).max() <= 1e-10
        assert np.abs(m[np.ix_(normal, tangential)]).max() <= 1e-12
        assert np.abs(m[np.ix_(tangential, normal)]).max() <= 1e-12
        w = spectrum(m[np.ix_(tangential, tangential)])
        assert 0.0 < w[0] and w[-1] < 3.0
        assert 3.0 <= w[0] * 4 ** 2 <= 4.5
        # the ends as measured, which a rescaled frame symbol moves (2/8 in
        # place of 2/9 stays inside the bounds above)
        assert np.allclose((w[0], w[-1]), (0.25, 2.5), rtol=0, atol=1e-9)

    def test_tangential_block_at_7(self):
        h, p, vol, _ = dense_pair(7, slice(0, mx.SIG_PLUS), self.B)
        assert h.shape == (375, 375)
        w = spectrum(p @ h / vol)
        assert 0.0 < w[0] and w[-1] < 3.0
        assert 3.0 <= w[0] * 6 ** 2 <= 4.5
        assert np.allclose((w[0], w[-1]), (0.1, 2.8), rtol=0, atol=1e-9)


class TestPreconditionerSpectrumAtB3(TestPreconditionerSpectrum):
    """The same spectra under the (3, 3) pairing of 2-forms on a flat T^4."""

    B = 3


def matrix_apply(m):
    """The operator u -> m u in the form _minres calls: f(u, out)."""
    return lambda u, out: np.matmul(m, u, out=out)


class TestMinres:
    N = 30

    @classmethod
    def problem(cls):
        """A symmetric indefinite H (a third of its eigenvalues negative,
        |lambda| in [1, 2]), an SPD preconditioner matrix P = I + 0.2 A A^T /
        N and a right-hand side."""
        rng = np.random.default_rng(50)
        u = np.linalg.qr(rng.normal(size=(cls.N, cls.N)))[0]
        lam = rng.uniform(1.0, 2.0, size=cls.N) * np.where(np.arange(cls.N) % 3, 1.0, -1.0)
        h = (u * lam) @ u.T
        a = rng.normal(size=(cls.N, cls.N))
        p = 0.2 * a @ a.T / cls.N + np.eye(cls.N)
        return h, p, rng.normal(size=cls.N)

    def solve(self, h, p, b, eta, maxiter=100):
        return mx._minres(matrix_apply(h), matrix_apply(p), b, eta, maxiter,
                          np.empty((7,) + b.shape))

    def test_accurate_solve(self):
        h, p, b = self.problem()
        x, iters, _ = self.solve(h, p, b, 1e-12)
        assert iters <= self.N + 1
        want = np.linalg.solve(h, b)
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()

    def test_stops_on_the_preconditioned_residual(self):
        h, p, b = self.problem()
        maxiter = 100
        x, iters, beta1 = self.solve(h, p, b, 0.1, maxiter)
        assert 0 < iters < maxiter
        r = b - h @ x
        assert np.sqrt(r @ p @ r) <= 0.1 * np.sqrt(b @ p @ b)
        assert beta1 == pytest.approx(np.sqrt(b @ p @ b), rel=1e-14)

    def test_preconditioner_scale_does_not_move_the_stop(self):
        h, p, b = self.problem()
        x1, iters1, _ = self.solve(h, p, b, 0.1)
        for c in (1e-3, 1e3):
            xc, itersc, _ = self.solve(h, c * p, b, 0.1)
            assert itersc == iters1
            assert np.abs(xc - x1).max() <= 1e-12 * np.abs(x1).max()

    def test_peak_memory_does_not_grow_with_iterations(self):
        # MINRES works in the vectors it is given, so 5 iterations and the
        # thirty-odd of a converged solve (its cap is 40) peak alike
        h, p, b = self.problem()
        vectors = np.empty((7,) + b.shape)
        apply, precond = matrix_apply(h), matrix_apply(p)
        mx._minres(apply, precond, b, 1e-12, 40, vectors)
        peaks, iters = [], []
        for maxiter in (5, 40):
            tracemalloc.start()
            try:
                iters.append(mx._minres(apply, precond, b, 1e-12, maxiter, vectors)[1])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert iters[0] == 5 and iters[1] > 25
        assert peaks[1] <= peaks[0]

    def test_zero_right_hand_side(self):
        h, p, b = self.problem()
        x, iters, beta1 = self.solve(h, p, 0.0 * b, 0.1)
        assert iters == 0 and not x.any() and beta1 == 0.0

    @pytest.mark.parametrize("bad, where", [(-1.0, r"1: beta\^2 = -"),
                                            (np.nan, r"1: beta\^2 = nan")])
    def test_breakdown_raises(self, bad, where):
        # a diagonal P, positive on b = e_0 and broken on e_1, the direction
        # the first product opens
        h = np.eye(self.N) + np.diag(np.ones(self.N - 1), 1) + np.diag(np.ones(self.N - 1), -1)
        d = np.ones(self.N)
        d[1] = bad
        b = np.zeros(self.N)
        b[0] = 1.0
        with pytest.raises(mx.SolveError, match="MINRES broke down at its iteration " + where):
            mx._minres(matrix_apply(h),
                       lambda r, out: np.copyto(out, np.where(r != 0.0, d * r, 0.0)),
                       b, 1e-12, 100, np.empty((7, self.N)))


class TestMinEigenvalues:
    @staticmethod
    def fields():
        rng = np.random.default_rng(30)
        n = 2000
        rot = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        a = rng.normal(size=(n, 3, 3))
        noise = rng.normal(size=(n, 3, 3))
        x, y = rng.uniform(0.5, 2.0, size=(2, n))

        def with_spectrum(*lam):
            return rot @ (np.stack(lam, axis=-1)[..., None] * rot.swapaxes(-1, -2))

        return {
            "spd": a @ a.swapaxes(-1, -2) + np.eye(3),
            "near_identity": np.eye(3) + 1e-9 * (noise + noise.swapaxes(-1, -2)),
            "double_smallest": with_spectrum(x, x, x + y),
            "double_largest": with_spectrum(x, x + y, x + y),
            "scalar": x[:, None, None] * np.eye(3),
        }

    @pytest.mark.parametrize("name", ["spd", "near_identity", "double_smallest",
                                      "double_largest", "scalar"])
    def test_matches_eigvalsh(self, name):
        g = self.fields()[name]
        want = np.linalg.eigvalsh(g)[:, 0]
        got = mx._min_eigenvalues(g)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_identity_exact(self):
        assert mx._min_eigenvalues(np.eye(3)[None]) == 1.0


class TestMuMap:
    def test_identity(self):
        rng = np.random.default_rng(8)
        s = perturbed_affine(rng)
        assert np.allclose(mx.dualize(s, mx.MuMap(np.eye(22))).values, s.values)

    def test_reject_non_isometry(self):
        m = np.eye(22)
        m[0, 0] = 2.0
        with pytest.raises(ValueError):
            mx.MuMap(m)

    def test_reject_nan_isometry(self):
        m = np.eye(22)
        m[3, 7] = np.nan
        with pytest.raises(ValueError, match=r"not a Q-isometry \(defect nan\)"):
            mx.MuMap(m)

    def test_negative_plane_reflection(self):
        m = np.eye(22)
        m[5, 5] = m[6, 6] = -1.0
        psi = mx.MuMap(m)
        rng = np.random.default_rng(9)
        s = perturbed_affine(rng)
        d = mx.dualize(s, psi)
        assert abs(mx.residual_norm(d) - mx.residual_norm(s)) < 1e-10
        assert not np.allclose(d.values, s.values)

    def test_other_width_rejected(self):
        # a grid at b = 3 and an isometry at b = 19: the widths are named,
        # where comparing the pairings would fail to broadcast
        rng = np.random.default_rng(8)
        s = mx.affine_section((5, 5, 5), (0.25,) * 3, pairing=mx.standard_pairing(3))
        with pytest.raises(ValueError, match=r"^isometry and grid use different "
                           r"pairings \(widths 22 and 6\)$"):
            mx.dualize(s, mx.MuMap.random(rng))


class TestPairing:
    SIGNATURE = r"^pairing must have signature \(3, b\) with b >= 1$"
    SQUARE = "^pairing must be a symmetric square matrix$"

    @pytest.mark.parametrize("b", [1, 3, 19])
    def test_signature_3_b_accepted(self, b):
        q = mx.standard_pairing(b)
        assert q.shape == (3 + b, 3 + b)
        assert np.array_equal(mx.check_pairing(q), q)

    @pytest.mark.parametrize("b", [0, -1, 2.5])
    def test_b_must_be_a_positive_integer(self, b):
        want = rf"^b must be an integer >= 1, got {b}$"
        with pytest.raises(ValueError, match=want):
            mx.standard_pairing(b)
        with pytest.raises(ValueError, match=want):
            mx.MuMap.random(np.random.default_rng(0), b)

    @pytest.mark.parametrize("diagonal", [
        [1, 1, -1, -1, -1], [1, 1] + [-1] * 19, [1] * 4 + [-1] * 3, [1] * 4 + [-1] * 18,
        [1, 1, 1], [1, 1, 1, -1, -1, 0]],
        ids=["2_3", "2_19", "4_3", "4_18", "3_0", "degenerate"])
    def test_other_signatures_rejected(self, diagonal):
        with pytest.raises(ValueError, match=self.SIGNATURE):
            mx.check_pairing(np.diag(np.array(diagonal, dtype=float)))

    @pytest.mark.parametrize("q", [
        mx.standard_pairing(3)[:5], mx.standard_pairing(3)[:, :5], np.ones(6),
        np.ones((2, 2, 2))], ids=["short", "narrow", "vector", "cube"])
    def test_non_square_rejected(self, q):
        with pytest.raises(ValueError, match=self.SQUARE):
            mx.check_pairing(q)

    def test_asymmetric_rejected(self):
        q = mx.standard_pairing(3)
        q[0, 4] = 0.5
        with pytest.raises(ValueError, match=self.SQUARE):
            mx.check_pairing(q)


class TestSolver:
    def test_affine_init_converges_immediately(self):
        s = mx.affine_section((7, 7, 7), (1 / 6, 1 / 6, 1 / 6))
        out = mx.solve_dirichlet(s, tol=1e-10, max_iter=10)
        assert out.converged and out.iterations == 0

    def test_recovers_affine_9cube(self):
        rng = np.random.default_rng(10)
        s = perturbed_affine(rng, dims=(9, 9, 9), amp=2e-3)
        want = mx.affine_section((9, 9, 9), s.spacing)
        t0 = time.time()
        out = mx.solve_dirichlet(s, tol=1e-8, max_iter=500)
        dt = time.time() - t0
        assert out.converged
        assert out.iterations <= 500
        assert dt < 10.0
        assert np.abs(out.grid.values - want.values).max() <= 1e-6

    def test_converged_solve_clamps_no_residual(self):
        out = mx.solve_dirichlet(graphical_section((9, 9, 9)), tol=1e-8)
        assert out.converged and out.iterations > 0
        assert out.residual_clamped_nodes == 0

    def test_graphical_boundary_converges(self):
        s = graphical_section()
        out = mx.solve_dirichlet(s, tol=1e-8, max_iter=500)
        assert out.converged
        assert mx.residual_norm(out.grid) <= 1e-8
        # solution differs from data in the interior but keeps the boundary
        mask = s.interior_mask()
        assert np.allclose(out.grid.values[~mask], s.values[~mask])

    def test_mesh_order_on_curved_data(self):
        # the discrete maximal section converges at second order in h: the
        # nodal and area differences between successive grids shrink by about
        # four per halving.  The nodal values are compared at the 5^3 nodes
        # that the 5^3, 9^3 and 17^3 grids share; a max over all 9^3 nodes
        # mixes in nodes the 5^3 grid lacks and reads a ratio near 2.6.
        outs = [mx.solve_dirichlet(graphical_section((n,) * 3), tol=1e-8)
                for n in (5, 9, 17)]
        assert all(out.converged for out in outs)
        shared = [out.grid.values[::k, ::k, ::k] for out, k in zip(outs, (1, 2, 4))]
        areas = [mx.area(out.grid) for out in outs]
        node_ratio = (np.abs(shared[1] - shared[0]).max()
                      / np.abs(shared[2] - shared[1]).max())
        area_ratio = abs(areas[1] - areas[0]) / abs(areas[2] - areas[1])
        assert 3.0 <= node_ratio <= 5.5, node_ratio
        assert 3.0 <= area_ratio <= 5.5, area_ratio

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(11)
        s = perturbed_affine(rng, dims=(7, 7, 7), amp=2e-3)
        out = mx.solve_dirichlet(s, tol=1e-14, max_iter=2)
        assert not out.converged
        assert out.message

    def test_no_newton_direction_raises(self, monkeypatch):
        def nan_minres(apply, precond, b, eta, maxiter, vectors):
            return np.full_like(b, np.nan), 1, 1.0

        monkeypatch.setattr(mx, "_minres", nan_minres)
        s = perturbed_affine(np.random.default_rng(15))
        with pytest.raises(mx.SolveError, match="iteration 1"):
            mx.solve_dirichlet(s, tol=1e-8, max_iter=10)

    def test_indefinite_preconditioner_raises(self, monkeypatch):
        split = mx._split_preconditioner

        def negated(it, work):
            apply = split(it, work)
            return lambda r, out: np.negative(apply(r, out), out=out)

        monkeypatch.setattr(mx, "_split_preconditioner", negated)
        s = perturbed_affine(np.random.default_rng(15))
        with pytest.raises(mx.SolveError, match=r"iteration 1 .*MINRES broke down "
                           r"at its iteration 0: beta\^2 = -\d"):
            mx.solve_dirichlet(s, tol=1e-8, max_iter=10)

    def test_non_descent_direction_raises(self, monkeypatch):
        # a negated Newton direction raises ||g||_P at every step length down
        # to steps that no longer move x, and those leave it equal, which the
        # strict decrease rejects: the 60 trials run out at the first step
        newton = mx._newton_direction

        def negated(it, work):
            delta, iters, precond, gnorm = newton(it, work)
            return np.negative(delta, out=delta), iters, precond, gnorm

        monkeypatch.setattr(mx, "_newton_direction", negated)
        s = perturbed_affine(np.random.default_rng(15))
        with pytest.raises(mx.SolveError, match=r"no acceptable step at iteration 1 \(residual "
                           r"\S+; \|\|g\|\|_P (\S+) at the step, \1 at its last trial\)"):
            mx.solve_dirichlet(s, tol=1e-8, max_iter=10)

    @pytest.mark.parametrize("b", [1, 19])
    def test_strongly_curved_data_converges(self, b):
        # the a = 0.5 catenoid, started on its graph: the first full Newton
        # step cuts ||g||_P eightfold while the nodal residual_norm rises
        out = mx.solve_dirichlet(catenoid_section((13, 13, 13), 0.5, b), tol=1e-8, max_iter=60)
        assert out.converged, out.message
        assert mx.residual_norm(out.grid) <= 1e-8

    def test_preconditioner_scale_does_not_move_the_solve(self, monkeypatch):
        # the MINRES stop and the line search compare P-norms, so a constant
        # factor in P cancels from both: the same steps and trials, with
        # solutions equal to rounding at 1e3 and bit for bit at 2^10, which
        # scales every P-norm exactly
        s = perturbed_affine(np.random.default_rng(17))
        want = mx.solve_dirichlet(s, tol=1e-8)
        split = mx._split_preconditioner
        for scale in (1e3, 2.0 ** 10):
            def scaled(it, work):
                apply = split(it, work)
                return lambda r, out: np.multiply(apply(r, out), scale, out=out)

            monkeypatch.setattr(mx, "_split_preconditioner", scaled)
            got = mx.solve_dirichlet(s, tol=1e-8)
            assert got.converged and want.converged
            assert got.krylov_per_step == want.krylov_per_step
            assert got.line_search_rejections == want.line_search_rejections
            assert got.iterations == want.iterations
            assert [row[0] for row in got.history] == [row[0] for row in want.history]
            assert np.abs(got.grid.values - want.grid.values).max() <= 1e-12
        assert got.history == want.history
        assert np.array_equal(got.grid.values, want.grid.values)

    @staticmethod
    def check_equivariance(b):
        """Solve and a Q-isometry of standard_pairing(b) commute to rounding:
        the MINRES stop and every other step of the solver is
        isometry-invariant."""
        init = graphical_section((9, 9, 9), b)
        tol = 1e-8
        base = mx.solve_dirichlet(init, tol=tol)
        assert base.converged
        want_area = mx.area(base.grid)
        rng = np.random.default_rng(40)
        for _ in range(3):
            psi = mx.MuMap.random(rng, b)
            moved = mx.dualize(base.grid, psi)
            out = mx.solve_dirichlet(mx.dualize(init, psi), tol=tol)
            assert out.converged
            assert np.abs(out.grid.values - moved.values).max() <= 1e-10
            assert abs(mx.area(out.grid) - want_area) <= 1e-12 * want_area
            assert mx.residual_norm(moved) <= tol
        # negative control: doubling the bent negative component is not a
        # Q-isometry, and the solve sees it
        scale = np.ones(len(init.pairing))
        scale[mx.SIG_PLUS] = 2.0
        out = mx.solve_dirichlet(mx.SectionGrid(init.values * scale, init.spacing, init.pairing),
                                 tol=tol)
        assert out.converged
        assert np.abs(out.grid.values - base.grid.values * scale).max() > 1e-4

    def test_equivariant_under_isometries(self):
        self.check_equivariance(19)

    def test_equivariant_under_isometries_at_b3(self):
        self.check_equivariance(3)

    def test_graphical_boundary_converges_at_b3(self):
        # the (3, 3) pairing of 2-forms on a flat T^4: a 9^3 solve takes the
        # steps and products of the b = 19 solve of the same data, whose
        # other 16 components stay zero, and gives its solution to rounding
        outs = {b: mx.solve_dirichlet(graphical_section((9, 9, 9), b), tol=1e-8)
                for b in (3, 19)}
        small, large = outs[3], outs[19]
        assert small.converged and mx.residual_norm(small.grid) <= 1e-8
        assert small.grid.values.shape == (9, 9, 9, 6)
        assert small.iterations > 0
        assert (small.iterations, small.hvps) == (large.iterations, large.hvps)
        assert np.abs(large.grid.values[..., 6:]).max() <= 1e-12
        assert np.abs(small.grid.values - large.grid.values[..., :6]).max() <= 1e-10

    def test_wide_pairing_fits_the_scratch(self):
        # the iterate's scratch holds g and the padded cell terms S X, 72 + 8
        # (3 + b) n2 n3 / ((n2 - 1)(n3 - 1)) numbers a cell, as well as the
        # 288 of the tangent maps: at b = 25 and 7^3 that is 72 + 8 x 28 x
        # 49 / 36 = 377, and a 288-number scratch failed in grad_area.  The
        # solve takes the steps and products of the b = 19 solve of the same
        # data and gives its solution to rounding
        outs = {b: mx.solve_dirichlet(graphical_section((7, 7, 7), b), tol=1e-8)
                for b in (19, 25)}
        wide, narrow = outs[25], outs[19]
        assert wide.converged and wide.iterations > 0
        assert (wide.iterations, wide.hvps) == (narrow.iterations, narrow.hvps)
        assert np.abs(wide.grid.values[..., :22] - narrow.grid.values).max() <= 1e-10

    def test_solve_peak_memory(self):
        # an 11^3 solve (values.nbytes = 234 KB) peaks at 45.1 values.nbytes
        # under tracemalloc, against 46.7 with full-grid Krylov vectors: the
        # seven MINRES vectors on the 9^3 interior take 7 (11^3 - 9^3) / 11^3
        # = 3.17 values.nbytes less, the zero-bordered nodes of delta take 1
        # and the pad cells of the two padded block buffers 0.5 (2 x 8 x 42
        # cells x 22 x 8 bytes), so 1.67 less in all
        s = perturbed_affine(np.random.default_rng(3), dims=(11, 11, 11))
        mx.solve_dirichlet(s, tol=1e-8)
        tracemalloc.start()
        try:
            out = mx.solve_dirichlet(s, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.converged
        assert peak <= 46.7 * s.values.nbytes

    def test_work_counted_once(self, monkeypatch):
        # one Gram evaluation per gradient (the start and every line-search
        # trial, as SolveResult.gradients counts them), one Hessian-vector
        # product per MINRES iteration, one preconditioner per Newton step,
        # applied once per MINRES iteration, once before the first and once
        # per positive line-search trial (its ||g||_P), and
        # two 3x3 inversions per gradient that keeps positivity, one for the
        # gradient and one in residual_norm: the Hessian data of a Newton
        # step reuses the iterate's G^-1.  The benchmark's tracer counts the
        # products and applies by wrapping these module attributes, and
        # treats _split_preconditioner as a factory of the apply
        calls = {"gram": 0, "hvp": 0, "inv3": 0, "split": 0, "precond": 0}
        gram, hvp, inv3 = mx._gram, mx._hessian_apply, mx._inv3
        split = mx._split_preconditioner

        def counted_gram(*args):
            calls["gram"] += 1
            return gram(*args)

        def counted_hvp(*args):
            calls["hvp"] += 1
            return hvp(*args)

        def counted_inv3(*args, **kwargs):
            calls["inv3"] += 1
            return inv3(*args, **kwargs)

        def counted_split(*args):
            calls["split"] += 1
            apply = split(*args)

            def counted_apply(*args):
                calls["precond"] += 1
                return apply(*args)

            return counted_apply

        monkeypatch.setattr(mx, "_gram", counted_gram)
        monkeypatch.setattr(mx, "_hessian_apply", counted_hvp)
        monkeypatch.setattr(mx, "_inv3", counted_inv3)
        monkeypatch.setattr(mx, "_split_preconditioner", counted_split)
        rng = np.random.default_rng(14)
        s = perturbed_affine(rng, dims=(9, 9, 9), amp=2e-3)
        out = mx.solve_dirichlet(s, tol=1e-8, max_iter=500)
        assert out.converged and out.iterations > 0
        trials = out.iterations + out.line_search_rejections + out.positivity_failures
        assert calls["gram"] == out.gradients == 1 + trials
        assert calls["inv3"] == 2 * (1 + out.iterations + out.line_search_rejections)
        assert calls["hvp"] == out.hvps > 0
        assert len(out.krylov_per_step) == out.iterations
        assert calls["split"] == out.iterations
        assert calls["precond"] == (out.hvps + out.iterations
                                    + out.iterations + out.line_search_rejections)
        monkeypatch.undo()
        # the history rows hold the values of the public functions
        _, last_area, last_res, last_eig = out.history[-1]
        assert last_area == mx.area(out.grid)
        assert last_eig == mx.min_gram_eigenvalue(out.grid)
        assert last_res == out.residual

    def test_solves_share_no_state(self):
        # each solve has its own workspace, sized from its grid: a 9^3 solve,
        # an 11^3 solve and the same 9^3 solve again give bit-identical
        # results
        rng = np.random.default_rng(18)
        small = perturbed_affine(rng, dims=(9, 9, 9))
        large = perturbed_affine(rng, dims=(11, 11, 11))
        first = mx.solve_dirichlet(small, tol=1e-8)
        assert mx.solve_dirichlet(large, tol=1e-8).converged
        again = mx.solve_dirichlet(small, tol=1e-8)
        assert first.converged and first.iterations > 0
        assert np.array_equal(first.grid.values, again.grid.values)
        assert first.krylov_per_step == again.krylov_per_step
        assert first.history == again.history

    def test_phase_seconds(self):
        rng = np.random.default_rng(16)
        s = perturbed_affine(rng, dims=(9, 9, 9), amp=2e-3)
        t0 = time.perf_counter()
        out = mx.solve_dirichlet(s, tol=1e-8, max_iter=500)
        wall = time.perf_counter() - t0
        phases = out.phase_seconds
        assert out.converged and out.iterations > 0
        assert set(phases) == {"start", "krylov", "line_search", "history"}
        assert all(v >= 0.0 for v in phases.values())
        assert phases["krylov"] > 0.0
        assert sum(phases.values()) <= wall

    def test_history_columns(self):
        rng = np.random.default_rng(12)
        s = perturbed_affine(rng, dims=(5, 5, 5), amp=1e-3)
        out = mx.solve_dirichlet(s, tol=1e-8, max_iter=200)
        assert out.history[0][0] == 0
        assert all(len(row) == 4 for row in out.history)


class TestIO:
    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        s = perturbed_affine(rng, dims=(5, 5, 5))
        s2 = mx.grid_from_json(json.loads(json.dumps(mx.grid_to_json(s))))
        assert np.allclose(s2.values, s.values)
        assert s2.spacing == s.spacing

    def test_bad_doc_rejected(self):
        with pytest.raises(ValueError):
            mx.grid_from_json({"dims": [2, 2, 2]})

    def test_mis_shaped_containers_rejected(self):
        # 3^3 nodes, so that a scalar /dims of 27 matches the node count
        doc = mx.grid_to_json(mx.affine_section((3, 3, 3), (0.5,) * 3))
        for field, value in (("dims", 27), ("spacing", 0.5)):
            with pytest.raises(ValueError, match=f"/{field} must be an array"):
                mx.grid_from_json({**doc, field: value})
        with pytest.raises(ValueError, match="^/ must be an object, got None$"):
            mx.grid_from_json(None)

    @pytest.mark.parametrize("spacing", [[0.25, 0.25], [0.25, 0.25, float("nan")]])
    def test_bad_spacing_doc_rejected(self, spacing):
        doc = mx.grid_to_json(mx.affine_section((5, 5, 5), (0.25,) * 3))
        doc["spacing"] = spacing
        with pytest.raises(ValueError):
            mx.grid_from_json(doc)

    @pytest.mark.parametrize("field, value, where", [
        ("dims", [3.9, 3.2, 3.7], "/dims"), ("dims", [5, True, 5], "/dims"),
        ("spacing", [0.25, "0.25", 0.25], "/spacing"),
        ("spacing", [0.25, 0.25, True], "/spacing"),
        ("nodes", [[0.0] * 22] * 124 + [["1.5"] + [0.0] * 21], "/nodes"),
        ("nodes", [[0.0] * 22] * 124 + [[0.0] * 21 + ["nan"]], "/nodes"),
        ("Q", [[True] + [0.0] * 21] + mx.standard_pairing()[1:].tolist(), "/Q"),
        ("nodes", [[0.0] * 22] * 124 + [[float("nan")] + [0.0] * 21],
         "/nodes/124/0 must be a finite number, got nan"),
        ("Q", mx.standard_pairing()[:21].tolist(), "/Q/0 has 22 entries, expected 21"),
        ("Q", mx.standard_pairing().tolist()[:21] + [[0.0] * 20 + [-1.0]],
         "/Q/21 has 21 entries, expected 22"),
        ("nodes", [[0.0] * 22] * 124 + [[0.0] * 21], "/nodes/124 has 21 entries, expected 22"),
        ("nodes", {"a": 1}, "/nodes must be an array"),
        ("spacing", [0.0, 0.25, 0.25], "/spacing: base spacings must be finite and positive"),
        ("spacing", [0.25, -1, 0.25], "/spacing: base spacings must be finite and positive"),
        ("spacing", [], "/spacing: grid needs 3 base spacings, got 0"),
        # json.loads gives such an integer for 1 followed by 400 zeros
        ("nodes", [[0.0] * 22] * 124 + [[0.0] * 21 + [-10 ** 400]],
         "/nodes/124/21 must be a finite number"),
        ("Q", (-np.eye(22)).tolist(),
         r"^/Q: pairing must have signature \(3, b\) with b >= 1$"),
        ("Q", mx.standard_pairing(3).tolist(), "^/nodes/0 has 22 entries, expected 6$")],
        ids=["float_dims", "bool_dim", "string_spacing", "bool_spacing",
             "string_node", "string_nan_node", "bool_pairing", "nan_node",
             "short_pairing", "short_pairing_row", "ragged_nodes", "object_nodes",
             "zero_spacing", "negative_spacing", "empty_spacing", "huge_int_node",
             "negative_pairing", "narrow_pairing"])
    def test_guessed_fields_rejected(self, field, value, where):
        doc = mx.grid_to_json(mx.affine_section((5, 5, 5), (0.25,) * 3))
        doc[field] = value
        with pytest.raises(ValueError, match=where):
            mx.grid_from_json(doc)
