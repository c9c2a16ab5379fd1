import numpy as np
import pytest

from adg2 import fueter as fu
from adg2 import gauge as ga
from adg2 import hk
from adg2.excalc import standard_triple


def theta_connection(grid, theta_fn, extra=None):
    """Fibre-flat abelian connection A = i sum_a theta_a(t) dx_a."""
    funcs = {}
    for b in range(4):
        def f(t1, t2, t3, x1, x2, x3, x4, b=b):
            return 1j * theta_fn(t1, t2, t3)[b] * np.ones_like(x1 + t1)
        funcs[3 + b] = f
    if extra:
        funcs.update(extra)
    return ga.from_functions(grid, funcs)


class TestComplexStructureTables:
    """Every consumer of the fibre triple agrees with its one definition in hk."""

    ivec = hk.complex_structure_matrices(hk.HKTriple.standard())

    def test_matches_exact_triple(self):
        for i in range(3):
            for a in range(4):
                for b in range(4):
                    assert float(hk.STANDARD_TRIPLE[i][a][b]) == ga.W_SD[i][a, b]
        assert np.allclose(ga.I_VEC[0] @ ga.I_VEC[1], ga.I_VEC[2])
        for i in range(3):
            assert np.allclose(ga.I_VEC[i] @ ga.I_VEC[i], -np.eye(4))

    def test_gauge_complex_structures_match_hk(self):
        want = np.array([[[float(x) for x in row] for row in m] for m in self.ivec])
        assert ga.I_VEC.shape == (3, 4, 4)
        assert np.array_equal(ga.I_VEC, want)

    def test_excalc_triple_matches_hk(self):
        forms = standard_triple()
        assert len(forms) == 3
        for w, mat in zip(forms, hk.STANDARD_TRIPLE):
            assert w.bigrades() == {(0, 2)}
            for a in range(4):
                for b in range(a + 1, 4):
                    got = w.terms.get(((), (3 + a, 3 + b)))
                    want = mat[a][b]
                    assert (got.constant_value() if got is not None else 0) == want


class TestFueterResidual:
    def test_constant_zero(self):
        s = fu.FueterSectionGrid(np.ones((4, 4, 4, 4)) * 0.3, (0.25,) * 3)
        assert np.abs(fu.fueter_residual(s)).max() < 1e-14

    def test_linear_basis_case(self):
        # s = t1 e1 has defect I_1 e1 = e2
        n = 5
        t = np.linspace(0, 1, n)
        vals = np.zeros((n, n, n, 4))
        vals[..., 0] = t[:, None, None]
        s = fu.FueterSectionGrid(vals, (0.25,) * 3, period=0.0)
        r = fu.fueter_residual(s)
        want = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.abs(r - want).max() < 1e-12

    def test_two_term_case(self):
        # s = t1 e2 - t2 e1 gives I1 e2 - I2 e1 = -e1 - e3
        n = 5
        t = np.linspace(0, 1, n)
        vals = np.zeros((n, n, n, 4))
        vals[..., 1] = t[:, None, None]
        vals[..., 0] = -t[None, :, None]
        s = fu.FueterSectionGrid(vals, (0.25,) * 3, period=0.0)
        r = fu.fueter_residual(s)
        want = np.array([-1.0, 0.0, -1.0, 0.0])
        assert np.abs(r - want).max() < 1e-12

    def test_torus_wraparound(self):
        # values stored as fundamental-domain representatives of a smooth
        # winding section still differentiate correctly
        n = 9
        t = np.linspace(0, 1, n)
        vals = np.zeros((n, n, n, 4))
        vals[..., 2] = 4.0 * np.pi * t[:, None, None]  # wraps twice through 2 pi
        s = fu.FueterSectionGrid(vals, (1 / (n - 1),) * 3, period=fu.TWO_PI)
        assert s.values.max() < fu.TWO_PI
        r = fu.fueter_residual(s)
        want = 4.0 * np.pi * (-ga.W_SD[0] @ np.array([0, 0, 1.0, 0]))
        assert np.abs(r - want).max() < 1e-9


class TestSectionGrid:
    @pytest.mark.parametrize("spacing", [
        (0.25, 0.25), (0.25, 0.25, float("nan")), (0.25, float("inf"), 0.25),
        (0.25, 0.0, 0.25), (-0.25, 0.25, 0.25)])
    def test_bad_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacings"):
            fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)), spacing)

    def test_two_nodes_per_axis_rejected(self):
        with pytest.raises(ValueError, match="three nodes per axis"):
            fu.FueterSectionGrid(np.zeros((2, 2, 2, 4)), (0.5, 0.5, 0.5), period=0.0)

    @pytest.mark.parametrize("period", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_period_rejected(self, period):
        with pytest.raises(ValueError, match=r"^period must be finite, got -?(inf|nan)$"):
            fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)), (0.25, 0.25, 0.25), period=period)


class TestHolonomySection:
    def test_constant_theta(self):
        grid = ga.LatticeGrid.unit(4, 4, fibre_periodic=True)
        theta = np.array([0.3, 5.9, 1.0, 2.2])
        a = theta_connection(grid, lambda t1, t2, t3: [np.full_like(t1, v) for v in theta])
        s = fu.holonomy_section(a)
        want = np.mod(theta, fu.TWO_PI)
        assert np.abs(s.values - want).max() < 1e-12

    def test_varying_theta(self):
        grid = ga.LatticeGrid.unit(5, 4, fibre_periodic=True)
        a = theta_connection(grid, lambda t1, t2, t3: [
            0.2 + 0.5 * t1, 0.1 * t2, t3 * 0.4, 0.3 * t1 * t2])
        s = fu.holonomy_section(a)
        t = np.linspace(0, 1, 5)
        tt = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=0)
        want = np.stack([0.2 + 0.5 * tt[0], 0.1 * tt[1], 0.4 * tt[2],
                         0.3 * tt[0] * tt[1]], axis=-1)
        assert np.abs(s.values - want).max() < 1e-12

    def test_rejects_curved_fibre(self):
        grid = ga.LatticeGrid.unit(3, 4, fibre_periodic=False)
        a = ga.from_functions(grid, {4: lambda t1, t2, t3, x1, x2, x3, x4: 1j * x1})
        with pytest.raises(ValueError):
            fu.holonomy_section(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_component(self, bad):
        # such an entry is rejected by name and node before any curvature is
        # formed, so an inf entry does not read as a NaN flatness defect
        grid = ga.LatticeGrid.unit(4, 4, fibre_periodic=True)
        a = theta_connection(grid, lambda t1, t2, t3: [np.full_like(t1, 0.3)] * 4)
        a.components[4, 1, 2, 0, 1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match=r"^vertical component x2 is not finite at "
                           r"node \(1, 2, 0, 1, 2, 3, 0\): \(-?(nan|inf)\+0j\)$"):
            fu.holonomy_section(a)

    def test_exact_fibre_gauge_invisible(self):
        # adding the sampled differential of a fibre-periodic phase moves the
        # average by a telescoping sum, i.e. not at all
        grid = ga.LatticeGrid.unit(4, 6, fibre_periodic=True)
        base = theta_connection(grid, lambda t1, t2, t3: [
            0.2 * t1, 0.1 * t2, 0.0 * t3, 0.4 * t1])
        s0 = fu.holonomy_section(base)
        coords = grid.coordinates()
        chi = 0.2 * np.sin(2 * np.pi * coords[4]) * np.cos(2 * np.pi * coords[5])
        chi = chi * np.ones(grid.shape)
        comps = base.components.copy()
        for b in range(4):
            comps[3 + b] += 1j * ga.diff(chi, grid.spacing(3 + b), 3 + b, True)[..., None, None]
        s1 = fu.holonomy_section(ga.LatticeConnection(grid, comps))
        assert np.abs(s1.values - s0.values).max() < 1e-12

    def test_base_u1_twist_invisible(self):
        # the twisting ambiguity: adding a central 1-form pulled back from
        # the base changes neither the section nor its Dirac defect
        grid = ga.LatticeGrid.unit(4, 4, fibre_periodic=True)
        base = theta_connection(grid, lambda t1, t2, t3: [
            0.2 * t1, 0.1 * t2 ** 2, 0.3 * t3, 0.1 * t1])
        twist = {i: (lambda i=i: lambda t1, t2, t3, x1, x2, x3, x4:
                     1j * (0.5 + [t1, t2, t3][i]) * np.ones_like(x1 + t1))()
                 for i in range(3)}
        twisted = theta_connection(grid, lambda t1, t2, t3: [
            0.2 * t1, 0.1 * t2 ** 2, 0.3 * t3, 0.1 * t1], extra=twist)
        s0 = fu.holonomy_section(base)
        s1 = fu.holonomy_section(twisted)
        assert np.abs(s1.values - s0.values).max() < 1e-14
        r0 = fu.fueter_residual(s0)
        r1 = fu.fueter_residual(s1)
        assert np.abs(r1 - r0).max() < 1e-14


class TestCorrespondence:
    def test_residuals_match(self):
        # horizontal defect of the connection equals the Dirac defect of the
        # induced section (after the i-scalarization), nodewise on the base
        grid = ga.LatticeGrid.unit(6, 4, fibre_periodic=True)
        a = theta_connection(grid, lambda t1, t2, t3: [
            0.3 * t1 + 0.2 * t2 ** 2,
            0.1 * np.sin(t1) + t3,
            0.4 * t2 * t3,
            0.2 * t1 * t1,
        ])
        _, rh = ga.instanton_residual(a)
        rho = np.stack([rh[b][..., 0, 0].imag for b in range(4)], axis=-1)
        s = fu.holonomy_section(a)
        ds = fu.fueter_residual(s)
        # rho_horiz is fibre-constant here; compare at fibre origin
        rho_at_base = rho[:, :, :, 0, 0, 0, 0, :]
        assert np.abs(rho_at_base - ds).max() < 1e-10

    def test_correlation_random_instances(self):
        rng = np.random.default_rng(7)
        grid = ga.LatticeGrid.unit(5, 4, fibre_periodic=True)
        for _ in range(20):
            coeff = rng.normal(size=(4, 3)) * 0.4
            quad = rng.normal(size=(4, 3)) * 0.2

            def theta(t1, t2, t3):
                ts = [t1, t2, t3]
                return [sum(coeff[b][i] * ts[i] + quad[b][i] * ts[i] ** 2
                            for i in range(3)) for b in range(4)]

            a = theta_connection(grid, theta)
            _, rh = ga.instanton_residual(a)
            rho = np.stack([rh[b][..., 0, 0].imag for b in range(4)],
                           axis=-1)[:, :, :, 0, 0, 0, 0, :]
            ds = fu.fueter_residual(fu.holonomy_section(a))
            diff = np.abs(rho - ds).max()
            h2 = grid.spacing_base[0] ** 2
            assert diff <= 10 * h2
            va, vb = rho.ravel(), ds.ravel()
            if np.linalg.norm(va) > 1e-12 and np.linalg.norm(vb) > 1e-12:
                corr = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
                assert corr >= 0.999


class TestChernSimonsEquality:
    @staticmethod
    def functionals(base_periodic, side, theta):
        """cs_instanton and cs_associative of the path of connections
        A = i sum_a theta(tau, t)_a dx_a, tau in [0, 1], on 5^3 base and 4^4
        fibre nodes with a fibre torus of side `side`."""
        unit = ga.LatticeGrid.unit(5, 4, base_periodic=base_periodic)
        grid = ga.LatticeGrid(unit.dims_base, unit.dims_fibre, unit.spacing_base,
                              tuple(side * h for h in unit.spacing_fibre),
                              base_periodic)
        times = np.linspace(0, 1, 4)
        fields = [theta_connection(grid, lambda t1, t2, t3, tau=tau:
                                   theta(tau, t1, t2, t3)) for tau in times]
        ci = ga.cs_instanton(ga.ConnectionPath(list(times), fields))
        ca = fu.cs_associative(fu.SectionPath(
            list(times), [fu.holonomy_section(a) for a in fields]))
        # both functionals vanish on paths without this size, whatever the
        # moduli scale kappa; the side-2 fibre tells kappa's exponent apart
        assert abs(ci) >= 1e-4
        return ci, ca

    def test_constant_path_zero(self):
        grid = ga.LatticeGrid.unit(4, 4, base_periodic=True, fibre_periodic=True)
        s = fu.FueterSectionGrid(np.full((4, 4, 4, 4), 0.2), (0.25,) * 3,
                                 base_periodic=True)
        path = fu.SectionPath([0.0, 1.0], [s, s])
        assert fu.cs_associative(path) == 0.0

    def test_linear_motion_symplectic_area(self):
        # constant sections moving linearly: the functional is the symplectic
        # pairing of base-gradient against velocity, which vanishes for
        # constant sections; a linearly-varying section gives the closed form
        grid_dims = (5, 5, 5)
        h = 1.0 / 4
        t = np.linspace(0, 1, 5)
        base = np.zeros(grid_dims + (4,))
        base[..., 0] = 0.7 * t[:, None, None]  # s_1 = 0.7 t1
        delta = np.zeros(4)
        delta[1] = 0.5  # move along e2
        times = [0.0, 1.0]
        s0 = fu.FueterSectionGrid(base, (h,) * 3, period=0.0)
        s1 = fu.FueterSectionGrid(base + delta, (h,) * 3, period=0.0)
        got = fu.cs_associative(fu.SectionPath(times, [s0, s1]))
        # integrand: (d_1 s)^T W_1 (delta) = 0.7 * W1[0,1] * 0.5 = 0.35
        assert abs(got - 0.35) < 1e-12

    def test_equality_with_connection_functional(self):
        def theta(tau, t1, t2, t3):
            return [0.4 * tau * np.cos(2 * np.pi * t2), 0.0,
                    0.4 * tau * (1 + 0.3 * tau) * np.sin(2 * np.pi * t2), 0.0]

        for side in (1.0, 2.0):
            ci, ca = self.functionals(True, side, theta)
            assert abs(ci - ca) <= 1e-10 * abs(ci)

    def test_equality_on_box_base(self):
        # theta = tau (a t2, b t1, 0, 0) has the closed form -a b L^4 / (16 pi^2)
        a, b = 0.7, -0.4
        for side in (1.0, 2.0):
            ci, ca = self.functionals(False, side, lambda tau, t1, t2, t3:
                                      [tau * a * t2, tau * b * t1, 0.0, 0.0])
            assert abs(ci + a * b * side ** 4 / (16 * np.pi ** 2)) <= 1e-12 * abs(ci)
            assert abs(ci - ca) <= 1e-10 * abs(ci)

    def test_each_section_differentiated_once(self, monkeypatch):
        # a section's derivatives serve both segments it borders
        calls = []
        original = fu.section_derivatives

        def counted(s):
            calls.append(s)
            return original(s)

        monkeypatch.setattr(fu, "section_derivatives", counted)
        rng = np.random.default_rng(21)
        sections = [fu.FueterSectionGrid(rng.uniform(0, 6, size=(4, 3, 5, 4)),
                                         (0.3, 0.25, 0.5)) for _ in range(5)]
        got = fu.cs_associative(fu.SectionPath(np.linspace(0, 1, 5), sections))
        assert len(calls) == len(sections)
        assert all(c is s for c, s in zip(calls, sections))

        # the same trapezoid summed segment by segment
        def density(s, delta):
            ds = original(s)
            return sum(float(np.sum(s.base_weights() * np.einsum(
                "...a,ab,...b->...", ds[i], ga.W_SD[i], delta))) for i in range(3))

        want = 0.0
        for s0, s1 in zip(sections, sections[1:]):
            delta = fu.minimal_image(s1.values - s0.values, s0.period)
            want += 0.5 * (density(s0, delta) + density(s1, delta))
        assert abs(got - (fu.TWO_PI / s0.period) ** 4 / (4 * np.pi ** 2) * want) \
            <= 1e-14 * abs(got)

    def test_each_increment_built_once(self, increment_calls):
        rng = np.random.default_rng(22)
        sections = [fu.FueterSectionGrid(rng.uniform(0, 6, size=(3, 4, 3, 4)),
                                         (0.5, 0.3, 0.5)) for _ in range(4)]
        fu.cs_associative(fu.SectionPath(np.linspace(0, 1, 4), sections))
        index = {id(s): k for k, s in enumerate(sections)}
        assert [(index[id(s0)], index[id(s1)]) for s0, s1 in increment_calls] == [
            (0, 1), (1, 2), (2, 3)]

    def test_one_section_path_is_zero(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fu, "section_derivatives", calls.append)
        s = fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)), (0.5,) * 3)
        assert fu.cs_associative(fu.SectionPath([0.0], [s])) == 0.0
        assert calls == []

    @pytest.mark.parametrize("bad", [[0.0, np.nan], [np.nan, 0.0], [0.0, np.inf, 1.0]])
    def test_path_rejects_non_finite_times(self, bad):
        s = fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)), (0.5,) * 3)
        k = next(k for k, t in enumerate(bad) if not np.isfinite(t))
        with pytest.raises(ValueError, match=f"time {k} is not finite: {bad[k]!r}"):
            fu.SectionPath(bad, [s] * len(bad))

    def test_path_needs_ascending_times_and_one_period(self):
        s = fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)), (0.5,) * 3)
        with pytest.raises(ValueError, match="ascending"):
            fu.SectionPath([1.0, 0.0], [s, s])
        other = fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)), (0.5,) * 3, period=np.pi)
        with pytest.raises(ValueError, match="period"):
            fu.SectionPath([0.0, 1.0], [s, other])
        with pytest.raises(ValueError, match="one period: section 2 differs"):
            fu.SectionPath([0.0, 0.5, 1.0, 1.5], [s, s, other, s])


class TestSectionIO:
    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        s = fu.FueterSectionGrid(rng.uniform(0, 6, size=(4, 5, 3, 4)),
                                 (0.3, 0.25, 0.5))
        doc = fu.section_to_json(s)
        s2 = fu.section_from_json(doc)
        assert np.allclose(s.values, s2.values)
        assert s2.period == s.period

    def test_bad_doc(self):
        with pytest.raises(ValueError):
            fu.section_from_json({"dims": [2, 2, 2]})

    def test_mis_shaped_containers_rejected(self):
        # 3^3 nodes, so that a scalar /dims of 27 matches the node count
        doc = fu.section_to_json(fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)),
                                                      (0.5, 0.5, 0.5)))
        for field, value, where in (("dims", 27, "/dims must be an array"),
                                    ("spacing", 0.5, "/spacing must be an array"),
                                    ("period", [1.0], "/period must be a number")):
            with pytest.raises(ValueError, match=where):
                fu.section_from_json({**doc, field: value})
        with pytest.raises(ValueError, match="^/ must be an object, got None$"):
            fu.section_from_json(None)

    @pytest.mark.parametrize("field, value, where", [
        ("dims", [3.7, 3, 3], "/dims"), ("dims", [3, True, 3], "/dims"),
        ("spacing", ["0.5", 0.5, 0.5], "/spacing"), ("period", "6.28", "/period"),
        ("base_periodic", "false", "/base_periodic"),
        ("base_periodic", 1, "/base_periodic"),
        ("values", [[0.0] * 4] * 26 + [["1.5", 0.0, 0.0, 0.0]], "/values"),
        ("values", [[0.0] * 4] * 26 + [[0.0, "nan", 0.0, 0.0]], "/values"),
        ("values", [[0.0] * 4] * 26 + [[0.0, 0.0, True, 0.0]], "/values"),
        ("period", float("nan"), "/period must be a finite number, got nan"),
        ("period", float("-inf"), "/period must be a finite number, got -inf"),
        ("values", [[0.0] * 4] * 26 + [[0.0] * 3], "/values/26 has 3 entries, expected 4"),
        ("values", 5, "/values must be an array, got 5"),
        ("spacing", [0.5, 0.0, 0.5], "/spacing: base spacings must be finite and positive"),
        ("spacing", [-1, 0.5, 0.5], "/spacing: base spacings must be finite and positive"),
        ("spacing", [], "/spacing: grid needs 3 base spacings, got 0"),
        ("period", 10 ** 400, "/period must be a finite number")],
        ids=["float_dim", "bool_dim", "string_spacing", "string_period",
             "string_base_flag", "int_base_flag", "string_value",
             "string_nan_value", "bool_value", "nan_period", "infinite_period",
             "ragged_values", "scalar_values", "zero_spacing", "negative_spacing",
             "empty_spacing", "huge_int_period"])
    def test_guessed_fields_rejected(self, field, value, where):
        doc = fu.section_to_json(fu.FueterSectionGrid(np.zeros((3, 3, 3, 4)),
                                                      (0.5, 0.5, 0.5)))
        doc[field] = value
        with pytest.raises(ValueError, match=where):
            fu.section_from_json(doc)
