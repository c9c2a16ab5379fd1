import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from adg2 import hk, verify
from adg2.exact import (eye, inverse, is_zero_matrix, madd, mat_apply, mmul,
                        mscale)
from adg2.spin import build_spinor_model, random_donaldson_jet

F = Fraction
ZERO = hk.form2({})


def rand_frac(rng, lo=-4, hi=4):
    return F(rng.randint(lo, hi), rng.randint(1, 3))


def random_asd(rng):
    return hk.asd_form(*(rand_frac(rng) for _ in range(3)))


def rotate_triple(omega, R):
    return tuple(
        madd(madd(mscale(R[i][0], omega[0]), mscale(R[i][1], omega[1])),
             mscale(R[i][2], omega[2]))
        for i in range(3))


# a rational SO(3) matrix (rotation by the 3-4-5 angle around the z axis
# composed with one around x)
R_SO3 = (
    (F(3, 5), F(4, 5), F(0)),
    (F(-4, 5), F(3, 5), F(0)),
    (F(0), F(0), F(1)),
)


class TestAsdForm:
    def test_equals_the_basis_sum(self):
        assert hk.ASD_BASIS == (hk.form2({(0, 1): 1, (2, 3): -1}),
                                hk.form2({(0, 2): 1, (1, 3): 1}),
                                hk.form2({(0, 3): 1, (1, 2): -1}))
        rng = random.Random(12)
        for bound in (4, 6):
            for _ in range(200):
                cs = [rand_frac(rng, -bound, bound) for _ in range(3)]
                want = ZERO
                for c, eta in zip(cs, hk.ASD_BASIS):
                    want = madd(want, mscale(c, eta))
                got = hk.asd_form(*cs)
                assert got == want and all(type(x) is F for row in got for x in row)

    def test_pairs_build_no_fraction(self, fraction_calls):
        # asd_form negates its three coefficients and hands the pairs on;
        # asd_from_pairs writes them and the shared zero: 3 negations, then
        # none (asd_form once also built a new zero for its diagonal)
        cs = (F(1, 2), F(-3), F(0))
        pairs = tuple((c, -c) for c in cs)
        fraction_calls.clear()
        got = hk.asd_from_pairs(*pairs)
        assert not fraction_calls
        assert got == hk.asd_form(*cs) and fraction_calls == {"neg": 3, "new": 3}


class TestForm2:
    @pytest.mark.parametrize("key", [(2, 2), (0, -1), (1, 0), (3, 4)],
                             ids=["diagonal", "negative", "reversed", "out_of_range"])
    def test_other_keys_are_rejected(self, key):
        # a diagonal key was once dropped, a negative index wrapped to slot
        # 3 and a reversed key flipped the sign
        with pytest.raises(ValueError, match=rf"form2 key \({key[0]}, {key[1]}\)"):
            hk.form2({(0, 1): 1, key: 1})


class TestMetricFromTriple:
    def test_standard(self, law):
        law("hk.metric_from_triple.standard")

    def test_scaling(self):
        c = F(3, 2)
        scaled = tuple(mscale(c, w) for w in hk.STANDARD_TRIPLE)
        g, mu = hk.metric_from_triple(scaled)
        assert mu == c ** 2
        assert all(g[a][b] == (c if a == b else 0) for a in range(4) for b in range(4))

    def test_so3_rotation_invariance(self):
        rot = rotate_triple(hk.STANDARD_TRIPLE, R_SO3)
        g, mu = hk.metric_from_triple(rot)
        g0, mu0 = hk.metric_from_triple(hk.STANDARD_TRIPLE)
        assert (g, mu) == (g0, mu0)

    def test_reject_bad_triple(self):
        bad = (hk.STANDARD_TRIPLE[0], hk.STANDARD_TRIPLE[1],
               madd(hk.STANDARD_TRIPLE[2], mscale(F(1, 2), hk.STANDARD_TRIPLE[0])))
        with pytest.raises(hk.TripleRelationError) as err:
            hk.metric_from_triple(bad)
        assert err.value.pair in {(0, 2), (2, 2)}


class TestDecomposeVariation:
    def setup_method(self):
        self.t = hk.HKTriple.standard()

    def test_basis_case(self):
        v = hk.TripleVariation.of(hk.STANDARD_TRIPLE[1], ZERO, ZERO)
        a, b, asd = hk.decompose_variation(self.t, v)
        assert b == 0
        assert a[0][1] == 1
        assert sum(abs(a[i][j]) for i in range(3) for j in range(3)) == 1
        assert all(is_zero_matrix(r) for r in asd)

    def test_asd_case(self):
        eta = hk.form2({(0, 1): 1, (2, 3): -1})
        v = hk.TripleVariation.of(ZERO, ZERO, eta)
        a, b, asd = hk.decompose_variation(self.t, v)
        assert b == 0 and all(x == 0 for row in a for x in row)
        assert asd[2] == eta and is_zero_matrix(asd[0]) and is_zero_matrix(asd[1])

    def test_conformal_case(self):
        c = F(5, 3)
        v = hk.TripleVariation.of(*(mscale(c, w) for w in hk.STANDARD_TRIPLE))
        a, b, asd = hk.decompose_variation(self.t, v)
        assert b == c
        assert all(x == 0 for row in a for x in row)
        assert all(is_zero_matrix(r) for r in asd)

    def test_projection_idempotent_and_orthogonal(self):
        rng = random.Random(0)
        for _ in range(20):
            v = hk.TripleVariation.of(*(random_asd(rng) for _ in range(3)))
            # add random span and conformal parts
            c = rand_frac(rng)
            rot = [[rand_frac(rng) for _ in range(3)] for _ in range(3)]
            full = []
            for i in range(3):
                w = v.omega_dot[i]
                w = madd(w, mscale(c, hk.STANDARD_TRIPLE[i]))
                for j in range(3):
                    w = madd(w, mscale(rot[i][j], hk.STANDARD_TRIPLE[j]))
                full.append(w)
            a, b, asd = hk.decompose_variation(self.t, hk.TripleVariation.of(*full))
            # re-decomposition of the ASD remainder is trivial
            a2, b2, asd2 = hk.decompose_variation(self.t, hk.TripleVariation.of(*asd))
            assert b2 == 0 and all(x == 0 for row in a2 for x in row)
            assert asd2 == asd
            # components are wedge-orthogonal
            for r in asd:
                for w in hk.STANDARD_TRIPLE:
                    assert hk.wedge22(r, w) == 0


class TestMetricVariation:
    def setup_method(self):
        self.t = hk.HKTriple.standard()

    def test_worked_example(self, law):
        law("hk.metric_variation.worked_example")

    def test_zero(self):
        v = hk.TripleVariation.of(ZERO, ZERO, ZERO)
        mv = hk.metric_variation(self.t, v)
        assert is_zero_matrix(mv.g_dot) and mv.mu_dot == 0

    def test_pure_rotation_gives_zero(self):
        rng = random.Random(1)
        for _ in range(10):
            a01, a02, a12 = (rand_frac(rng) for _ in range(3))
            rot = ((F(0), a01, a02), (-a01, F(0), a12), (-a02, -a12, F(0)))
            full = []
            for i in range(3):
                w = ZERO
                for j in range(3):
                    w = madd(w, mscale(rot[i][j], hk.STANDARD_TRIPLE[j]))
                full.append(w)
            mv = hk.metric_variation(self.t, hk.TripleVariation.of(*full))
            assert is_zero_matrix(mv.g_dot) and mv.mu_dot == 0

    def test_conformal_scales_metric(self):
        c = F(7, 4)
        v = hk.TripleVariation.of(*(mscale(c, w) for w in hk.STANDARD_TRIPLE))
        mv = hk.metric_variation(self.t, v)
        assert mv.mu_dot == 2 * c
        # g_dot = b * g here (trace part only)
        assert mv.g_dot == tuple(tuple(c if a == b else F(0) for b in range(4))
                                 for a in range(4))


def random_form(rng):
    """A random 2-form with all six components, self-dual parts included."""
    return hk.form2({(a, b): rand_frac(rng) for a in range(4) for b in range(a + 1, 4)})


def pulled_back(omega, frame):
    """The triple A^T w_i A for the rational frame A."""
    return tuple(hk.form2({(a, b): sum(frame[c][a] * w[c][d] * frame[d][b]
                                       for c in range(4) for d in range(4))
                           for a, b in combinations(range(4), 2)})
                 for w in omega)


def reference_metric_variation(t, v):
    """The defining formula written out: the variation of
    i_a w1 ^ i_b w2 ^ w3 = g_ab mu, with mu_dot = 2 b mu."""
    w1, w2, w3 = t.omega
    w1d, w2d, w3d = v.omega_dot
    mu_dot = sum(hk.wedge22(v.omega_dot[i], t.omega[i]) for i in range(3)) / 3
    g_dot = tuple(tuple(
        (hk.wedge112(w1d[a], w2[b], w3) + hk.wedge112(w1[a], w2d[b], w3)
         + hk.wedge112(w1[a], w2[b], w3d) - t.g[a][b] * mu_dot) / t.mu
        for b in range(4)) for a in range(4))
    return hk.MetricVariation(g_dot, mu_dot)


class TestCompiledMetricVariation:
    FRAME = ((F(1), F(1, 2), F(0), F(0)), (F(0), F(1), F(0), F(-1)),
             (F(2), F(0), F(1), F(0)), (F(0), F(0), F(1, 3), F(1)))

    def triples(self):
        other = hk.triple(pulled_back(hk.STANDARD_TRIPLE, self.FRAME))
        assert other.g != hk.HKTriple.standard().g
        return hk.HKTriple.standard(), other

    def test_equals_the_formula_on_full_variations(self):
        rng = random.Random(11)
        for t in self.triples():
            for _ in range(40):
                v = hk.TripleVariation.of(*(random_form(rng) for _ in range(3)))
                got = hk.metric_variation(t, v)
                assert got == reference_metric_variation(t, v)
                assert all(type(x) is F for row in got.g_dot for x in row)
                assert type(got.mu_dot) is F

    def test_equals_the_formula_on_unit_variations(self):
        for t in self.triples():
            for m in range(3):
                for a, b in combinations(range(4), 2):
                    forms = [ZERO] * 3
                    forms[m] = hk.form2({(a, b): 1})
                    v = hk.TripleVariation.of(*forms)
                    assert hk.metric_variation(t, v) == reference_metric_variation(t, v)

    def test_equals_the_formula_on_raw_unit_variations(self):
        # the 48 unit matrices e_c (x) e_e in each slot, antisymmetric or
        # not: the columns the map is built from
        for t in self.triples():
            for m, c, e in product(range(3), range(4), range(4)):
                forms = [ZERO] * 3
                forms[m] = tuple(tuple(F(int((a, b) == (c, e))) for b in range(4))
                                 for a in range(4))
                v = hk.TripleVariation.of(*forms)
                assert hk.metric_variation(t, v) == reference_metric_variation(t, v)

    def test_map_is_built_lazily_once_per_triple(self):
        assert hk.HKTriple.standard() is hk.HKTriple.standard()
        t = hk.triple(pulled_back(hk.STANDARD_TRIPLE, self.FRAME))
        assert "_variation_map" not in vars(t)
        v = hk.TripleVariation.of(ZERO, ZERO, hk.ASD_BASIS[0])
        hk.metric_variation(t, v)
        built = vars(t)["_variation_map"]
        hk.metric_variation(t, v)
        assert t._variation_map is built
        assert t._variation_map != hk.HKTriple.standard()._variation_map

    def test_recovery_map_is_built_lazily_once_per_triple(self):
        t = hk.triple(pulled_back(hk.STANDARD_TRIPLE, self.FRAME))
        g_dot = hk.metric_variation(t, hk.TripleVariation.of(
            *pulled_back(hk.ASD_BASIS, self.FRAME))).g_dot
        assert "_recovery_map" not in vars(t)
        hk.recover_form_variation(t, g_dot)
        built = vars(t)["_recovery_map"]
        hk.recover_form_variation(t, g_dot)
        assert t._recovery_map is built
        assert t._recovery_map != hk.HKTriple.standard()._recovery_map


def frame_sum(t, g_dot, frame):
    """-(1/2) sum_j (I_i e_j)-flat ^ i_{e_j} g_dot over the frame (e_j),
    written out: the inverse formula recover_form_variation must equal in
    every g-orthonormal frame."""
    assert all(sum(e[a] * t.g[a][b] * f[b] for a in range(4) for b in range(4))
               == (1 if j == k else 0)
               for j, e in enumerate(frame) for k, f in enumerate(frame))
    ivec = hk.complex_structure_matrices(t)
    out = []
    for i in range(3):
        m = [[F(0)] * 4 for _ in range(4)]
        for e in frame:
            ie = mat_apply(ivec[i], e)
            u = [sum(ie[c] * t.g[c][b] for c in range(4)) for b in range(4)]
            w = [sum(e[c] * g_dot[c][b] for c in range(4)) for b in range(4)]
            for a, b in product(range(4), repeat=2):
                m[a][b] -= (u[a] * w[b] - u[b] * w[a]) / 2
        out.append(tuple(map(tuple, m)))
    return tuple(out)


class TestRecoverFormVariation:
    def setup_method(self):
        self.t = hk.HKTriple.standard()

    def test_worked_example_inverse(self, law):
        law("hk.metric_variation.worked_example")

    def test_zero(self):
        z = tuple(tuple(F(0) for _ in range(4)) for _ in range(4))
        forms = hk.recover_form_variation(self.t, z)
        assert all(is_zero_matrix(f) for f in forms)

    def test_roundtrip_on_asd(self, law):
        law("hk.recover_form_variation.roundtrip")

    def test_traceless_required(self):
        g_dot = tuple(tuple(F(1 if a == b else 0) for b in range(4)) for a in range(4))
        with pytest.raises(ValueError):
            hk.recover_form_variation(self.t, g_dot)

    def test_frame_independence(self):
        # a rational orthogonal frame (columns of a 3-4-5 rotation in two planes)
        c, s = F(3, 5), F(4, 5)
        frame = (
            (c, -s, F(0), F(0)),
            (s, c, F(0), F(0)),
            (F(0), F(0), c, -s),
            (F(0), F(0), s, c),
        )
        coordinates = eye(4, field=F)
        rng = random.Random(3)
        for _ in range(20):
            v = hk.TripleVariation.of(*(random_asd(rng) for _ in range(3)))
            mv = hk.metric_variation(self.t, v)
            got = hk.recover_form_variation(self.t, mv.g_dot)
            assert got == frame_sum(self.t, mv.g_dot, frame)
            assert got == frame_sum(self.t, mv.g_dot, coordinates)

    def test_roundtrip_on_a_pulled_back_triple(self):
        # the triple and its anti-self-dual variations pulled back by one
        # frame: no coordinate frame is orthonormal for its metric
        a = TestCompiledMetricVariation.FRAME
        t = hk.triple(pulled_back(hk.STANDARD_TRIPLE, a))
        orthonormal = tuple(zip(*inverse(a)))  # the columns of a^-1
        rng = random.Random(13)
        for _ in range(10):
            forms = pulled_back([random_asd(rng) for _ in range(3)], a)
            g_dot = hk.metric_variation(t, hk.TripleVariation.of(*forms)).g_dot
            back = hk.recover_form_variation(t, g_dot)
            assert back == forms
            assert back == frame_sum(t, g_dot, orthonormal)


class TestComplexStructureMatrices:
    ivec = hk.complex_structure_matrices(hk.HKTriple.standard())

    def test_i1_on_x1(self):
        assert mat_apply(self.ivec[0], (1, 0, 0, 0)) == (0, 1, 0, 0)

    def test_quaternion_relations(self):
        minus1 = mscale(-1, eye(4, field=F))
        for i in range(3):
            assert mmul(self.ivec[i], self.ivec[i]) == minus1
        assert mmul(self.ivec[0], self.ivec[1]) == self.ivec[2]
        assert mmul(mmul(self.ivec[0], self.ivec[1]), self.ivec[2]) == minus1


class TestCyclicIdentities:
    """The four-family variation identities relating g_dot and the form dots."""

    def setup_method(self):
        self.t = hk.HKTriple.standard()
        self.ivec = hk.complex_structure_matrices(self.t)

    def _check_families(self, v):
        g_dot = hk.metric_variation(self.t, v).g_dot
        assert verify.failing_cyclic_families(self.ivec, v, g_dot) == []

    def test_on_random_asd(self, law):
        law("hk.variation.cyclic_symmetry")

    def test_jet_level_slots(self):
        # the fibre-derivative slots (w[k][0][i], w[k][1][i], w[k][2][i]) of
        # constraint-compatible jets obey the same identities
        rng = random.Random(5)
        for _ in range(5):
            jet = random_donaldson_jet(rng)
            for k in range(3):
                for i in range(4):
                    self._check_families(hk.TripleVariation.of(
                        *(jet.w[k][m][i] for m in range(3))))

    def test_map_equals_the_matrix_formula(self):
        # the families written out as twelve 4x4 products, lhs - rhs entry
        # by entry, against the cached map, for the clean and the i2_sign
        # complex structures, on random matrices (every family fails) and on
        # anti-self-dual variations with their g_dot (none fails; under
        # i2_sign families 2-4 or all four); ivec is passed as lists, which
        # the cache normalises to nested tuples
        def residuals(ivec, w, g_dot):
            it = [tuple(zip(*m)) for m in ivec]
            p = [[mmul(it[i], w[j]) for j in range(3)] for i in range(3)]
            sides = [(g_dot, mscale(-1, madd(madd(p[0][0], p[1][1]), p[2][2])))]
            for k in range(3):
                k1, k2 = (k + 1) % 3, (k + 2) % 3
                sides.append((mmul(it[k], g_dot),
                              madd(w[k], madd(p[k2][k1], mscale(-1, p[k1][k2])))))
            return [x - y for lhs, rhs in sides
                    for lr, rr in zip(lhs, rhs) for x, y in zip(lr, rr)]

        def rand_matrix():
            return tuple(tuple(rand_frac(rng) for _ in range(4)) for _ in range(4))

        rng = random.Random(21)
        bad = list(self.ivec)
        bad[1] = tuple(tuple(-x for x in row) for row in bad[1])
        for ivec in (self.ivec, bad):
            as_lists = [[list(row) for row in m] for m in ivec]
            cyclic_map = verify._cyclic_map(tuple(tuple(map(tuple, m)) for m in ivec))
            for n in range(20):
                if n % 2:
                    v = hk.TripleVariation.of(*(random_asd(rng) for _ in range(3)))
                    g_dot = hk.metric_variation(self.t, v).g_dot
                else:
                    v = hk.TripleVariation.of(*(rand_matrix() for _ in range(3)))
                    g_dot = rand_matrix()
                want = residuals(ivec, v.omega_dot, g_dot)
                got = cyclic_map([e for m in (*v.omega_dot, g_dot) for row in m for e in row])
                assert list(got) == want and all(type(x) is F for x in got)
                assert (verify.failing_cyclic_families(as_lists, v, g_dot)
                        == [f + 1 for f in range(4) if any(want[16 * f:16 * f + 16])])

    def test_corrupted_i2_fails_every_family(self):
        ivec = list(self.ivec)
        ivec[1] = tuple(tuple(-x for x in row) for row in ivec[1])
        v = hk.TripleVariation.of(*hk.ASD_BASIS)
        g_dot = hk.metric_variation(self.t, v).g_dot
        assert verify.failing_cyclic_families(ivec, v, g_dot) == [1, 2, 3, 4]


class TestCliffordOfVariation:
    def setup_method(self):
        self.t = hk.HKTriple.standard()
        self.model = build_spinor_model()

    def test_worked_example(self, law):
        law("hk.clifford_of_variation.worked_example")

    def test_zero(self):
        z = tuple(tuple(F(0) for _ in range(4)) for _ in range(4))
        for k in range(3):
            out = hk.clifford_of_variation(self.t, z, k, self.model)
            assert all(not bool(x) for row in out for x in row)

    def test_matches_direct_action_on_random(self):
        rng = random.Random(6)
        for _ in range(50):
            v = hk.TripleVariation.of(*(random_asd(rng) for _ in range(3)))
            mv = hk.metric_variation(self.t, v)
            for k in range(3):
                got = hk.clifford_of_variation(self.t, mv.g_dot, k, self.model)
                assert got == self.model.c_form2_minus(v.omega_dot[k])

    def test_default_model_is_the_cached_one(self, monkeypatch):
        from adg2 import spin

        g_dot = hk.metric_variation(self.t, hk.TripleVariation.of(
            ZERO, ZERO, hk.ASD_BASIS[0])).g_dot
        want = hk.clifford_of_variation(self.t, g_dot, 2, self.model)
        builds = []
        monkeypatch.setattr(spin, "_assemble",
                            lambda corrupt: builds.append(corrupt))
        for _ in range(2):
            assert hk.clifford_of_variation(self.t, g_dot, 2) == want
        assert builds == []

    def test_action_on_positive_spinors_vanishes(self):
        rng = random.Random(7)
        for _ in range(20):
            eta = random_asd(rng)
            assert all(not bool(x) for row in self.model.c_form2_plus(eta) for x in row)
