import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from adg2.excalc import (
    BigradedForm,
    FibrationData,
    HorizontalDistribution,
    Poly,
    contract,
    donaldson_residuals,
    eval_on_vectors,
    exterior_d,
    form_from_json,
    form_to_json,
    from_coordinate_frame,
    residuals_all_zero,
    split_d,
    standard_mu,
    standard_triple,
    star3,
    star4,
    star7,
    star7_limit,
    to_coordinate_frame,
    wedge,
)
from adg2.excalc.poly import ZERO_EXP
from adg2.g2lin import G2Model
from adg2.verify import _random_distribution as random_distribution
from adg2.verify import _random_form as random_form

T1, T2, T3, X1, X2, X3, X4 = range(7)


def dt(i, c=1):
    return BigradedForm.monomial((i,), (), c)


def dx(a, c=1):
    return BigradedForm.monomial((), (a,), c)


def subsets(indices):
    return [c for n in range(len(indices) + 1) for c in combinations(indices, n)]


# every basis form dt_I e^J, as its key (I, J)
BASIS = [(I, J) for I in subsets((T1, T2, T3)) for J in subsets((X1, X2, X3, X4))]


def swap_sign(seq):
    """The sign of sorting seq, by counting the swaps of a bubble sort."""
    seq, swaps = list(seq), 0
    for end in range(len(seq) - 1, 0, -1):
        for k in range(end):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                swaps += 1
    return -1 if swaps % 2 else 1


class TestAddTerm:
    def test_equals_the_sum_and_cancels(self):
        a = BigradedForm(2)
        a.add_term((T1,), (X2,), Poly.var(X1))
        a.add_term((), (X1, X2), 3)
        second = BigradedForm.monomial((), (X1, X2), 3)
        assert a == BigradedForm.monomial((T1,), (X2,), Poly.var(X1)) + second
        a.add_term((T1,), (X2,), -Poly.var(X1))
        assert a == second
        a.add_term((), (X1, X2), Fraction(-3))
        assert a.is_zero() and a.terms == {}

    @pytest.mark.parametrize("I, J", [((T2, T1), ()), ((), (X1, X1)), ((X1,), (T1,)),
                                      ((T1,), ())],
                             ids=["unsorted", "repeated", "swapped_split", "degree"])
    def test_bad_keys_are_rejected(self, I, J):
        with pytest.raises(ValueError):
            BigradedForm(2).add_term(I, J, 1)


class TestWedge:
    def test_basis_case(self):
        assert wedge(dx(X1), dx(X2)) == BigradedForm.monomial((), (X1, X2))

    def test_antisymmetry_square(self):
        assert wedge(dx(X1), dx(X1)).is_zero()

    def test_bilinear_expansion(self):
        a = dt(T1) + dx(X1)
        got = wedge(a, dx(X2))
        want = BigradedForm.monomial((T1,), (X2,)) + BigradedForm.monomial((), (X1, X2))
        assert got == want

    def test_graded_commutativity(self):
        rng = random.Random(0)
        for _ in range(30):
            da, db = rng.randint(0, 3), rng.randint(0, 3)
            a, b = random_form(rng, da), random_form(rng, db)
            ba = wedge(b, a)
            if (da * db) % 2:
                ba = -ba
            assert wedge(a, b) == ba

    def test_associativity(self):
        rng = random.Random(1)
        for _ in range(20):
            a = random_form(rng, rng.randint(0, 2))
            b = random_form(rng, rng.randint(0, 2))
            c = random_form(rng, rng.randint(0, 2))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_basis_pairs(self):
        # dt_I1 e^J1 ^ dt_I2 e^J2 is zero on a shared index, else the sign of
        # sorting the joined index tuple I1 + J1 + I2 + J2
        for I1, J1 in BASIS:
            a = BigradedForm.monomial(I1, J1)
            for I2, J2 in BASIS:
                got = wedge(a, BigradedForm.monomial(I2, J2))
                joined = I1 + J1 + I2 + J2
                if len(set(joined)) < len(joined):
                    assert got.is_zero()
                else:
                    assert got == BigradedForm.monomial(
                        sorted(I1 + I2), sorted(J1 + J2), swap_sign(joined))


class TestExteriorD:
    def test_monomial_coefficient(self):
        a = BigradedForm.monomial((), (X2,), Poly.var(X1))
        assert exterior_d(a) == BigradedForm.monomial((), (X1, X2))

    def test_constant_coefficient(self):
        assert exterior_d(BigradedForm.monomial((), (X1, X2))).is_zero()

    def test_leibniz_term_by_term(self):
        # d(t1 x3 dt2) = x3 dt1 dt2 + t1 dx3 ^ dt2
        a = BigradedForm.monomial((T2,), (), Poly.var(T1) * Poly.var(X3))
        want = (BigradedForm.monomial((T1, T2), (), Poly.var(X3))
                + wedge(dx(X3, Poly.var(T1)), dt(T2)))
        assert exterior_d(a) == want

    def test_d_squared_zero(self):
        rng = random.Random(2)
        for _ in range(25):
            a = random_form(rng, rng.randint(0, 3))
            assert exterior_d(exterior_d(a)).is_zero()

    def test_leibniz_rule(self):
        rng = random.Random(3)
        for _ in range(15):
            da, db = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(rng, da), random_form(rng, db)
            lhs = exterior_d(wedge(a, b))
            rhs = wedge(exterior_d(a), b) + (wedge(a, exterior_d(b))
                                             if da % 2 == 0 else -wedge(a, exterior_d(b)))
            assert lhs == rhs


class TestSplitD:
    def test_flat_fibre_part(self):
        a = BigradedForm.monomial((), (X2,), Poly.var(X1))
        df, dh, fh = split_d(a, HorizontalDistribution.flat())
        assert df == BigradedForm.monomial((), (X1, X2))
        assert dh.is_zero() and fh.is_zero()

    def test_flat_horizontal_part(self):
        a = BigradedForm.monomial((), (X2,), Poly.var(T1))
        df, dh, fh = split_d(a, HorizontalDistribution.flat())
        assert dh == BigradedForm.monomial((T1,), (X2,))
        assert df.is_zero() and fh.is_zero()

    def test_nonintegrable_gives_fh(self):
        # H_1^{x2} = x3 together with H_2^{x3} = 1 gives [lift_2, lift_1] != 0
        H = HorizontalDistribution({(0, X2): Poly.var(X3), (1, X3): 1})
        a = BigradedForm.monomial((), (X2,))  # a (0,1) form
        df, dh, fh = split_d(a, H)
        assert not fh.is_zero()
        total = df + dh + fh
        want = from_coordinate_frame(exterior_d(to_coordinate_frame(a, H)), H)
        assert total == want

    def test_sum_equals_d_random(self, law):
        law("excalc.split_d.sum")

    def test_bigrade_shifts(self):
        rng = random.Random(5)
        for _ in range(10):
            H = random_distribution(rng)
            p = rng.randint(0, 2)
            q = rng.randint(0, 3)
            a = random_form(rng, p + q)
            a = a.component(p, q)
            if a.is_zero():
                continue
            df, dh, fh = split_d(a, H)
            assert df.bigrades() <= {(p, q + 1)}
            assert dh.bigrades() <= {(p + 1, q)}
            assert fh.bigrades() <= {(p + 2, q - 1)}

    def test_df_squares_to_zero(self, law):
        law("excalc.split_d.df_squared")

    def test_fh_zero_iff_flat_curvature(self, law):
        law("excalc.split_d.fh_iff_curvature")

    def test_coeffs_are_read_only(self):
        H = HorizontalDistribution({(0, X2): Poly.var(X3)})
        with pytest.raises(TypeError):
            H.coeffs[(1, X3)] = Poly.const(1)

    def test_kept_curvature_does_not_go_stale(self):
        # the curvature is built once and kept; each call hands out a new dict
        H = HorizontalDistribution({(0, X2): Poly.var(X3), (1, X3): 1})
        want = H.curvature()
        assert not want[X2].is_zero()
        first = H.curvature()
        del first[X3]
        first[X2] = BigradedForm(2)
        assert H.curvature() == want


class TestHodge:
    def test_star4_basis(self):
        assert star4(dx(X1)) == BigradedForm.monomial((), (X2, X3, X4))

    def test_star4_involution_sign(self, law):
        law("excalc.hodge.star4_involution")

    def test_star4_selfdual_triple(self):
        for w in standard_triple():
            assert star4(w) == w

    def test_star3_orientation(self):
        lam = BigradedForm(3, {((0, 1, 2), ()): -1})
        assert star3(BigradedForm.function(1)) == lam
        assert star3(dt(T1)) == BigradedForm.monomial((T2, T3), (), -1)

    def test_star7_vertical_oneform(self):
        lam = BigradedForm(3, {((0, 1, 2), ()): -1})
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            want = wedge(star4(dx(X1)), lam).scale(eps)
            assert star7(dx(X1), eps) == want

    def test_star7_horizontal_oneform(self):
        mu = standard_mu()
        for eps in (Fraction(1), Fraction(1, 3)):
            want = wedge(mu, star3(dt(T1))).scale(eps ** 2)
            assert star7(dt(T1), eps) == want

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 2), -1])
    def test_star7_needs_positive_eps(self, eps):
        with pytest.raises(ValueError, match="star7 needs eps > 0"):
            star7(dx(X1), eps)

    def test_star7_limit_exponents(self):
        pieces = star7_limit(dx(X1) + dt(T1))
        assert set(pieces) == {1, 2}

    def test_star7_basis_law(self):
        # a ^ star7(a) = |a|^2 vol_eps = eps^(2 - |J|) vol7 on every dt_I e^J
        vol7 = BigradedForm(7, {((T1, T2, T3), (X1, X2, X3, X4)): -1})
        for eps in (Fraction(1), Fraction(1, 3)):
            for I, J in BASIS:
                a = BigradedForm.monomial(I, J)
                assert wedge(a, star7(a, eps)) == vol7.scale(eps ** (2 - len(J)))

    def test_star4_star3_basis_law(self):
        vol4 = BigradedForm(4, {((), (X1, X2, X3, X4)): 1})
        vol3 = BigradedForm(3, {((T1, T2, T3), ()): -1})
        for I, J in BASIS:
            a = BigradedForm.monomial(I, J)
            if not I:
                assert wedge(a, star4(a)) == vol4
            if not J:
                assert wedge(a, star3(a)) == vol3

    def test_mixed_input_rejected(self):
        with pytest.raises(ValueError):
            star4(dt(T1))
        with pytest.raises(ValueError):
            star3(dx(X1))

    def test_star7_g2_forms(self):
        # star of (eps omega + lambda) is (eps Theta + eps^2 mu)
        lam = BigradedForm(3, {((0, 1, 2), ()): -1})
        tri = standard_triple()
        for eps in (Fraction(1), Fraction(2, 3)):
            phi = lam
            for i, w in enumerate(tri):
                phi = phi + wedge(w, dt(i)).scale(eps)
            data = FibrationData(tri, lam, standard_mu())
            want = data.theta().scale(eps) + standard_mu().scale(eps ** 2)
            assert star7(phi, eps) == want
            assert G2Model(eps).phi() == phi


class TestDonaldsonResiduals:
    def test_product_data_all_zero(self, law):
        law("excalc.donaldson_residuals.product")

    def test_scaled_omega1_fails(self):
        # (1+t1) scaling: the t1-dependence sits in the dt1 slot, so it breaks
        # d_H Theta and the algebraic relation but not d_H omega
        tri = standard_triple()
        tri[0] = tri[0].scale(Poly.const(1) + Poly.var(T1))
        res = donaldson_residuals(
            FibrationData(tri, BigradedForm(3, {((0, 1, 2), ()): -1}), standard_mu()))
        assert not res["d_H_Theta"].is_zero()
        assert not res["algebraic"][(0, 0)].is_zero()

    def test_t2_scaled_omega1_breaks_dh_omega(self):
        tri = standard_triple()
        tri[0] = tri[0].scale(Poly.const(1) + Poly.var(T2))
        res = donaldson_residuals(
            FibrationData(tri, BigradedForm(3, {((0, 1, 2), ()): -1}), standard_mu()))
        assert not res["d_H_omega"].is_zero()
        assert not res["algebraic"][(0, 0)].is_zero()

    def test_constant_rotated_triple_passes(self):
        # a constant-coefficient rational rotation of the triple still solves everything
        tri = standard_triple()
        c, s = Fraction(3, 5), Fraction(4, 5)
        rot = [tri[0].scale(c) + tri[1].scale(s),
               tri[0].scale(-s) + tri[1].scale(c),
               tri[2]]
        res = donaldson_residuals(
            FibrationData(rot, BigradedForm(3, {((0, 1, 2), ()): -1}), standard_mu()))
        assert residuals_all_zero(res)


class TestEvalAndIO:
    def test_eval_on_vectors(self):
        w = standard_triple()[0]
        e = [[0] * 7 for _ in range(2)]
        e[0][X1] = 1
        e[1][X2] = 1
        assert eval_on_vectors(w, e) == 1

    def test_eval_on_vectors_is_the_leibniz_sum(self):
        # sum_T c_T(0) det[v_s[T_j]], on random forms of every degree with
        # mixed bigrades and polynomial coefficients; the determinant is the
        # Leibniz sum over permutations, written out up to degree 4 as a
        # cross-check and taken by Fraction elimination at every degree
        def leibniz_det(m):
            n = len(m)
            return sum((-1) ** sum(1 for i, j in combinations(sigma, 2) if i > j)
                       * prod(m[s][j] for j, s in enumerate(sigma))
                       for sigma in permutations(range(n)))

        def elimination_det(m):
            m = [list(row) for row in m]
            det = Fraction(1)
            for c in range(len(m)):
                pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
                if pivot is None:
                    return Fraction(0)
                if pivot != c:
                    m[c], m[pivot] = m[pivot], m[c]
                    det = -det
                det *= m[c][c]
                for r in range(c + 1, len(m)):
                    f = m[r][c] / m[c][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
            return det

        def form_value(a, vectors, det):
            total = Fraction(0)
            for (I, J), p in a.terms.items():
                c0 = sum((c for e, c in p.terms.items() if not any(e)), Fraction(0))
                total += c0 * det([[Fraction(v[t]) for t in I + J] for v in vectors])
            return total

        rng = random.Random(11)
        for degree in range(8):
            nonzero = 0
            for _ in range(12):
                a = random_form(rng, degree, max_poly_deg=1, nterms=6)
                vectors = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(7)] for _ in range(degree)]
                want = form_value(a, vectors, elimination_det)
                if degree <= 4:
                    assert form_value(a, vectors, leibniz_det) == want
                assert eval_on_vectors(a, vectors) == want
                nonzero += want != 0
            assert nonzero >= 3, f"degree {degree} was checked on too few values"

    def test_contract_equals_the_fraction_loop(self):
        # the contraction one Fraction at a time, against contract's integer
        # numerators, on random mixed-bigrade forms of every degree and any
        # number of vectors: the same keys in the same order, as Fractions
        def fraction_contract(a, vectors):
            coeffs = {I + J: p.terms[ZERO_EXP] for (I, J), p in a.terms.items()
                      if ZERO_EXP in p.terms}
            for v in vectors:
                out = {}
                for idx, c in coeffs.items():
                    for pos, i in enumerate(idx):
                        if v[i]:
                            key = idx[:pos] + idx[pos + 1:]
                            term = c * v[i]
                            out[key] = out.get(key, 0) + (-term if pos % 2 else term)
                coeffs = {key: c for key, c in out.items() if c}
            return coeffs

        rng = random.Random(17)
        nonzero = 0
        for _ in range(300):
            degree = rng.randint(0, 7)
            a = random_form(rng, degree, max_poly_deg=1, nterms=8)
            vectors = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(7)]
                       for _ in range(rng.randint(0, degree))]
            got = contract(a, vectors)
            want = fraction_contract(a, vectors)
            assert list(got.items()) == list(want.items())
            assert all(type(c) is Fraction for c in got.values())
            nonzero += bool(got)
        assert nonzero >= 200

    def test_vectors_need_seven_entries(self):
        w = standard_triple()[0]
        good = [0, 0, 0, 0, 1, 0, 0]
        for bad in ([0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]):
            with pytest.raises(ValueError, match="7 components"):
                eval_on_vectors(w, [bad, good])

    def test_json_roundtrip(self):
        rng = random.Random(9)
        for _ in range(10):
            a = random_form(rng, rng.randint(0, 4))
            doc = json.loads(json.dumps(form_to_json(a)))
            assert form_from_json(doc) == a

    def test_json_rejects_malformed(self):
        def term(**entry):
            return {"I": [0], "J": [], "poly": [dict({"exp": [0] * 7, "num": 1, "den": 2},
                                                     **entry)]}

        bad_terms = [{"I": [0], "J": []}, term(den=0), term(num=1.5), term(den=2.5),
                     term(exp=[1.5] + [0] * 6), term(exp=[0] * 6),
                     dict(term(num=0), I=[5, 9], J=[0])]
        for bad in bad_terms:
            with pytest.raises(ValueError, match=r"^/terms/1/"):
                form_from_json({"degree": 1, "terms": [term(), bad]})
        # the error names the failing field by its path; a repeated exponent
        # in one term or a repeated (I, J) would load as a sum, so both raise
        half = term()["poly"][0]
        named = [("term", r"/terms/1 must be an object"),
                 (dict(term(), J=5), r"/terms/1/J must be an array"),
                 (dict(term(), J=[4.0]), r"/terms/1/J/0 must be an integer"),
                 (dict(term(), poly=[half, {"exp": [1] + [0] * 6, "num": 1}]),
                  r"/terms/1/poly/1/den is missing"),
                 (term(den=0), r"/terms/1/poly/0/den must not be zero"),
                 (term(exp=[-1] + [0] * 6), r"/terms/1/poly/0/exp must hold 7"),
                 (dict(term(), poly=[half, half]),
                  r"/terms/1/poly/1/exp repeats \[0, 0, 0, 0, 0, 0, 0\]"),
                 (term(num=-1), r"/terms/1 repeats the term I=\[0\], J=\[\]")]
        for bad, path in named:
            with pytest.raises(ValueError, match="^" + path):
                form_from_json({"degree": 1, "terms": [term(), bad]})
        for doc, where in (({"degree": 1, "terms": 5}, "^/terms must be an array, got 5$"),
                           ({"degree": 1.5, "terms": []}, "^/degree must be an integer"),
                           ({"degree": -3, "terms": []}, "^/degree must not be negative"),
                           ({"terms": []}, "^/degree is missing$"),
                           (None, "^/ must be an object, got None$")):
            with pytest.raises(ValueError, match=where):
                form_from_json(doc)
