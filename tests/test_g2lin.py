import random
from fractions import Fraction

import pytest

from adg2 import g2lin, verify
from adg2.excalc import FibrationData, eval_on_vectors
from adg2.g2lin import (
    G2Model,
    basis_vector,
    chi,
    cross,
    vec,
    vertical_part,
)

T1, T2, T3, X1, X2, X3, X4 = range(7)
E = basis_vector


def rand_vec(rng):
    return verify._random_vec(rng)


class TestCross:
    def test_x1_cross_x2_is_t1(self, law):
        law("g2lin.cross.reference_values")

    def test_t1_cross_t2_is_minus_t3(self, law):
        law("g2lin.cross.reference_values")

    def test_self_cross_zero(self):
        rng = random.Random(0)
        for _ in range(10):
            x = rand_vec(rng)
            assert cross(x, x, G2Model()) == tuple(Fraction(0) for _ in range(7))

    def test_defining_identity(self):
        rng = random.Random(1)
        for eps in (Fraction(1), Fraction(1, 2)):
            m = G2Model(eps)
            phi = m.phi()
            for _ in range(10):
                x, y = rand_vec(rng), rand_vec(rng)
                z = cross(x, y, m)
                for k in range(7):
                    w = E(k)
                    assert m.metric_pair(z, w) == eval_on_vectors(phi, [x, y, w])

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            cross(E(X1), E(X2), G2Model(0))

    def test_limit_contributions_need_horizontal(self):
        # vertical x vertical products scale like eps: they die in the limit
        rng = random.Random(2)
        for _ in range(10):
            x = vertical_part(rand_vec(rng))
            y = vertical_part(rand_vec(rng))
            for eps in (Fraction(1, 2), Fraction(1, 8)):
                ze = cross(x, y, G2Model(eps))
                z1 = cross(x, y, G2Model(1))
                assert ze == tuple(eps * c for c in z1)


class TestChi:
    def test_identity_all_eps(self, law):
        law("g2lin.chi.defining_identity")

    def test_scaling_case_table(self, law):
        law("g2lin.chi.scaling_case_table")

    def test_alternating(self):
        rng = random.Random(5)
        m = G2Model(1)
        for _ in range(10):
            x, y, z = (rand_vec(rng) for _ in range(3))
            assert chi(x, y, z, m) == tuple(-c for c in chi(y, x, z, m))
            assert all(v == 0 for v in chi(x, x, z, m))

    def test_limit_case_table(self, law):
        law("g2lin.chi.formal_limit")

    def test_limit_matches_small_eps_constant_term(self):
        # chi_eps(x,y,z) is affine in eps (vertical components divide the
        # eps Theta + eps^2 mu pairing by eps), so two samples extrapolate
        # exactly to the formal limit
        rng = random.Random(7)
        m0 = G2Model(0)
        for _ in range(10):
            x, y, z = (rand_vec(rng) for _ in range(3))
            v0 = chi(x, y, z, m0)
            e1, e2 = Fraction(1, 16), Fraction(1, 32)
            c1 = chi(x, y, z, G2Model(e1))
            c2 = chi(x, y, z, G2Model(e2))
            extrap = tuple((e1 * b - e2 * a) / (e1 - e2) for a, b in zip(c1, c2))
            assert extrap == v0


def test_chi_limit_reference_value(law):
    law("g2lin.chi.formal_limit")


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 7), Fraction(1)])
def test_chi_is_one_contraction(monkeypatch, eps):
    calls = []
    original = g2lin.contract
    monkeypatch.setattr(g2lin, "contract",
                        lambda a, vectors: calls.append(a) or original(a, vectors))
    rng = random.Random(8)
    m = G2Model(eps)
    chi(*(rand_vec(rng) for _ in range(3)), m)
    assert len(calls) == 1


@pytest.mark.parametrize("theta_sign, mu_sign, failing", [
    (1, -1, ["g2lin.chi.defining_identity"]),
    (-1, 1, ["g2lin.chi.defining_identity", "g2lin.chi.formal_limit"])],
    ids=["theta_minus_eps_mu", "minus_theta_plus_eps_mu"])
def test_wrong_psi_fails_the_suite(monkeypatch, theta_sign, mu_sign, failing):
    # chi contracts psi = Theta + eps mu; a sign slip in either term must
    # fail the rows that pin chi to star7(phi_eps) and to -I_1 x
    data = FibrationData.product()

    def psi(self):
        return data.theta().scale(theta_sign) + data.mu.scale(mu_sign * self.eps)

    monkeypatch.setattr(G2Model, "_psi", property(psi))
    (report,) = verify.run_suite("g2lin", 5)
    assert [c.id for c in report.checks if c.status == "fail"] == failing


def test_vec_and_contract_keep_fractions(fraction_calls):
    # Fraction entries pass through; an int is still converted.  A chi at
    # eps 1/2 builds only its contraction's outputs and the horizontal
    # scalings: at most 7 + 3 = 10 (vec and contract once wrapped each of
    # the 21 entries again, one more Fraction per entry)
    rng = random.Random(3)
    xs = [rand_vec(rng) for _ in range(3)]
    m = G2Model(Fraction(1, 2))
    m._psi  # built on first use, before the count
    fraction_calls.clear()
    assert vec(xs[0]) == xs[0] and all(a is b for a, b in zip(vec(xs[0]), xs[0]))
    assert not fraction_calls
    chi(*xs, m)
    assert "wrapped" not in fraction_calls and fraction_calls["new"] <= 10
    mixed = vec([1, Fraction(1, 2), 0, 0, 0, 0, -3])
    assert all(type(c) is Fraction for c in mixed) and mixed[1] == Fraction(1, 2)
