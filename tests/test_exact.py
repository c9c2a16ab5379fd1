import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from adg2 import hk
from adg2.exact import (LinearMap, QQi, eye, inverse, is_zero_matrix,
                        kernel_basis, mat, mat_apply, mmul, zeros)

F = Fraction

A = ((F(2), F(1), F(0)), (F(1, 3), F(-1), F(4)), (F(0), F(5, 2), F(1)))


class TestElimination:
    def test_inverse_of_a_fraction_matrix(self):
        inv = inverse(A)
        assert mmul(A, inv) == eye(3, field=Fraction)

    def test_singular_fraction_matrix(self):
        singular = (A[0], A[1], tuple(2 * x - y for x, y in zip(A[0], A[1])))
        with pytest.raises(ValueError):
            inverse(singular)

    def test_kernel_of_a_rank_deficient_qqi_matrix(self):
        i = QQi(0, 1)
        r0 = (QQi(1), i, QQi(0), QQi(2))
        r1 = (i, QQi(-1), QQi(1), QQi(0))
        m = mat((r0, r1, tuple(a + i * b for a, b in zip(r0, r1))))  # rank 2
        basis = kernel_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert all(not bool(x) for x in mat_apply(m, v))

    def test_singular_metric_is_reported(self):
        t = hk.HKTriple(hk.STANDARD_TRIPLE, hk.form2({}), F(1))
        with pytest.raises(ValueError, match="singular metric"):
            hk.complex_structure_matrices(t)


class TestIsZeroMatrix:
    def test_fraction_entries(self):
        assert is_zero_matrix(zeros(4, field=Fraction))
        assert is_zero_matrix(((F(0), F(0, 7)), (F(0), F(0))))
        assert not is_zero_matrix(((F(0), F(0)), (F(0), F(-1, 3))))

    def test_qqi_entries(self):
        assert is_zero_matrix(zeros(3))
        assert not is_zero_matrix(((QQi(0), QQi(0)), (QQi(2, 5), QQi(0))))
        # a zero real part does not make the entry zero
        assert not is_zero_matrix(((QQi(0), QQi(0, 1)), (QQi(0), QQi(0))))


def random_columns(rng, n_in, n_out):
    """Sparse rational columns with denominators 1-7, about a third nonzero."""
    return [[F(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.35 else F(0)
             for _ in range(n_out)] for _ in range(n_in)]


class TestLinearMap:
    def test_equals_the_written_out_dot_product(self):
        rng = random.Random(4)
        for _ in range(30):
            n_in, n_out = rng.randint(1, 20), rng.randint(1, 12)
            cols = random_columns(rng, n_in, n_out)
            m = LinearMap.from_columns(cols)
            for _ in range(5):
                x = [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n_in)]
                want = tuple(sum((cols[n][s] * x[n] for n in range(n_in)), F(0))
                             for s in range(n_out))
                got = m(x)
                assert got == want
                assert all(type(y) is F for y in got)

    def test_integer_inputs_and_zero_input(self):
        m = LinearMap.from_columns([[F(1, 2), F(0)], [F(1, 3), 2], [0, F(-5, 7)]])
        assert m([1, 3, 0]) == (F(3, 2), F(6))
        zero = m([F(0)] * 3)
        assert zero == (F(0), F(0)) and all(type(y) is F for y in zero)

    def test_wrong_input_length_is_rejected(self):
        m = LinearMap.from_columns([[F(1)], [F(2)]])
        with pytest.raises(ValueError, match="takes 2 inputs"):
            m([F(1)])

    @pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), QQi(1, 1)],
                             ids=["float", "decimal", "qqi"])
    def test_other_inputs_are_rejected(self, bad):
        # a float once passed silently (as_integer_ratio reads it exactly)
        # and a Decimal or QQi failed with an AttributeError from inside
        m = LinearMap.from_columns([[F(1)], [F(2)], [F(3)]])
        with pytest.raises(TypeError, match=f"input 1 is {type(bad).__name__}"):
            m([F(1), bad, bad])

    def test_unused_inputs_are_type_checked(self):
        # input 1 has a zero column, so the map never reads it, but a float
        # there is still rejected by position (this holds at a map that
        # reads every input too; it keeps the check off the used inputs)
        m = LinearMap.from_columns([[F(1)], [F(0)], [F(3)]])
        assert m.used == (0, 2)
        with pytest.raises(TypeError, match="input 1 is float"):
            m([F(1), 0.5, F(2)])

    def test_bool_inputs_are_ints(self):
        m = LinearMap.from_columns([[F(1, 2)], [F(2)]])
        assert m([True, False]) == (F(1, 2),)

    def test_inputs_are_read_once(self, monkeypatch):
        # one as_integer_ratio per used input, the 38 of the 48 that some
        # row reads, and no numerator or denominator read: 38 + 0 = 38 (the
        # map once read all 48 inputs, and before that .denominator twice
        # and .numerator once per input, 144 reads)
        calls = Counter()
        ratio = F.as_integer_ratio
        monkeypatch.setattr(F, "as_integer_ratio",
                            lambda x: calls.update(["ratio"]) or ratio(x))
        for name in ("numerator", "denominator"):
            prop = getattr(F, name)
            monkeypatch.setattr(F, name, property(
                lambda x, _get=prop.fget, _n=name: calls.update([_n]) or _get(x)))
        m = hk.HKTriple.standard()._variation_map
        x = [F(n - 24, 1 + n % 5) for n in range(48)]
        calls.clear()
        m(x)
        assert len(m.used) == 38 and calls == {"ratio": 38}

    def test_equality_follows_the_columns(self):
        rng = random.Random(5)
        cols = random_columns(rng, 9, 6)
        # the same columns, with the integral entries given as ints
        same = [[x.numerator if x.denominator == 1 else x for x in col] for col in cols]
        assert LinearMap.from_columns(cols) == LinearMap.from_columns(same)
        other = [list(col) for col in cols]
        other[4][2] += F(1, 5)
        assert LinearMap.from_columns(cols) != LinearMap.from_columns(other)
        # a trailing zero column is part of the map, and so is one inside it,
        # though neither input is read
        zero_col = [F(0)] * 6
        assert LinearMap.from_columns(cols) != LinearMap.from_columns(cols + [zero_col])
        inside = LinearMap.from_columns(cols[:4] + [zero_col] + cols[4:])
        assert LinearMap.from_columns(cols) != inside and 4 not in inside.used

    def test_compose_is_inner_then_outer(self):
        rng = random.Random(6)
        for _ in range(30):
            n_in, n_mid, n_out = rng.randint(1, 12), rng.randint(1, 10), rng.randint(1, 8)
            inner = LinearMap.from_columns(random_columns(rng, n_in, n_mid))
            outer = LinearMap.from_columns(random_columns(rng, n_mid, n_out))
            both = outer.compose(inner)
            units = [[F(int(n == j)) for j in range(n_in)] for n in range(n_in)]
            images = [outer(inner(u)) for u in units]
            assert [both(u) for u in units] == images
            assert both == LinearMap.from_columns(images)
            for _ in range(5):
                x = [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n_in)]
                assert both(x) == outer(inner(x))

    def test_compose_reduces_to_lowest_terms(self):
        # an inner map over a common factor of its coefficients and den
        inner = LinearMap(2, (0, 1), (((0, 1), (2, 4)),), 6)
        assert LinearMap.from_columns([[1]]).compose(inner) == \
            LinearMap.from_columns([[F(1, 3)], [F(2, 3)]])
        # a composite that cancels to zero is the zero map over 1
        zero = LinearMap.from_columns([[F(1, 2)], [F(-1, 2)]]).compose(
            LinearMap.from_columns([[F(1, 3), F(1, 3)]]))
        assert zero == LinearMap.from_columns([[0]])
        assert zero.den == 1 and zero.used == () and zero.rows == (((), ()),)

    def test_compose_rejects_mismatched_sizes(self):
        outer = LinearMap.from_columns([[F(1)], [F(2)], [F(3)]])
        inner = LinearMap.from_columns([[F(1), F(1)]])
        with pytest.raises(ValueError, match="takes 3 inputs, inner map gives 2"):
            outer.compose(inner)
