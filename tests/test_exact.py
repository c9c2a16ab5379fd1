from fractions import Fraction

import pytest

from adg2 import hk
from adg2.exact import (QQi, eye, inverse, is_zero_matrix, kernel_basis, mat,
                        mat_apply, mmul, zeros)

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
