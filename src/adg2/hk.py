"""Pointwise hyperkähler algebra on the fibre R^4.

Two-forms are antisymmetric 4x4 Fraction matrices F with F(X,Y) = X^T F Y;
the volume 4-form is a rational multiple of vol4 = dx1 dx2 dx3 dx4.  The
triple determines the metric through g(Y,Z) mu = i_Y w1 ^ i_Z w2 ^ w3, and
variations of the triple decompose into rotation/conformal coefficients
plus anti-self-dual remainders, which carry the whole metric variation.

metric_variation and its inverse recover_form_variation are linear.  Each
runs through an exact.LinearMap cached on the HKTriple and built lazily, on
first use, from the triple's tables: HKTriple._variation_map from its
interior products and vol4 pairings on the 48 unit variations, and
HKTriple._recovery_map from the frame-free inverse formula on the 16 unit
metric variations.

This module is the one home of the standard triple (STANDARD_TRIPLE), its
anti-self-dual basis (ASD_BASIS), the entry layout of their span
(asd_from_pairs, which asd_form and spin's random jets call) and the
complex structures of a triple (complex_structure_matrices).  It has no
matrix arithmetic of its own: sums, differences, multiples and zero tests
of 2-forms are exact.madd, msub, mscale and is_zero_matrix, and the zero
2-form is form2({}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import Sequence

from .exact import LinearMap, QQi, eye, inverse, madd, mscale, msub, zeros

Mat4 = tuple  # 4x4 tuple of tuples of Fraction

_ZERO = Fraction(0)  # the zero entry shared by the forms built here


def form2(entries: dict) -> Mat4:
    """Antisymmetric matrix from {(a,b): coeff} with 0 <= a < b <= 3;
    ValueError naming the first other key (a diagonal, reversed or
    out-of-range slot)."""
    m = [[_ZERO] * 4 for _ in range(4)]
    for (a, b), c in entries.items():
        if not 0 <= a < b <= 3:
            raise ValueError(f"form2 key {(a, b)} must have 0 <= a < b <= 3")
        c = Fraction(c)
        m[a][b] += c
        m[b][a] -= c
    return tuple(tuple(row) for row in m)


def wedge22(a: Mat4, b: Mat4) -> Fraction:
    """Coefficient of vol4 in a ^ b for 2-forms a, b."""
    return (a[0][1] * b[2][3] + a[2][3] * b[0][1]
            - a[0][2] * b[1][3] - a[1][3] * b[0][2]
            + a[0][3] * b[1][2] + a[1][2] * b[0][3])


def wedge112(u: Sequence, v: Sequence, c: Mat4) -> Fraction:
    """Coefficient of vol4 in u ^ v ^ c for covectors u, v and a 2-form c."""
    return ((u[0] * v[1] - u[1] * v[0]) * c[2][3]
            + (u[2] * v[3] - u[3] * v[2]) * c[0][1]
            - (u[0] * v[2] - u[2] * v[0]) * c[1][3]
            - (u[1] * v[3] - u[3] * v[1]) * c[0][2]
            + (u[0] * v[3] - u[3] * v[0]) * c[1][2]
            + (u[1] * v[2] - u[2] * v[1]) * c[0][3])


STANDARD_TRIPLE: tuple[Mat4, Mat4, Mat4] = (
    form2({(0, 1): 1, (2, 3): 1}),
    form2({(0, 2): 1, (1, 3): -1}),
    form2({(0, 3): 1, (1, 2): 1}),
)


def asd_form(c1, c2, c3) -> Mat4:
    """The anti-self-dual 2-form c1 eta1 + c2 eta2 + c3 eta3, where
    (eta1, eta2, eta3) = ASD_BASIS is dx1 dx2 - dx3 dx4, dx1 dx3 + dx2 dx4,
    dx1 dx4 - dx2 dx3.  The coefficients, ints or Fractions, are converted
    and negated here; asd_from_pairs writes the entries."""
    c1, c2, c3 = (c if type(c) is Fraction else Fraction(c) for c in (c1, c2, c3))
    return asd_from_pairs((c1, -c1), (c2, -c2), (c3, -c3))


def asd_from_pairs(p1, p2, p3) -> Mat4:
    """The anti-self-dual 2-form of asd_form from its coefficients given as
    (c, -c) Fraction pairs, one per ASD_BASIS form: the one writer of the
    entry layout, which builds no Fraction (its diagonal is a shared zero).
    A caller that holds the negatives already, such as a table of drawn
    coefficients, hands them in."""
    (c1, n1), (c2, n2), (c3, n3) = p1, p2, p3
    z = _ZERO
    return ((z, c1, c2, c3), (n1, z, n3, c2), (n2, c3, z, n1), (n3, n2, c1, z))


ASD_BASIS: tuple[Mat4, Mat4, Mat4] = (
    asd_form(1, 0, 0), asd_form(0, 1, 0), asd_form(0, 0, 1))


class TripleRelationError(ValueError):
    def __init__(self, pair, value):
        self.pair = pair
        self.value = value
        super().__init__(
            f"hyperkähler relations violated for pair {pair}: residual {value}")


@dataclass(frozen=True)
class HKTriple:
    omega: tuple[Mat4, Mat4, Mat4]
    g: Mat4
    mu: Fraction

    @staticmethod
    @cache
    def standard() -> "HKTriple":
        """The flat triple, built once per process."""
        g, mu = metric_from_triple(STANDARD_TRIPLE)
        return HKTriple(STANDARD_TRIPLE, g, mu)

    @cached_property
    def _variation_map(self) -> LinearMap:
        """metric_variation at this triple: the 48 entries of the flattened
        (w1dot, w2dot, w3dot) to the 16 entries of g_dot (row-major) and, last,
        mu_dot = (1/3) sum_m w_m-dot ^ w_m, from i_{e_a} w1 ^ i_{e_b} w2 ^ w3 = g_ab mu.

        Column (m, c, e) is the unit w_m-dot = e_c (x) e_e, antisymmetric or
        not: its row a is delta_ac dx_e, and a vol4 pairing reads it as
        dx_c ^ dx_e if c < e and as 0 otherwise.  So mu g_dot_ab + g_ab mu_dot
        is delta_ac (dx_e ^ i_{e_b} w2 ^ w3), delta_bc (i_{e_a} w1 ^ dx_e ^ w3)
        or i_{e_a} w1 ^ i_{e_b} w2 ^ (its pairing) for m = 0, 1, 2.
        """
        w1, w2, w3 = self.omega
        dx = eye(4, field=Fraction)
        cols = []
        for m, c, e in product(range(3), range(4), range(4)):
            pair = form2({(c, e): 1}) if c < e else None
            mu_dot = wedge112(dx[c], dx[e], self.omega[m]) / 3 if pair else Fraction(0)
            col = []
            for a, b in product(range(4), repeat=2):
                if m == 0:
                    t = wedge112(dx[e], w2[b], w3) if a == c else 0
                elif m == 1:
                    t = wedge112(w1[a], dx[e], w3) if b == c else 0
                else:
                    t = wedge112(w1[a], w2[b], pair) if pair else 0
                col.append((t - self.g[a][b] * mu_dot) / self.mu)
            cols.append(col + [mu_dot])
        return LinearMap.from_columns(cols)

    @cached_property
    def _recovery_map(self) -> LinearMap:
        """recover_form_variation at this triple: the 16 entries of g_dot
        (row-major) to the 48 entries of the flattened (w1dot, w2dot, w3dot)
        and, last, the trace g^{ab} g_dot_ba.

        Column (b, d) is the frame-free formula
            w_i-dot = -(1/2) sum_{a,b'} g^{ab'} (I_i e_a)-flat ^ i_{e_b'} g_dot
        on the unit g_dot = e_b (x) e_d.  There i_{e_b'} g_dot is
        delta_{b'b} dx_d and (I_i e_a)-flat = i_{e_a} w_i is row a of w_i, so
        the column of w_i-dot is the 2-form h ^ dx_d, h = -(1/2) sum_a g^{ab} i_{e_a} w_i.
        """
        ginv = _metric_inverse(self.g)
        cols = []
        for b, d in product(range(4), repeat=2):
            col = []
            for w in self.omega:
                h = [-sum(ginv[a][b] * w[a][c] for a in range(4)) / 2 for c in range(4)]
                col += [(h[c] if e == d else 0) - (h[e] if c == d else 0)
                        for c in range(4) for e in range(4)]
            cols.append(col + [ginv[d][b]])
        return LinearMap.from_columns(cols)


@dataclass(frozen=True)
class TripleVariation:
    """First variations (w1dot, w2dot, w3dot) of the triple along one direction."""

    omega_dot: tuple[Mat4, Mat4, Mat4]

    @staticmethod
    def of(w1, w2, w3) -> "TripleVariation":
        return TripleVariation((w1, w2, w3))


@dataclass(frozen=True)
class MetricVariation:
    g_dot: Mat4  # symmetric
    mu_dot: Fraction  # coefficient of vol4


def metric_from_triple(omega: Sequence[Mat4]) -> tuple[Mat4, Fraction]:
    """Recover (g, mu) from a candidate triple via g(Y,Z) mu = i_Y w1 ^ i_Z w2 ^ w3.

    The relations w_i ^ w_j = 2 delta_ij mu are verified first and the three
    cyclic versions of the defining product are required to agree.
    """
    mu = wedge22(omega[0], omega[0]) / 2
    if mu == 0:
        raise TripleRelationError((0, 0), 0)
    for i in range(3):
        for j in range(i, 3):
            want = 2 * mu if i == j else Fraction(0)
            got = wedge22(omega[i], omega[j])
            if got != want:
                raise TripleRelationError((i, j), got - want)
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    gs = []
    for (i, j, k) in cyc:
        # the interior product with e_a is row a of the matrix
        gs.append(tuple(tuple(wedge112(omega[i][a], omega[j][b], omega[k]) / mu
                              for b in range(4)) for a in range(4)))
    if not (gs[0] == gs[1] == gs[2]):
        raise TripleRelationError(("cyclic",), gs)
    g = gs[0]
    for a in range(4):
        for b in range(4):
            if g[a][b] != g[b][a]:
                raise TripleRelationError(("symmetry",), (a, b))
    return g, mu


def triple(omega: Sequence[Mat4]) -> HKTriple:
    g, mu = metric_from_triple(omega)
    return HKTriple(tuple(omega), g, mu)


def self_dual_coefficients(t: HKTriple, v: TripleVariation):
    """The span{w_j} part of each w_i-dot, as (a, b): the traceless
    projection coefficients a[i][j] (antisymmetric exactly when the
    variation preserves the algebraic relations to first order) and the
    conformal coefficient b with mu_dot = 2 b mu."""
    c = [[wedge22(v.omega_dot[i], t.omega[j]) / (2 * t.mu) for j in range(3)]
         for i in range(3)]
    b = (c[0][0] + c[1][1] + c[2][2]) / 3
    a = tuple(tuple(c[i][j] - (b if i == j else 0) for j in range(3)) for i in range(3))
    return a, b


def decompose_variation(t: HKTriple, v: TripleVariation):
    """Split each w_i-dot into span{w_j} plus an anti-self-dual remainder.

    Returns (a, b, asd): the coefficients of self_dual_coefficients and the
    three ASD remainders.
    """
    a, b = self_dual_coefficients(t, v)
    asd = []
    for i in range(3):
        r = v.omega_dot[i]
        for j in range(3):
            r = msub(r, mscale(a[i][j] + (b if i == j else 0), t.omega[j]))
        asd.append(r)
    return a, b, tuple(asd)


def metric_variation(t: HKTriple, v: TripleVariation) -> MetricVariation:
    """Solve the variation of the defining product for g_dot, given mu_dot = 2 b mu.

    Applies the triple's cached exact map (HKTriple._variation_map), built
    from the triple's tables, to every input, antisymmetric or not.
    """
    out = t._variation_map([e for w in v.omega_dot for row in w for e in row])
    return MetricVariation(tuple(tuple(out[4 * a:4 * a + 4]) for a in range(4)), out[16])


def complex_structure_matrices(t: HKTriple) -> tuple[Mat4, Mat4, Mat4]:
    """I_i on fibre vectors, from omega_i(X,Y) = g(I_i X, Y)."""
    ginv = _metric_inverse(t.g)
    out = []
    for w in t.omega:
        # (I e_b)_a = sum_c ginv[a][c] * w[b][c] ... w(e_b, e_c) = g(I e_b, e_c)
        m = tuple(tuple(sum(ginv[a][c] * w[b][c] for c in range(4)) for b in range(4))
                  for a in range(4))
        out.append(m)
    return tuple(out)


def recover_form_variation(t: HKTriple, g_dot: Mat4):
    """Invert the metric variation: -(1/2) sum_{a,b} g^{ab} (I_i e_a)-flat ^
    i_{e_b} g_dot, which is -(1/2) sum_j (I_i e_j)-flat ^ i_{e_j} g_dot in every
    g-orthonormal frame (e_j).

    g_dot must be traceless w.r.t. the triple metric (pure ASD variation).
    Applies the triple's cached exact map (HKTriple._recovery_map).
    """
    *out, tr = t._recovery_map([e for row in g_dot for e in row])
    if tr != 0:
        raise ValueError(f"g_dot must be traceless; got trace {tr}")
    return tuple(tuple(tuple(out[16 * i + 4 * a:16 * i + 4 * a + 4]) for a in range(4))
                 for i in range(3))


def clifford_of_variation(t: HKTriple, g_dot: Mat4, k: int, spinor_model=None):
    """Clifford action of the k-th form variation on negative spinors,
    (1/2) sum_{i,j} g_dot(I_k e_i, e_j) c_i c_j, as an exact 2x2 matrix."""
    from .spin import SpinorModel, build_spinor_model

    model: SpinorModel = spinor_model or build_spinor_model()
    ivec = complex_structure_matrices(t)
    out = zeros(2)
    for i in range(4):
        ike = tuple(ivec[k][a][i] for a in range(4))
        for j in range(4):
            coeff = sum(Fraction(ike[c]) * g_dot[c][j] for c in range(4))
            if coeff:
                out = madd(out, mscale(QQi(Fraction(coeff, 2)),
                                       model.cc_minus[i][j]))
    return out


def _metric_inverse(g: Mat4) -> Mat4:
    try:
        return inverse(g)
    except ValueError:
        raise ValueError("singular metric") from None
