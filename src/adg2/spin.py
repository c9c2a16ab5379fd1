"""Spinor algebra for the split 3+4 model, with exact Gaussian-rational matrices.

Conventions, frozen here and proved on the 2x2 tables by verify_conventions():
  * fibre half-spinors S+ and S- are each C^2; the fibre Clifford action of
    the coordinate vectors e_1..e_4 is built from the quaternion units
    q_0 = 1, q_k = -i sigma_k, with e_a: S- -> S+ given by q_{a-1} and
    S+ -> S- by -q_{a-1}^dagger;
  * the base Clifford action is c_B(dt_k) = -i sigma_k, so that
    c_B(dt_1) c_B(dt_2) c_B(dt_3) = -1;
  * with these choices the self-dual forms act on S+ only, the anti-self-dual
    forms on S- only, the operators (1/2) c(omega_i) on S+ satisfy the
    quaternion relations, and c(vol4) = +1 on S-, -1 on S+.

build_spinor_model() returns one verified model per process; the proof
runs on its first call.  The curvature sum and the first-order part of the
Dirac-variation symbol are linear in a jet: each model holds them as
exact.LinearMap, built on first use from its 2x2 tables and composed with
the standard triple's metric variation slot by slot, so that a jet's entries
reach each through one map: SpinorModel._curvature_sum_map (w to
sum_k I_k^{S+} R~_k, from the ccc and i_sp tables; the zeroth part of the
symbol too) and SpinorModel._dirac_first_map (v to the four first-order
coefficients, from the i_sp and mp tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from . import hk
from .exact import (
    LinearMap,
    QQi,
    dagger,
    eye,
    frac_sqrt,
    is_zero_matrix,
    kernel_basis,
    kron,
    madd,
    mchain,
    mmul,
    mscale,
    msub,
    mtrace,
    zeros,
)

I_ = QQi(0, 1)

SIGMA = (
    ((QQi(0), QQi(1)), (QQi(1), QQi(0))),
    ((QQi(0), -I_), (I_, QQi(0))),
    ((QQi(1), QQi(0)), (QQi(0), QQi(-1))),
)

Q_UNITS = (eye(2),) + tuple(mscale(-I_, s) for s in SIGMA)

EPSILON2 = ((QQi(0), QQi(1)), (QQi(-1), QQi(0)))  # complex volume form on C^2


class ConventionError(AssertionError):
    pass


@dataclass(frozen=True)
class SpinorModel:
    mp: tuple  # c(e_a): S- -> S+, four 2x2 matrices
    pm: tuple  # c(e_a): S+ -> S-
    cb: tuple  # c_B(dt_k), three 2x2 matrices
    i_sp: tuple  # (1/2) c(omega_i) on S+
    cc_plus: tuple  # (c_a c_b)|_{S+}
    cc_minus: tuple  # (c_a c_b)|_{S-}
    ccc: tuple  # (c_l c_i c_j): S- -> S+, indexed [l][i][j]

    def c_omega_block(self):
        """c(omega) = -sum_i c_X(omega_i) (x) c_B(dt_i) on the S+ (x) S_B block (4x4)."""
        out = zeros(4)
        for i in range(3):
            out = msub(out, kron(mscale(QQi(2), self.i_sp[i]), self.cb[i]))
        return out

    def c_theta_block(self):
        """c(Theta) = -sum_cyc c_X(omega_i) (x) c_B(dt_j) c_B(dt_k) on S+ (x) S_B."""
        out = zeros(4)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            out = msub(out, kron(mscale(QQi(2), self.i_sp[i]),
                                 mmul(self.cb[j], self.cb[k])))
        return out

    def c_form2_minus(self, w: hk.Mat4):
        """Clifford action of a fibre 2-form on S-."""
        return _form2_action(w, self.cc_minus)

    def c_form2_plus(self, w: hk.Mat4):
        return _form2_action(w, self.cc_plus)

    @cached_property
    def _curvature_sum_map(self) -> LinearMap:
        """curvature_sum on the 576 entries of w (_w_entries) to the parts of
        sum_k I_k^{S+} R~_k: each slot's g1[k][i] (_metric_slots), then
        g1[k][i][l][j] to the parts of R~_k (_parts order, 8 per k),
        (c_l c_j c_i - c_l c_i c_j) / 8, then the left multiplication of R~_k
        by i_sp[k], whose column for part (k, c, b) of R~_k is i_sp[k][a][c]
        (times i for an imaginary part) at (a, b)."""
        tensor = [[x / 8 for x in _parts(msub(self.ccc[l][j][i], self.ccc[l][i][j]))]
                  for i, l, j in product(range(4), repeat=3)]
        curvature = LinearMap.from_columns(
            [[0] * (8 * k) + t + [0] * (8 * (2 - k)) for k in range(3) for t in tensor])
        cols = []
        for k, c, b, unit in product(range(3), range(2), range(2), (QQi(1), I_)):
            col = [Fraction(0)] * 8
            for a in range(2):
                z = self.i_sp[k][a][c] * unit
                col[4 * a + 2 * b:4 * a + 2 * b + 2] = z.re, z.im
            cols.append(col)
        return LinearMap.from_columns(cols).compose(curvature).compose(_metric_slots(12))

    @cached_property
    def _dirac_first_map(self) -> LinearMap:
        """The first-order part of dirac_variation_symbol on the 144 entries
        of v, slot k = v[k] after slot k - 1, to the parts of the four
        coefficient matrices (_parts order, 8 per i): each slot's g0[k]
        (_metric_slots), then g0[k][i][j] to -(1/2) I_k^{S+} c(e_j) in block i."""
        first = [[-x / 2 for x in _parts(mmul(self.i_sp[k], self.mp[j]))]
                 for k in range(3) for j in range(4)]
        return LinearMap.from_columns(
            [[0] * (8 * i) + first[4 * k + j] + [0] * (8 * (3 - i))
             for k, i, j in product(range(3), range(4), range(4))]
        ).compose(_metric_slots(3))


def _metric_slots(n: int) -> LinearMap:
    """The g_dot rows of the standard triple's HKTriple._variation_map on n
    slots side by side, slot s from inputs 48 s.. to outputs 16 s..; compose
    reduces it to lowest terms."""
    var = hk.HKTriple.standard()._variation_map
    return LinearMap.from_rows(48 * n, [[(48 * s + var.used[p], c) for p, c in zip(*row)]
                                        for s in range(n) for row in var.rows[:16]], var.den)


def _parts(m) -> list:
    """The real and imaginary parts of a 2x2 QQi matrix, in the order
    re m00, im m00, re m01, im m01, re m10, .., im m11."""
    return [x for row in m for z in row for x in (z.re, z.im)]


def _from_parts(p) -> tuple:
    """The 2x2 QQi matrix whose _parts are p."""
    return ((QQi(p[0], p[1]), QQi(p[2], p[3])), (QQi(p[4], p[5]), QQi(p[6], p[7])))


def _form2_action(w: hk.Mat4, cc):
    """sum_{a<b} w_ab (c_a c_b), through one chirality's table cc of products."""
    out = zeros(2)
    for a, b in combinations(range(4), 2):
        if w[a][b]:
            out = madd(out, mscale(QQi(w[a][b]), cc[a][b]))
    return out


def build_spinor_model(corrupt: str | None = None) -> SpinorModel:
    """The concrete model; with corrupt=None the one verified model of the
    process, whose frozen conventions are proved on the first call.

    corrupt is a test hook: "i2_sign" flips one quaternion unit before the
    derived operators are formed, which downstream identity suites must
    catch.  A corrupted model is built afresh on every call, never cached
    and never verified (the construction checks would see the flip).  Any
    other name raises ValueError, so a misspelt control cannot pass.
    """
    check_corruption(corrupt)
    if corrupt is None:
        return _verified_model()
    return _assemble(corrupt)


def check_corruption(corrupt: str | None) -> None:
    """ValueError unless corrupt is None or the one known hook, "i2_sign"."""
    if corrupt not in (None, "i2_sign"):
        raise ValueError(f"unknown corruption {corrupt!r}; the known hook is 'i2_sign'")


@cache
def _verified_model() -> SpinorModel:
    model = _assemble(None)
    verify_conventions(model)
    return model


def _assemble(corrupt: str | None) -> SpinorModel:
    mp = Q_UNITS
    if corrupt == "i2_sign":
        mp = (mp[0], mp[1], mscale(QQi(-1), mp[2]), mp[3])
    return _from_tables(mp, (mscale(QQi(-1), eye(2)),) + Q_UNITS[1:], Q_UNITS[1:])


def _from_tables(mp, pm, cb) -> SpinorModel:
    """The model whose Clifford actions are the 2x2 tables mp, pm and cb."""
    cc_plus = tuple(tuple(mmul(mp[a], pm[b]) for b in range(4)) for a in range(4))
    cc_minus = tuple(tuple(mmul(pm[a], mp[b]) for b in range(4)) for a in range(4))
    ccc = tuple(tuple(tuple(mmul(mp[l], cc_minus[i][j]) for j in range(4))
                      for i in range(4)) for l in range(4))

    half = QQi(Fraction(1, 2))
    i_sp = tuple(mscale(half, _form2_action(w, cc_plus)) for w in hk.STANDARD_TRIPLE)
    return SpinorModel(mp, pm, cb, i_sp, cc_plus, cc_minus, ccc)


def verify_conventions(model: SpinorModel):
    """Prove the frozen conventions of the module docstring on model; raise
    ConventionError, an AssertionError, at the first one that fails.

    Each relation of the module S is proved on the 2x2 tables.  At fibre
    scale eps, c(e_a) has the off-diagonal blocks eps pm_a (x) 1 (S+ -> S-)
    and mp_a (x) 1 (S- -> S+), and c(dt_k) = diag(1 (x) cb_k, -1 (x) cb_k).
    """
    minus_one = mscale(QQi(-1), eye(2))
    # base convention: c_B(dt1) c_B(dt2) c_B(dt3) = -1
    if mchain(*model.cb) != minus_one:
        raise ConventionError("base volume convention failed")
    # quaternion relations for the S+ operators
    for i in range(3):
        if mmul(model.i_sp[i], model.i_sp[i]) != minus_one:
            raise ConventionError("i_sp squares")
    if mmul(model.i_sp[0], model.i_sp[1]) != model.i_sp[2]:
        raise ConventionError("i_sp product")
    # Clifford relations of S, each unordered pair once.  c(e_a) c(e_b) =
    # eps diag(cc_minus[a][b], cc_plus[a][b]) (x) 1 and c(dt_i) c(dt_j) =
    # diag(1, 1) (x) cb_i cb_j, so at every eps > 0 the anticommutators are
    # -2 (eps) delta exactly when those of the 2x2 tables are -2 delta.
    # {c(e_a), c(dt_k)} vanishes for any tables: the blocks of c(e_a) commute
    # with 1 (x) cb_k, and the -1 on the S+ block of c(dt_k) gives the two
    # products opposite signs
    cb_cb = tuple(tuple(mmul(x, y) for y in model.cb) for x in model.cb)
    for kind, tables in (("vertical", (model.cc_minus, model.cc_plus)),
                         ("horizontal", (cb_cb,))):
        for a, b in combinations_with_replacement(range(len(tables[0])), 2):
            want = mscale(QQi(-2 if a == b else 0), eye(2))
            if any(madd(cc[a][b], cc[b][a]) != want for cc in tables):
                raise ConventionError(f"{kind} Clifford relation")
    # chirality of the form actions
    for w in hk.STANDARD_TRIPLE:
        if not is_zero_matrix(model.c_form2_minus(w)):
            raise ConventionError("self-dual form acts on S-")
    for eta in hk.ASD_BASIS:
        if not is_zero_matrix(model.c_form2_plus(eta)):
            raise ConventionError("anti-self-dual form acts on S+")
    # volume actions: c(lambda) = -c(dt1) c(dt2) c(dt3) = diag(1, -1) by the
    # base convention, and c(mu) = c(e_1) .. c(e_4) (eps = 1) is diag(cc_minus[0][1]
    # cc_minus[2][3], cc_plus[0][1] cc_plus[2][3]) (x) 1; c(lambda) c(mu) = 1
    # with these block signs exactly when the two products are +1 and -1
    if (mmul(model.cc_minus[0][1], model.cc_minus[2][3]) != eye(2)
            or mmul(model.cc_plus[0][1], model.cc_plus[2][3]) != minus_one):
        raise ConventionError("lambda mu product")
    # c(Theta) = c(omega)
    if model.c_theta_block() != model.c_omega_block():
        raise ConventionError("Theta and omega actions differ")


def c_omega_decomposition(model: SpinorModel):
    """Exact eigen-decomposition of c(omega) on S+ (x) S_B.

    Returns a dict eigenvalue -> list of exact basis vectors; the spectrum is
    verified to be {-6 (multiplicity 1), 2 (multiplicity 3)}.
    """
    om = model.c_omega_block()
    shifted_m6 = msub(om, mscale(QQi(-6), eye(4)))
    shifted_p2 = msub(om, mscale(QQi(2), eye(4)))
    k_m6 = kernel_basis(shifted_m6)
    k_p2 = kernel_basis(shifted_p2)
    if len(k_m6) != 1 or len(k_p2) != 3:
        raise ConventionError(
            f"spectrum multiplicities wrong: {len(k_m6)} and {len(k_p2)}")
    # the two eigenspaces exhaust the space: trace check
    if mtrace(om) != QQi(-6 + 3 * 2):
        raise ConventionError("trace inconsistent with spectrum")
    return {-6: k_m6, 2: k_p2}


def real_structure_fixed(v: Sequence[QQi]) -> tuple:
    """Apply the canonical real structure (j (x) j) on S+ (x) S_B to a vector.

    With j(z1, z2) = (-conj z2, conj z1) on each factor:
    (j (x) j v)_{alpha beta} = (-1)^(alpha+beta) conj(v_{1-alpha, 1-beta}).
    """
    out = [QQi(0)] * 4
    for alpha in range(2):
        for beta in range(2):
            s = 1 if (alpha + beta) % 2 == 0 else -1
            out[2 * alpha + beta] = QQi(s) * v[2 * (1 - alpha) + (1 - beta)].conj()
    return tuple(out)


def canonical_phi(model: SpinorModel, sign: int = 1):
    """The canonical unit map S+ -> S_B built from the -6 eigenvector.

    Returns a 2x2 matrix Phi with Phi I_i^{S+} = c_B(dt_i) Phi, unitary and
    complex-volume preserving.  sign selects between the two real unit
    sections; both are valid and downstream quantities must not depend on the
    choice.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dec = c_omega_decomposition(model)
    v = dec[-6][0]
    fixed = tuple(a + b for a, b in zip(v, real_structure_fixed(v)))
    if all(not bool(c) for c in fixed):
        v = tuple(I_ * c for c in v)
        fixed = tuple(a + b for a, b in zip(v, real_structure_fixed(v)))
    # view in Hom(S+, S_B) through the complex volume form on S+:
    # (u (x) w) |-> eps(u, .) w, i.e. Phi[beta][s] = sum_alpha eps[alpha][s] v_{alpha beta}
    phi = [[QQi(0)] * 2 for _ in range(2)]
    for alpha in range(2):
        for beta in range(2):
            for s in range(2):
                phi[beta][s] += EPSILON2[alpha][s] * fixed[2 * alpha + beta]
    phi = tuple(map(tuple, phi))
    gram = mmul(dagger(phi), phi)
    norm2 = gram[0][0]
    if gram != mscale(norm2, eye(2)) or not bool(norm2) or norm2.im != 0:
        raise ConventionError("eigenvector does not induce a conformal map")
    norm = frac_sqrt(norm2.re)
    phi = mscale(QQi(Fraction(sign, 1) / norm), phi)
    for i in range(3):
        if mmul(phi, model.i_sp[i]) != mmul(model.cb[i], phi):
            raise ConventionError("intertwining failed")
    if mmul(dagger(phi), phi) != eye(2):
        raise ConventionError("phi not unitary")
    # complex volume forms correspond: eps_B(phi a, phi b) = det(phi) eps_+(a, b)
    det = phi[0][0] * phi[1][1] - phi[0][1] * phi[1][0]
    if det != QQi(1):
        raise ConventionError("phi does not preserve the complex volume forms")
    return phi


# ----------------------------------------------------------------------------
# jets and the curvature identities


@dataclass(frozen=True)
class AdiabaticJet:
    """Pointwise jet of the fibrewise structure along the base directions.

    v[k][m]    : variation of the m-th triple form along direction t_k;
    w[k][m][i] : its fibre derivative in direction e_i (flat background, so
                 plain derivative slots).
    All entries are antisymmetric 4x4 Fraction matrices.
    """

    v: tuple
    w: tuple

    def flags(self) -> dict:
        std = hk.HKTriple.standard()
        sym = all(self.v[k][m] == self.v[m][k] for k in range(3) for m in range(3))
        sym = sym and all(self.w[k][m][i] == self.w[m][k][i]
                          for k in range(3) for m in range(3) for i in range(4))
        diagonals = [[self.v[k][k] for k in range(3)]] + [
            [self.w[k][k][i] for k in range(3)] for i in range(4)]
        trace_zero = all(is_zero_matrix(madd(madd(a, b), c)) for a, b, c in diagonals)
        # the self-dual parts (a, b) of every zeroth-order and derivative slot
        triples = list(self.v) + [tuple(self.w[k][m][i] for m in range(3))
                                  for k in range(3) for i in range(4)]
        sd = [hk.self_dual_coefficients(std, hk.TripleVariation.of(*t)) for t in triples]
        b_zero = all(b == 0 for _, b in sd)
        asd = b_zero and all(x == 0 for a, _ in sd for row in a for x in row)
        return {"d_H_omega_sym": sym, "d_H_mu": b_zero,
                "d_H_Theta": trace_zero, "asd": asd}

    def all_flags(self) -> bool:
        return all(self.flags().values())


def zero_jet() -> AdiabaticJet:
    z = hk.form2({})
    return AdiabaticJet(
        tuple(tuple(z for _ in range(3)) for _ in range(3)),
        tuple(tuple(tuple(z for _ in range(4)) for _ in range(3)) for _ in range(3)),
    )


# the drawn ASD_BASIS coefficients, Fraction(n, d) for -6 <= n <= 6 and
# 1 <= d <= 3, keyed by (n, d), each with its negative; built once at import
_ASD_DRAWS = {(n, d): (Fraction(n, d), Fraction(-n, d))
              for n in range(-6, 7) for d in range(1, 4)}


def _asd_coeffs(rng) -> tuple[tuple[Fraction, Fraction], ...]:
    """The three ASD_BASIS coefficients of one random_asd draw, as the
    (c, -c) pairs of hk.asd_from_pairs: each is the Fraction of
    rng.randint(-6, 6) over rng.randint(1, 3), numerator drawn first, looked
    up in the _ASD_DRAWS table.  So the draws and their order are those of
    Fraction(rng.randint(-6, 6), rng.randint(1, 3)), and no Fraction is built."""
    r = rng.randint
    return (_ASD_DRAWS[r(-6, 6), r(1, 3)], _ASD_DRAWS[r(-6, 6), r(1, 3)],
            _ASD_DRAWS[r(-6, 6), r(1, 3)])


def random_asd(rng) -> hk.Mat4:
    return hk.asd_from_pairs(*_asd_coeffs(rng))


def _sym_tracefree(pairs) -> tuple:
    """The symmetric trace-free 3x3 grid of ASD forms whose ASD_BASIS
    coefficients, as the (c, -c) pairs of hk.asd_from_pairs, are pairs[k, m]
    on the slots (k, m), k <= m.  The (2, 2) slot's pairs are
    (-(c00 + c11), c00 + c11), summed on the coefficients, so each slot's
    form is built once and no coefficient is negated."""
    forms = {km: hk.asd_from_pairs(*p) for km, p in pairs.items() if km != (2, 2)}
    forms[2, 2] = hk.asd_from_pairs(*((na + nb, ca + cb) for (ca, na), (cb, nb)
                                      in zip(pairs[0, 0], pairs[1, 1])))
    return tuple(tuple(forms[min(k, m), max(k, m)] for m in range(3)) for k in range(3))


def _donaldson_jet(grids) -> AdiabaticJet:
    """The jet whose v, then w[.][.][i] for i = 0..3, are the five grids."""
    v, *w_per_i = grids
    return AdiabaticJet(v, tuple(tuple(tuple(w_per_i[i][k][m] for i in range(4))
                                       for m in range(3)) for k in range(3)))


_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # k <= m, row-major


def random_donaldson_jet(rng) -> AdiabaticJet:
    """A random jet satisfying every constraint: symmetric, ASD, trace-free.

    The draw order is fixed: each of the five grids (v, then w for i = 0..3)
    draws the coefficients of its slots (k, m), k <= m, in row-major order,
    the (2, 2) slot included, whose draw _sym_tracefree discards.  Each
    coefficient is the Fraction(rng.randint(-6, 6), rng.randint(1, 3)) of
    _asd_coeffs, read from its table with its negative."""
    grids = [_sym_tracefree({km: _asd_coeffs(rng) for km in _SLOTS}) for _ in range(5)]
    return _donaldson_jet(grids)


def constraint_basis_jets():
    """The 75 unit jets that span the constraint subspace, built one at a
    time: ASD_BASIS form j in one free slot (k, m) of v (15 jets), then of
    w[.][.][i] for i = 0..3 (60), with its mirror (m, k) and, on the
    diagonal, minus it in (2, 2); every other slot is zero.  The unit
    coefficients 0 and 1 are the _ASD_DRAWS entries of the random jets."""
    nought, one = _ASD_DRAWS[0, 1], _ASD_DRAWS[1, 1]
    zero = dict.fromkeys(_SLOTS[:5], (nought,) * 3)
    zero_grid = _sym_tracefree(zero)
    for g, km, j in product(range(5), zero, range(3)):
        unit = _sym_tracefree({**zero, km: tuple(one if n == j else nought
                                                 for n in range(3))})
        yield _donaldson_jet([unit if h == g else zero_grid for h in range(5)])


def _add_support(a: hk.Mat4, delta: hk.Mat4) -> hk.Mat4:
    """a + delta, adding only delta's nonzero entries."""
    return tuple(tuple(x + y if y else x for x, y in zip(ra, rd)) for ra, rd in zip(a, delta))


def violate_jet(jet: AdiabaticJet, which: str, rng) -> AdiabaticJet:
    """Break exactly the named constraint in the derivative slots (and mirror
    the break in the zeroth-order slots so both identity families see it)."""
    v = [list(row) for row in jet.v]
    w = [[list(slots) for slots in row] for row in jet.w]
    if which in ("d_H_omega", "d_H_Theta"):
        # d_H_omega adds to the off-diagonal slot (0, 1), which breaks the
        # symmetry; d_H_Theta to the diagonal slot (0, 0), which keeps the
        # symmetry flag but breaks the trace.  fallback replaces a zero draw.
        m, fallback = ((1, hk.ASD_BASIS[0]) if which == "d_H_omega"
                       else (0, hk.ASD_BASIS[1]))
        delta = random_asd(rng)
        while is_zero_matrix(delta):
            delta = random_asd(rng)
        v[0][m] = _add_support(v[0][m], delta)
        for i in range(4):
            d = random_asd(rng)
            if is_zero_matrix(d):
                d = fallback
            w[0][m][i] = _add_support(w[0][m][i], d)
    elif which == "d_H_mu":
        # conformal injection on the k-diagonal: b^k becomes nonzero while the
        # symmetry flag survives (a standalone volume violation necessarily
        # disturbs the trace too, since self-dual parts cannot cancel in it)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        k = rng.randrange(3)
        dv = mscale(3 * c, hk.STANDARD_TRIPLE[k])
        v[k][k] = _add_support(v[k][k], dv)
        for i in range(4):
            w[k][k][i] = _add_support(w[k][k][i], dv)
    else:
        raise ValueError(f"unknown constraint {which}")
    return AdiabaticJet(tuple(tuple(r) for r in v),
                        tuple(tuple(tuple(s) for s in row) for row in w))


def _w_entries(jet: AdiabaticJet) -> list:
    """The 576 entries of jet.w, slot (k, i) = (w[k][0][i], w[k][1][i],
    w[k][2][i]) after slot (k, i - 1), each form row-major."""
    return [x for wk in jet.w for i in range(4) for forms in wk
            for row in forms[i] for x in row]


def curvature_sum(jet: AdiabaticJet, model: SpinorModel):
    """sum_k I_k^{S+} R~_k, which vanishes exactly on constraint-compatible
    jets, through the model's one map SpinorModel._curvature_sum_map."""
    return _from_parts(model._curvature_sum_map(_w_entries(jet)))


def dirac_variation_symbol(jet: AdiabaticJet, model: SpinorModel):
    """Operator symbol of sum_k I_k^{S+} [nabla_{t_k}, D^-].

    Returns (zeroth, first) with zeroth a 2x2 matrix, minus the curvature
    sum, whose parts are those of SpinorModel._curvature_sum_map negated
    (a zero part stays the map's shared zero), and first a list of four 2x2
    coefficient matrices, one per fibre derivative direction, through
    SpinorModel._dirac_first_map.  All vanish exactly on compatible jets.
    """
    zeroth = _from_parts([x and -x for x in model._curvature_sum_map(_w_entries(jet))])
    p = model._dirac_first_map([x for vk in jet.v for w in vk for row in w for x in row])
    return zeroth, tuple(_from_parts(p[8 * i:8 * i + 8]) for i in range(4))
