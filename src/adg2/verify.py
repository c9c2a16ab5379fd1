"""Identity-verification suites with machine-readable reports.

Each suite re-derives the pointwise identities of its module with a seeded
generator and reports one row per check: an id that names the operation or
invariant, a self-contained statement of the law being checked, pass/fail,
and the worst residual (exact-arithmetic suites report "0" or the exact
nonzero value as a string).  Reports are deterministic given the seed,
except for runtime_ms, which can be zeroed for byte-stable output.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

SUITES = ("excalc", "g2lin", "hk", "spin")


@dataclass
class Check:
    id: str
    law: str
    status: str  # "pass" | "fail"
    max_residual: str
    runtime_ms: int


@dataclass
class Report:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self, timing: bool = True) -> dict:
        doc = {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }
        if not timing:
            for c in doc["checks"]:
                c["runtime_ms"] = 0
        return doc

    def dumps(self, timing: bool = True) -> str:
        return json.dumps(self.to_json(timing), indent=2, sort_keys=True) + "\n"


def _run(checks: list, check_id: str, law: str, fn):
    t0 = time.perf_counter()
    try:
        residual = fn()
        status = "pass"
    except AssertionError as exc:
        residual = str(exc) or "assertion failed"
        status = "fail"
    ms = int((time.perf_counter() - t0) * 1000)
    checks.append(Check(check_id, law, status,
                        residual if isinstance(residual, str) else repr(residual),
                        ms))


def _expect(cond: bool, residual):
    if not cond:
        raise AssertionError(str(residual))
    return "0"


# ----------------------------------------------------------------------------
# suite: excalc


def _random_form(rng, degree, max_poly_deg=2, nterms=3):
    from itertools import combinations

    from .excalc import BigradedForm, Poly

    keys = []
    for p in range(min(degree, 3) + 1):
        q = degree - p
        if q < 0 or q > 4:
            continue
        for big_i in combinations(range(3), p):
            for big_j in combinations(range(3, 7), q):
                keys.append((big_i, big_j))
    out = BigradedForm(degree)
    for _ in range(nterms):
        big_i, big_j = keys[rng.randrange(len(keys))]
        exp = [0] * 7
        for _ in range(rng.randint(0, max_poly_deg)):
            exp[rng.randrange(7)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + BigradedForm.monomial(big_i, big_j, Poly({tuple(exp): coeff}))
    return out


def _random_distribution(rng, max_poly_deg=2):
    from .excalc import HorizontalDistribution, Poly

    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(3)
        a = rng.randrange(3, 7)
        exp = [0] * 7
        for _ in range(rng.randint(0, max_poly_deg)):
            exp[rng.randrange(7)] += 1
        coeffs[(i, a)] = Poly({tuple(exp): Fraction(rng.randint(-3, 3))})
    return HorizontalDistribution(coeffs)


def run_excalc(seed: int, corrupt: str | None = None) -> list:
    from .excalc import (FibrationData, donaldson_residuals, exterior_d,
                         from_coordinate_frame, residuals_all_zero, split_d,
                         standard_triple, star4, to_coordinate_frame)

    rng = random.Random(seed)
    checks: list = []

    def check_split_sum():
        for _ in range(10):
            h = _random_distribution(rng)
            a = _random_form(rng, rng.randint(0, 3))
            df, dh, fh = split_d(a, h)
            want = from_coordinate_frame(exterior_d(to_coordinate_frame(a, h)), h)
            _expect(df + dh + fh == want, "split parts do not sum to d")
        return "0"

    _run(checks, "excalc.split_d.sum", "d_f + d_H + F_H equals d exactly",
         check_split_sum)

    def check_df_squared():
        for _ in range(8):
            h = _random_distribution(rng)
            a = _random_form(rng, rng.randint(0, 3))
            df, _, _ = split_d(a, h)
            df2, _, _ = split_d(df, h)
            _expect(df2.is_zero(), "d_f^2 != 0")
        return "0"

    _run(checks, "excalc.split_d.df_squared", "the fibre part of d squares to zero",
         check_df_squared)

    def check_fh_curvature():
        from .excalc import BigradedForm, HorizontalDistribution, Poly

        flat = curved = 0
        for _ in range(16):
            if rng.random() < 0.5:
                coeffs = {}
                for a in (3, 4):
                    phi = Poly({(1, 0, 0, 0, 0, 0, 0): Fraction(rng.randint(-3, 3)),
                                (0, 2, 0, 0, 0, 0, 0): Fraction(rng.randint(-3, 3))})
                    for i in range(3):
                        coeffs[(i, a)] = phi.diff(i)
                h = HorizontalDistribution(coeffs)
            else:
                h = _random_distribution(rng)
            curv_zero = all(k.is_zero() for k in h.curvature().values())
            fh_zero = True
            for a in range(3, 7):
                _, _, fh = split_d(BigradedForm.monomial((), (a,)), h)
                fh_zero = fh_zero and fh.is_zero()
            for _ in range(3):
                _, _, fh = split_d(_random_form(rng, rng.randint(0, 2)), h)
                fh_zero = fh_zero and fh.is_zero()
            _expect(fh_zero == curv_zero, "F_H does not track the curvature")
            flat += curv_zero
            curved += not curv_zero
        _expect(flat > 0 and curved > 0, "sampling failed to cover both cases")
        return "0"

    _run(checks, "excalc.split_d.fh_iff_curvature",
         "F_H vanishes on all forms iff the distribution has zero curvature",
         check_fh_curvature)

    def check_star4():
        for _ in range(10):
            a = _random_form(rng, 1).component(0, 1)
            _expect(star4(star4(a)) == -a, "star4^2 != -1 on 1-forms")
            b = _random_form(rng, 2).component(0, 2)
            _expect(star4(star4(b)) == b, "star4^2 != +1 on 2-forms")
        return "0"

    _run(checks, "excalc.hodge.star4_involution",
         "the fibre star squares to the orientation sign", check_star4)

    def check_product_data():
        res = donaldson_residuals(FibrationData.product())
        _expect(residuals_all_zero(res), "product data residuals nonzero")
        return "0"

    _run(checks, "excalc.donaldson_residuals.product",
         "the flat product data solves every structure equation",
         check_product_data)
    return checks


# ----------------------------------------------------------------------------
# suite: g2lin


def run_g2lin(seed: int, corrupt: str | None = None) -> list:
    from .excalc import eval_on_vectors
    from .g2lin import G2Model, chi, complex_structures, cross, vec, vertical_part

    rng = random.Random(seed)
    checks: list = []

    def rand_vec():
        return vec([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(7)])

    def check_identity():
        count = 0
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            m = G2Model(eps)
            sphi = m.star_phi()
            for _ in range(67):
                x, y, z = rand_vec(), rand_vec(), rand_vec()
                c = chi(x, y, z, m)
                for k in range(7):
                    w = [Fraction(0)] * 7
                    w[k] = Fraction(1)
                    w = tuple(w)
                    _expect(m.metric_pair(c, w) == eval_on_vectors(sphi, [x, y, z, w]),
                            f"defining identity failed at eps={eps}")
                count += 1
        _expect(count >= 200, "not enough samples")
        return "0"

    _run(checks, "g2lin.chi.defining_identity",
         "metric pairing of chi equals the structure 4-form on 200 random triples",
         check_identity)

    def check_scaling():
        m1 = G2Model(1)
        for eps in (Fraction(1, 2), Fraction(1, 5)):
            meps = G2Model(eps)
            for _ in range(10):
                xs = [vertical_part(rand_vec()) for _ in range(3)]
                ce = chi(*xs, meps)
                c1 = chi(*xs, m1)
                _expect(ce == tuple(eps * v for v in c1), "three-vertical scaling")
            hor = [Fraction(0)] * 7
            hor[1] = Fraction(1)
            hor = tuple(hor)
            hor2 = [Fraction(0)] * 7
            hor2[2] = Fraction(1)
            hor2 = tuple(hor2)
            for _ in range(10):
                x = vertical_part(rand_vec())
                _expect(chi(x, hor, hor2, meps) == chi(x, hor, hor2, m1),
                        "one-vertical case must be scale-free")
        return "0"

    _run(checks, "g2lin.chi.scaling_case_table",
         "chi scales by eps with >=2 vertical slots, is eps-free with one, "
         "and vanishes on horizontal triples", check_scaling)

    def check_cross():
        m = G2Model(1)
        e = [tuple(Fraction(1 if i == k else 0) for i in range(7)) for k in range(7)]
        _expect(cross(e[3], e[4], m) == e[0], "x1 x x2 != t1")
        got = cross(e[0], e[1], m)
        _expect(got == tuple(-c for c in e[2]), "t1 x t2 != -t3")
        return "0"

    _run(checks, "g2lin.cross.reference_values",
         "the cross product reproduces the split-model reference values",
         check_cross)

    def check_limit():
        m0 = G2Model(0)
        ivec, _ = complex_structures(m0)
        e = [tuple(Fraction(1 if i == k else 0) for i in range(7)) for k in range(7)]
        for _ in range(10):
            x = vertical_part(rand_vec())
            got = chi(x, e[1], e[2], m0)
            want = tuple(-sum(ivec[0][a][b] * x[3 + b] for b in range(4))
                         for a in range(4))
            _expect(got[3:] == want, "limit of chi is not -I_1 x")
        _expect(all(v == 0 for v in chi(e[0], e[1], e[2], m0)),
                "horizontal triple must die in the limit")
        return "0"

    _run(checks, "g2lin.chi.formal_limit",
         "the formal limit evaluator matches the case table, including -I_1 x",
         check_limit)
    return checks


# ----------------------------------------------------------------------------
# suite: hk


def failing_cyclic_families(ivec, v, g_dot) -> list[int]:
    """The numbers of the cyclic identities that fail for the complex
    structures ivec = (I1, I2, I3), the form variations v.omega_dot =
    (w1, w2, w3) and the metric variation g_dot.  The four families are the
    exact 4x4 matrix identities
        1: g_dot      = -(I1^T w1 + I2^T w2 + I3^T w3)
        2: I1^T g_dot = w1 + I3^T w2 - I2^T w3
        3: I2^T g_dot = w2 + I1^T w3 - I3^T w1
        4: I3^T g_dot = w3 + I2^T w1 - I1^T w2
    """
    from .exact import madd, mmul, mscale, msub

    it = [tuple(zip(*m)) for m in ivec]
    w = v.omega_dot
    p = [[mmul(it[i], w[j]) for j in range(3)] for i in range(3)]
    sides = [(g_dot, mscale(-1, madd(madd(p[0][0], p[1][1]), p[2][2])))]
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        sides.append((mmul(it[k], g_dot), madd(w[k], msub(p[k2][k1], p[k1][k2]))))
    return [n + 1 for n, (lhs, rhs) in enumerate(sides) if lhs != rhs]


def run_hk(seed: int, corrupt: str | None = None) -> list:
    from . import hk

    rng = random.Random(seed)
    checks: list = []
    std = hk.HKTriple.standard()
    ivec = [list(map(list, m)) for m in hk.complex_structure_matrices(std)]
    if corrupt == "i2_sign":
        ivec[1] = [[-x for x in row] for row in ivec[1]]
    ivec = tuple(tuple(tuple(row) for row in m) for m in ivec)

    def rand_asd():
        out = hk.zero2()
        for eta in hk.ASD_BASIS:
            out = hk.add2(out, hk.scale2(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)), eta))
        return out

    def check_metric():
        g, mu = hk.metric_from_triple(hk.STANDARD_TRIPLE)
        _expect(mu == 1 and all(g[a][b] == (1 if a == b else 0)
                                for a in range(4) for b in range(4)),
                "standard triple metric")
        return "0"

    _run(checks, "hk.metric_from_triple.standard",
         "the triple product recovers the flat metric and unit volume",
         check_metric)

    def check_example():
        eta = hk.form2({(0, 1): 1, (2, 3): -1})
        mv = hk.metric_variation(std, hk.TripleVariation.of(hk.zero2(), hk.zero2(), eta))
        want = [[Fraction(0)] * 4 for _ in range(4)]
        want[0][2] = want[2][0] = Fraction(-1)
        want[1][3] = want[3][1] = Fraction(1)
        _expect(mv.g_dot == tuple(tuple(r) for r in want), "worked metric variation")
        back = hk.recover_form_variation(std, mv.g_dot)
        _expect(hk.is_zero2(back[0]) and hk.is_zero2(back[1]) and back[2] == eta,
                "worked inverse variation")
        return "0"

    _run(checks, "hk.metric_variation.worked_example",
         "the reference anti-self-dual variation maps to the reference metric "
         "variation and back", check_example)

    def check_cyclic():
        for _ in range(100):
            v = hk.TripleVariation.of(*(rand_asd() for _ in range(3)))
            failing = failing_cyclic_families(ivec, v, hk.metric_variation(std, v).g_dot)
            _expect(not failing, f"cyclic families {failing} fail")
        return "0"

    _run(checks, "hk.variation.cyclic_symmetry",
         "the four cyclic identities tie the metric variation to the form "
         "variations on 100 random anti-self-dual inputs", check_cyclic)

    def check_roundtrip():
        for _ in range(100):
            v = hk.TripleVariation.of(*(rand_asd() for _ in range(3)))
            mv = hk.metric_variation(std, v)
            back = hk.recover_form_variation(std, mv.g_dot)
            _expect(back == v.omega_dot, "roundtrip failed")
        return "0"

    _run(checks, "hk.recover_form_variation.roundtrip",
         "metric variation and its inverse compose to the identity on "
         "anti-self-dual variations", check_roundtrip)

    def check_clifford():
        from .spin import build_spinor_model

        model = build_spinor_model()
        g_dot = [[Fraction(0)] * 4 for _ in range(4)]
        g_dot[0][2] = g_dot[2][0] = Fraction(-1)
        g_dot[1][3] = g_dot[3][1] = Fraction(1)
        g_dot = tuple(tuple(r) for r in g_dot)
        got = hk.clifford_of_variation(std, g_dot, 2, model)
        from .exact import QQi, mscale

        _expect(got == mscale(QQi(2), model.cc_minus[0][1]),
                "worked Clifford action is not 2 c1 c2")
        for k in (0, 1):
            out = hk.clifford_of_variation(std, g_dot, k, model)
            _expect(all(not bool(x) for row in out for x in row),
                    "worked Clifford action must vanish for k=1,2")
        return "0"

    _run(checks, "hk.clifford_of_variation.worked_example",
         "the reference variation acts on negative spinors as twice c1 c2",
         check_clifford)
    return checks


# ----------------------------------------------------------------------------
# suite: spin


def run_spin(seed: int, corrupt: str | None = None) -> list:
    from . import spin
    from .exact import QQi, eye, is_zero_matrix, mmul, mscale

    rng = random.Random(seed)
    checks: list = []
    model = spin.build_spinor_model(corrupt=corrupt)

    def check_clifford():
        for eps in (Fraction(1), Fraction(1, 3)):
            t_ops, x_ops = model.clifford7(eps)
            for a in range(4):
                for b in range(4):
                    prod1 = mmul(x_ops[a], x_ops[b])
                    prod2 = mmul(x_ops[b], x_ops[a])
                    anti = tuple(tuple(prod1[i][j] + prod2[i][j] for j in range(8))
                                 for i in range(8))
                    want = mscale(QQi(-2 * eps if a == b else 0), eye(8))
                    _expect(anti == want, "vertical anticommutator")
            for i in range(3):
                for a in range(4):
                    p1 = mmul(x_ops[a], t_ops[i])
                    p2 = mmul(t_ops[i], x_ops[a])
                    _expect(is_zero_matrix(tuple(
                        tuple(p1[r][c] + p2[r][c] for c in range(8))
                        for r in range(8))), "mixed anticommutator")
        prod = mmul(mmul(model.cb[0], model.cb[1]), model.cb[2])
        _expect(prod == mscale(QQi(-1), eye(2)), "base volume convention")
        return "0"

    _run(checks, "spin.build.clifford_relations",
         "all module anticommutators hold at two scales and the base triple "
         "multiplies to minus one", check_clifford)

    def check_spectrum():
        dec = spin.c_omega_decomposition(model)
        _expect(set(dec) == {-6, 2} and len(dec[-6]) == 1 and len(dec[2]) == 3,
                "spectrum is not {-6:1, 2:3}")
        return "0"

    _run(checks, "spin.c_omega.spectrum",
         "the structure-form action on positive spinors has eigenvalues -6 "
         "(simple) and 2 (triple)", check_spectrum)

    def check_phi():
        for sign in (1, -1):
            phi = spin.canonical_phi(model, sign)
            for i in range(3):
                _expect(mmul(phi, model.i_sp[i]) == mmul(model.cb[i], phi),
                        "intertwining")
        return "0"

    _run(checks, "spin.canonical_phi.intertwining",
         "both unit real sections intertwine the fibre and base quaternion "
         "actions", check_phi)

    def check_cancellations():
        for _ in range(100):
            jet = spin.random_donaldson_jet(rng)
            _expect(is_zero_matrix(spin.curvature_sum(jet, model)),
                    "curvature cancellation failed")
            z, first = spin.dirac_variation_symbol(jet, model)
            _expect(is_zero_matrix(z) and all(is_zero_matrix(c) for c in first),
                    "Dirac-variation cancellation failed")
        return "0"

    _run(checks, "spin.curvature.cancellation",
         "the paired curvature operators and the Dirac-variation symbol vanish "
         "exactly on 100 random constraint-compatible jets", check_cancellations)

    def check_negative_controls():
        nonzero = 0
        total = 0
        for which in ("d_H_omega", "d_H_mu", "d_H_Theta"):
            for _ in range(34 if which == "d_H_omega" else 33):
                jet = spin.violate_jet(spin.random_donaldson_jet(rng), which, rng)
                total += 1
                if not is_zero_matrix(spin.curvature_sum(jet, model)):
                    nonzero += 1
        _expect(total == 100 and nonzero >= 95,
                f"only {nonzero}/100 violations detected")
        return f"nonzero in {nonzero}/100"

    _run(checks, "spin.curvature.negative_controls",
         "violating a single structure constraint makes the curvature sum "
         "nonzero in at least 95 of 100 jets", check_negative_controls)
    return checks


_RUNNERS = {"excalc": run_excalc, "g2lin": run_g2lin, "hk": run_hk, "spin": run_spin}


def run_suite(suite: str, seed: int, corrupt: str | None = None) -> list[Report]:
    """Run one named suite or 'all'; returns one report per module suite."""
    if suite == "all":
        names = list(SUITES)
    elif suite in _RUNNERS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(SUITES)} or all")
    out = []
    for name in names:
        report = Report(name, seed)
        report.checks = _RUNNERS[name](seed, corrupt=corrupt)
        out.append(report)
    return out
