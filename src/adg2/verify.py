"""Identity-verification suites with machine-readable reports.

Each suite re-derives the pointwise identities of its module with a seeded
generator and reports one row per check: an id that names the operation or
invariant, a self-contained statement of the law being checked, pass/fail,
and the worst residual (exact-arithmetic suites report "0" or the exact
nonzero value as a string).  Reports are deterministic given the seed,
except for runtime_ms, which can be zeroed for byte-stable output.

Each row is the one body of its law: the unit tests do not re-check these
laws under other seeds, and Tier-1 asserts every row, by id, in
tests/test_verify.py.  Where a law is multilinear, the row proves it on a
basis and keeps its random draws as a cross-check.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product

# the worked metric variation of the hk suite
_WORKED_G_DOT = tuple(tuple(Fraction(x) for x in row) for row in
                      ((0, 0, -1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, 1, 0, 0)))
# the largest degree of a random polynomial coefficient
_MAX_POLY_DEG = 2
# the drawn rationals Fraction(n, d), -4 <= n <= 4 and 1 <= d <= 3, keyed by
# (n, d): a draw reads Fraction(rng.randint(lo, hi), rng.randint(1, q)) as
# _RATIONALS[rng.randint(lo, hi), rng.randint(1, q)], the same randint calls
# in the same order, and builds no Fraction
_RATIONALS = {(n, d): Fraction(n, d) for n in range(-4, 5) for d in range(1, 4)}


class SuiteRandom(random.Random):
    """The suites' generator: its randint and randrange, on the int bounds
    of a nonempty range, replay random.Random's rejection loop on
    getrandbits (_randbelow_with_getrandbits), so every value and every
    stream is random.Random's, without the checks of randrange."""

    def randrange(self, start, stop=None):
        return self.randint(0, start - 1) if stop is None else self.randint(start, stop - 1)

    def randint(self, a, b):
        if (n := b - a + 1) <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        while (r := self.getrandbits(k)) >= n:
            pass
        return a + r


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


@cache
def _form_keys(degree):
    """The (I, J) keys of a degree-form, I of base axes and J of fibre axes,
    in the order _random_form draws from."""
    return tuple((big_i, big_j) for p in range(min(degree, 3) + 1) if degree - p <= 4
                 for big_i in combinations(range(3), p)
                 for big_j in combinations(range(3, 7), degree - p))


def _random_form(rng, degree, max_poly_deg=_MAX_POLY_DEG, nterms=3):
    from .excalc import BigradedForm, Poly

    keys = _form_keys(degree)
    out = BigradedForm(degree)
    for _ in range(nterms):
        big_i, big_j = keys[rng.randrange(len(keys))]
        exp = [0] * 7
        for _ in range(rng.randint(0, max_poly_deg)):
            exp[rng.randrange(7)] += 1
        coeff = _RATIONALS[rng.randint(-4, 4), rng.randint(1, 3)]
        out.add_term(big_i, big_j, Poly({tuple(exp): coeff}))
    return out


def _random_distribution(rng):
    from .excalc import HorizontalDistribution, Poly

    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(3)
        a = rng.randrange(3, 7)
        exp = [0] * 7
        for _ in range(rng.randint(0, _MAX_POLY_DEG)):
            exp[rng.randrange(7)] += 1
        coeffs[(i, a)] = Poly({tuple(exp): _RATIONALS[rng.randint(-3, 3), 1]})
    return HorizontalDistribution(coeffs)


def _random_vec(rng):
    """A random Vector7 of g2lin, each entry the Fraction of rng.randint(-3, 3)
    over rng.randint(1, 3), read from _RATIONALS."""
    from .g2lin import vec

    r = rng.randint
    return vec([_RATIONALS[r(-3, 3), r(1, 3)] for _ in range(7)])


def run_excalc(seed: int, corrupt: str | None = None) -> list:
    from .excalc import (BigradedForm, FibrationData, curvature_term,
                         donaldson_residuals, exterior_d, from_coordinate_frame,
                         residuals_all_zero, split_d, star4, to_coordinate_frame)

    rng = SuiteRandom(seed)
    checks: list = []

    def check_split_sum():
        for _ in range(20):
            h = _random_distribution(rng)
            a = _random_form(rng, rng.randint(0, 3))
            df, dh, fh = split_d(a, h)
            want = from_coordinate_frame(exterior_d(to_coordinate_frame(a, h)), h)
            _expect(df + dh + fh == want, "split parts do not sum to d")
        return "0"

    _run(checks, "excalc.split_d.sum", "d_f + d_H + F_H equals d exactly",
         check_split_sum)

    def check_df_squared():
        for _ in range(15):
            h = _random_distribution(rng)
            a = _random_form(rng, rng.randint(0, 3))
            df, _, _ = split_d(a, h)
            df2, _, _ = split_d(df, h)
            _expect(df2.is_zero(), "d_f^2 != 0")
        return "0"

    _run(checks, "excalc.split_d.df_squared", "the fibre part of d squares to zero",
         check_df_squared)

    def check_fh_curvature():
        from .excalc import HorizontalDistribution, Poly

        flat = curved = 0
        for _ in range(40):
            if rng.random() < 0.5:
                # gradient lifts H_i^a = d(phi_a)/dt_i of phi_a(t): zero curvature
                coeffs = {}
                for a in (3, 4):
                    phi = Poly({exp: Fraction(rng.randint(-3, 3))
                                for exp in ((1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0),
                                            (1, 1, 0, 0, 0, 0, 0))})
                    for i in range(3):
                        coeffs[(i, a)] = phi.diff(i)
                h = HorizontalDistribution(coeffs)
            else:
                h = _random_distribution(rng)
            curv_zero = all(k.is_zero() for k in h.curvature().values())
            # the coframe covectors are the sharpest probes; random forms of
            # degrees 0-2 probe the rest
            probes = [BigradedForm.monomial((), (a,)) for a in range(3, 7)]
            probes += [_random_form(rng, deg) for deg in (0, 1, 2) for _ in range(4)]
            fh_zero = all(curvature_term(a, h).is_zero() for a in probes)
            _expect(fh_zero == curv_zero, "F_H does not track the curvature")
            flat += curv_zero
            curved += not curv_zero
        _expect(flat > 0 and curved > 0, "sampling failed to cover both cases")
        return "0"

    _run(checks, "excalc.split_d.fh_iff_curvature",
         "F_H vanishes on all forms iff the distribution has zero curvature",
         check_fh_curvature)

    def check_star4():
        # the star acts term by term, so the unit fibre monomials prove the law
        for k in range(5):
            for big_j in combinations(range(3, 7), k):
                a = BigradedForm.monomial((), big_j)
                _expect(star4(star4(a)) == a.scale((-1) ** k),
                        f"star4^2 != (-1)^{k} on {big_j}")
        for _ in range(10):
            a = _random_form(rng, 1).component(0, 1)
            _expect(star4(star4(a)) == -a, "star4^2 != -1 on 1-forms")
            b = _random_form(rng, 2).component(0, 2)
            _expect(star4(star4(b)) == b, "star4^2 != +1 on 2-forms")
        return "0"

    _run(checks, "excalc.hodge.star4_involution",
         "the fibre star squares to (-1)^k on fibre k-forms: proved on the 16 "
         "unit fibre monomials of degrees 0-4, cross-checked on 10 random "
         "1-forms and 10 random 2-forms", check_star4)

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
    from . import hk
    from .excalc import contract, star7
    from .g2lin import G2Model, basis_vector, chi, cross, vertical_part

    rng = SuiteRandom(seed)
    checks: list = []
    t1, t2, t3, x1, x2, x3, x4 = range(7)
    e = [basis_vector(k) for k in range(7)]
    zero = (Fraction(0),) * 7
    triples = list(combinations(range(7), 3))  # the 35 sorted basis triples

    def n_vertical(triple):
        return sum(i >= x1 for i in triple)

    def check_identity():
        # both sides are multilinear and alternating in (x, y, z) and linear
        # in w, so the sorted basis triples against the basis prove the law;
        # chi contracts psi = Theta + eps mu, so this proves
        # star phi_eps = eps psi against the independent star7
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            m = G2Model(eps)
            sphi = star7(m.phi(), eps)

            def holds(x, y, z):
                # star phi(x, y, z, e_k) is the (k,) coefficient of the one
                # contraction i_z i_y i_x star phi, and g_eps(chi, e_k) is
                # chi's k-th coordinate, times eps on the vertical slots
                c = chi(x, y, z, m)
                rhs = contract(sphi, [x, y, z])
                return all((c[k] if k < x1 else eps * c[k]) == rhs.get((k,), 0)
                           for k in range(7))

            for i, j, k in triples:
                _expect(holds(e[i], e[j], e[k]),
                        f"defining identity failed on e{i}, e{j}, e{k} at eps={eps}")
            for _ in range(67):
                _expect(holds(_random_vec(rng), _random_vec(rng), _random_vec(rng)),
                        f"defining identity failed at eps={eps}")
        return "0"

    _run(checks, "g2lin.chi.defining_identity",
         "metric pairing of chi equals the structure 4-form at eps 1, 1/2 and "
         "1/7: proved on the 35 basis triples, cross-checked on 201 random "
         "triples", check_identity)

    def check_scaling():
        m1 = G2Model(1)
        chi1 = {t: chi(*(e[i] for i in t), m1) for t in triples}
        for eps in (Fraction(1, 2), Fraction(1, 5)):
            meps = G2Model(eps)
            for triple in triples:
                nv = n_vertical(triple)
                factor = eps if nv >= 2 else nv  # 1: eps-free, 0: zero
                _expect(chi(*(e[i] for i in triple), meps)
                        == tuple(factor * v for v in chi1[triple]),
                        f"case table fails on {triple} at eps={eps}")
            for _ in range(10):
                xs = [vertical_part(_random_vec(rng)) for _ in range(3)]
                ce = chi(*xs, meps)
                c1 = chi(*xs, m1)
                _expect(ce == tuple(eps * v for v in c1), "three-vertical scaling")
            for _ in range(10):
                x = vertical_part(_random_vec(rng))
                _expect(chi(x, e[t2], e[t3], meps) == chi(x, e[t2], e[t3], m1),
                        "one-vertical case must be scale-free")
        return "0"

    _run(checks, "g2lin.chi.scaling_case_table",
         "chi scales by eps with >=2 vertical slots, is eps-free with one, "
         "and vanishes on horizontal triples, at eps 1/2 and 1/5: proved on "
         "the 35 basis triples, cross-checked on 40 random triples", check_scaling)

    def check_cross():
        m = G2Model(1)
        _expect(cross(e[x1], e[x2], m) == e[t1], "x1 x x2 != t1")
        _expect(cross(e[t1], e[t2], m) == tuple(-c for c in e[t3]), "t1 x t2 != -t3")
        return "0"

    _run(checks, "g2lin.cross.reference_values",
         "the cross product reproduces the split-model reference values",
         check_cross)

    def check_limit():
        m0 = G2Model(0)
        ivec = hk.complex_structure_matrices(hk.HKTriple.standard())
        for _ in range(10):
            x = vertical_part(_random_vec(rng))
            got = chi(x, e[t2], e[t3], m0)
            want = tuple(-sum(ivec[0][a][b] * x[3 + b] for b in range(4))
                         for a in range(4))
            _expect(got[:3] == zero[:3] and got[3:] == want, "limit of chi is not -I_1 x")
        _expect(chi(e[x1], e[t2], e[t3], m0) == tuple(-c for c in e[x2]),
                "limit chi(x1, t2, t3) != -x2")
        m1 = G2Model(1)
        for triple in triples:
            args = [e[i] for i in triple]
            want = chi(*args, m1) if n_vertical(triple) == 1 else zero
            _expect(chi(*args, m0) == want, f"limit chi fails the case table on {triple}")
        return "0"

    _run(checks, "g2lin.chi.formal_limit",
         "chi at eps 0 equals chi at eps 1 on one vertical and two horizontal "
         "slots, where it is -I_1 x, and vanishes on every other count: the "
         "case table proved on the 35 basis triples, -I_1 x on 10 random "
         "vertical x", check_limit)
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
    checked through one exact.LinearMap per ivec (_cyclic_map): the 64
    entries of (w1, w2, w3, g_dot) to the 16 entries of lhs - rhs of each
    family.
    """
    out = _cyclic_map(tuple(tuple(map(tuple, m)) for m in ivec))(
        [e for m in (*v.omega_dot, g_dot) for row in m for e in row])
    return [f + 1 for f in range(4) if any(out[16 * f:16 * f + 16])]


@cache
def _cyclic_map(ivec: tuple):
    """lhs - rhs of the four cyclic families as one map, from the I tables:
    input block 0..2 is w1..w3 and block 3 is g_dot, each row-major, and
    output block f is family f + 1, row-major.  A term s * M X of family f
    puts s * M[a][c] at output (f, a, b) of input (X, c, b)."""
    from .exact import LinearMap, eye

    one = eye(4, field=Fraction)
    it = [tuple(zip(*m)) for m in ivec]
    terms = [[(3, one, 1)] + [(j, it[j], 1) for j in range(3)]]
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        terms.append([(3, it[k], 1), (k, one, -1), (k1, it[k2], -1), (k2, it[k1], 1)])
    cols = [[0] * 64 for _ in range(64)]
    for f, family in enumerate(terms):
        for x, m, s in family:
            for a, c, b in product(range(4), repeat=3):
                cols[16 * x + 4 * c + b][16 * f + 4 * a + b] += s * m[a][c]
    return LinearMap.from_columns(cols)


def run_hk(seed: int, corrupt: str | None = None) -> list:
    from . import hk
    from .exact import is_zero_matrix

    rng = SuiteRandom(seed)
    checks: list = []
    std = hk.HKTriple.standard()
    ivec = [list(map(list, m)) for m in hk.complex_structure_matrices(std)]
    if corrupt == "i2_sign":
        ivec[1] = [[-x for x in row] for row in ivec[1]]
    ivec = tuple(tuple(tuple(row) for row in m) for m in ivec)

    def rand_asd():
        return hk.asd_form(*(_RATIONALS[rng.randint(-4, 4), rng.randint(1, 3)]
                             for _ in range(3)))

    # the 9 unit anti-self-dual variations (w_m = eta_j, the other two zero)
    # prove the cyclic and roundtrip laws, which are linear in them
    zero = hk.form2({})
    units = [hk.TripleVariation.of(*(eta if n == m else zero for n in range(3)))
             for m, eta in product(range(3), hk.ASD_BASIS)]

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
        mv = hk.metric_variation(std, hk.TripleVariation.of(zero, zero, eta))
        _expect(mv.g_dot == _WORKED_G_DOT and mv.mu_dot == 0,
                "worked metric variation")
        back = hk.recover_form_variation(std, mv.g_dot)
        _expect(is_zero_matrix(back[0]) and is_zero_matrix(back[1]) and back[2] == eta,
                "worked inverse variation")
        return "0"

    _run(checks, "hk.metric_variation.worked_example",
         "the reference anti-self-dual variation maps to the reference metric "
         "variation and back", check_example)

    def check_cyclic():
        # a family fails on the span iff it fails on a unit variation
        failing = set()
        for v in units:
            failing.update(failing_cyclic_families(ivec, v, hk.metric_variation(std, v).g_dot))
        _expect(not failing, f"cyclic families {sorted(failing)} fail")
        for _ in range(100):
            v = hk.TripleVariation.of(*(rand_asd() for _ in range(3)))
            failing = failing_cyclic_families(ivec, v, hk.metric_variation(std, v).g_dot)
            _expect(not failing, f"cyclic families {failing} fail")
        return "0"

    _run(checks, "hk.variation.cyclic_symmetry",
         "the four cyclic identities tie the metric variation to the form "
         "variations: proved on the 9 unit anti-self-dual variations, "
         "cross-checked on 100 random anti-self-dual inputs", check_cyclic)

    def check_roundtrip():
        drawn = (hk.TripleVariation.of(*(rand_asd() for _ in range(3))) for _ in range(100))
        for v in chain(units, drawn):
            back = hk.recover_form_variation(std, hk.metric_variation(std, v).g_dot)
            _expect(back == v.omega_dot, "roundtrip failed")
        return "0"

    _run(checks, "hk.recover_form_variation.roundtrip",
         "metric variation and its inverse compose to the identity on "
         "anti-self-dual variations: proved on the 9 unit anti-self-dual "
         "variations, cross-checked on 100 random ones", check_roundtrip)

    def check_clifford():
        from .spin import build_spinor_model

        model = build_spinor_model()
        got = hk.clifford_of_variation(std, _WORKED_G_DOT, 2, model)
        from .exact import QQi, mscale

        _expect(got == mscale(QQi(2), model.cc_minus[0][1]),
                "worked Clifford action is not 2 c1 c2")
        _expect(got == model.c_form2_minus(hk.form2({(0, 1): 1, (2, 3): -1})),
                "worked Clifford action is not that of dx1 dx2 - dx3 dx4")
        for k in (0, 1):
            out = hk.clifford_of_variation(std, _WORKED_G_DOT, k, model)
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
    from .exact import is_zero_matrix

    rng = SuiteRandom(seed)
    checks: list = []
    model = spin.build_spinor_model(corrupt=corrupt)

    # ConventionError is an AssertionError: a failed proof fails its row
    def check_clifford():
        spin.verify_conventions(model)
        return "0"

    _run(checks, "spin.build.clifford_relations",
         "the frozen spinor conventions hold, proved on the 2x2 tables: base "
         "triple product minus one, quaternion relations on S+, the vertical "
         "and horizontal module anticommutators at every fibre scale, "
         "chirality and volume actions, c(Theta) = c(omega)", check_clifford)

    def check_spectrum():
        spin.c_omega_decomposition(model)
        return "0"

    _run(checks, "spin.c_omega.spectrum",
         "the structure-form action on positive spinors has eigenvalues -6 "
         "(simple) and 2 (triple)", check_spectrum)

    def check_phi():
        for sign in (1, -1):
            spin.canonical_phi(model, sign)
        return "0"

    _run(checks, "spin.canonical_phi.intertwining",
         "both unit real sections are unitary, preserve the complex volume "
         "forms and intertwine the fibre and base quaternion actions", check_phi)

    def check_cancellations():
        # the symbol is linear in the jet, so the unit jets prove the law; the
        # draws run first, where a corrupted model fails the zeroth part
        drawn = (spin.random_donaldson_jet(rng) for _ in range(100))
        for jet in chain(drawn, spin.constraint_basis_jets()):
            zeroth, first = spin.dirac_variation_symbol(jet, model)
            _expect(is_zero_matrix(zeroth), "curvature cancellation failed")
            _expect(all(is_zero_matrix(c) for c in first),
                    "Dirac-variation cancellation failed")
        return "0"

    _run(checks, "spin.curvature.cancellation",
         "the Dirac-variation symbol, zeroth part (minus the paired curvature "
         "operators) and first-order part, vanishes exactly on compatible jets: "
         "proved on the 75 unit jets of the constraint subspace, cross-checked "
         "on 100 random ones", check_cancellations)

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
SUITES = tuple(_RUNNERS)


def run_suite(suite: str, seed: int, corrupt: str | None = None) -> list[Report]:
    """Run one named suite or 'all'; returns one report per module suite."""
    if suite == "all":
        names = list(SUITES)
    elif suite in _RUNNERS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(SUITES)} or all")
    from .spin import check_corruption

    check_corruption(corrupt)
    out = []
    for name in names:
        report = Report(name, seed)
        report.checks = _RUNNERS[name](seed, corrupt=corrupt)
        out.append(report)
    return out
