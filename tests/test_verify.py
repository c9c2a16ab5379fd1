import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import adg2
from adg2 import exact, spin, verify

SEED = 5

# The rows are pinned as (id, status, max_residual), recorded at seed 5
# before the spinor maps were composed with the metric variation, so that a
# refactor of the exact half that changes a result fails here.  The ids are
# pinned too: benchmarks/tracing.py names a verify.check.<id>.ms metric after
# each, so a renamed or dropped row must fail here.
PINNED_ROWS = (
    ("excalc.split_d.sum", "pass", "0"),
    ("excalc.split_d.df_squared", "pass", "0"),
    ("excalc.split_d.fh_iff_curvature", "pass", "0"),
    ("excalc.hodge.star4_involution", "pass", "0"),
    ("excalc.donaldson_residuals.product", "pass", "0"),
    ("g2lin.chi.defining_identity", "pass", "0"),
    ("g2lin.chi.scaling_case_table", "pass", "0"),
    ("g2lin.cross.reference_values", "pass", "0"),
    ("g2lin.chi.formal_limit", "pass", "0"),
    ("hk.metric_from_triple.standard", "pass", "0"),
    ("hk.metric_variation.worked_example", "pass", "0"),
    ("hk.variation.cyclic_symmetry", "pass", "0"),
    ("hk.recover_form_variation.roundtrip", "pass", "0"),
    ("hk.clifford_of_variation.worked_example", "pass", "0"),
    ("spin.build.clifford_relations", "pass", "0"),
    ("spin.c_omega.spectrum", "pass", "0"),
    ("spin.canonical_phi.intertwining", "pass", "0"),
    ("spin.curvature.cancellation", "pass", "0"),
    ("spin.curvature.negative_controls", "pass", "nonzero in 100/100"),
)
CHECK_IDS = tuple(check_id for check_id, _, _ in PINNED_ROWS)

# the failing rows of each control suite under corrupt="i2_sign" at seed 5,
# recorded with PINNED_ROWS
FAILING_UNDER_I2_SIGN = {
    "hk": (("hk.variation.cyclic_symmetry", "fail", "cyclic families [1, 2, 3, 4] fail"),),
    "spin": (("spin.build.clifford_relations", "fail", "i_sp squares"),
             ("spin.c_omega.spectrum", "fail", "spectrum multiplicities wrong: 0 and 0"),
             ("spin.canonical_phi.intertwining", "fail",
              "spectrum multiplicities wrong: 0 and 0"),
             ("spin.curvature.cancellation", "fail", "curvature cancellation failed")),
}

# the row of each control suite that corrupt="i2_sign" must break
BROKEN_BY_I2_SIGN = {"hk": "hk.variation.cyclic_symmetry",
                     "spin": "spin.build.clifford_relations"}


def test_rows_are_the_pinned_laws(reports):
    assert [r.suite for r in reports] == list(verify.SUITES)
    assert all(r.seed == SEED for r in reports)
    assert tuple((c.id, c.status, c.max_residual)
                 for r in reports for c in r.checks) == PINNED_ROWS


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_law_holds(law, check_id):
    law(check_id)


def test_conventions_are_proved_once_per_spin_run(verify_run):
    # with a warm model cache the spin suite's convention row is the only
    # caller of the proof
    _, proofs = verify_run
    assert len(proofs) == 1 and proofs[0] is spin.build_spinor_model()


def test_report_json_is_stable_without_timing(reports):
    doc = json.loads(reports[0].dumps(timing=False))
    assert doc["suite"] == "excalc" and doc["seed"] == SEED and doc["passed"]
    assert all(c["runtime_ms"] == 0 for c in doc["checks"])
    again = verify.run_suite("excalc", SEED)[0]
    assert again.dumps(timing=False) == reports[0].dumps(timing=False)


@pytest.mark.parametrize("suite", ["hk", "spin"])
def test_corrupted_model_fails_the_suite(suite):
    (report,) = verify.run_suite(suite, SEED, corrupt="i2_sign")
    assert report.suite == suite
    assert not report.passed
    status = {c.id: c.status for c in report.checks}
    assert status[BROKEN_BY_I2_SIGN[suite]] == "fail"
    assert tuple((c.id, c.status, c.max_residual) for c in report.checks
                 if c.status == "fail") == FAILING_UNDER_I2_SIGN[suite]


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope", SEED)


def test_misspelt_corruption_is_rejected():
    with pytest.raises(ValueError, match="'i2_sign'"):
        verify.run_suite("spin", SEED, corrupt="i2-sign")


def test_g2lin_suite_contraction_count(monkeypatch):
    # one contraction per chi, at every eps, and one per defining-identity
    # triple for its right-hand side: 2 x 3 eps x 102 triples = 612 in that
    # row; the case table's 35 basis chi at eps 1, then per eps 35 basis and
    # 2 x 2 x 10 random chi, 35 + 2 x 75 = 185; 2 cross products; the limit
    # row's 10 + 1 chi at eps 0, 35 basis chi at eps 0 and the 12 of one
    # vertical slot at eps 1, 58.  612 + 185 + 2 + 58 = 857 (the right-hand
    # side once took 7 per triple, 2,600 in all, and a chi at eps 0 three)
    from adg2 import excalc, g2lin
    from adg2.excalc import forms

    calls = []
    original = forms.contract

    def counted(a, vectors):
        calls.append(len(vectors))
        return original(a, vectors)

    for module in (forms, excalc, g2lin):
        monkeypatch.setattr(module, "contract", counted)
    (report,) = verify.run_suite("g2lin", SEED)
    assert report.passed
    assert len(calls) == 857


def test_excalc_suite_builds_one_curvature_per_distribution(monkeypatch):
    # each split_d call once built the curvature again: the fh_iff_curvature
    # row alone built 645 for its 40 distributions.  Now every non-flat
    # distribution (72 at seed 5) is built once, and so is the one flat draw
    # whose curvature that row reads itself
    from adg2.excalc import HorizontalDistribution

    drawn, built = [], []
    init = HorizontalDistribution.__init__
    build = HorizontalDistribution._build_curvature
    monkeypatch.setattr(HorizontalDistribution, "__init__",
                        lambda self, *args: drawn.append(self) or init(self, *args))
    monkeypatch.setattr(HorizontalDistribution, "_build_curvature",
                        lambda self: built.append(self) or build(self))
    (report,) = verify.run_suite("excalc", SEED)
    assert report.passed
    curved = {id(h) for h in drawn if not h.is_flat()}
    assert len(built) == len({id(h) for h in built}) == 73
    assert len(curved) == 72 and curved <= {id(h) for h in built}


def test_g2lin_suite_makes_no_metric_pairing(monkeypatch):
    # g_eps(chi, e_k) is read off chi's coordinates (the defining-identity
    # row once made 2,142 metric_pair calls)
    from adg2.g2lin import G2Model

    calls = []
    original = G2Model.metric_pair
    monkeypatch.setattr(G2Model, "metric_pair",
                        lambda self, x, y: calls.append(1) or original(self, x, y))
    (report,) = verify.run_suite("g2lin", SEED)
    assert report.passed and calls == []


def test_jet_draws_scale_and_subtract_no_matrix(monkeypatch):
    # the trace-free slot is drawn on its three coefficients, so a jet
    # builds each slot's form once and no matrix is scaled or subtracted
    import random

    calls = []
    for name in ("mscale", "msub"):
        original = getattr(exact, name)

        def counted(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "adg2"
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    rng = random.Random(SEED)
    jets = [spin.random_donaldson_jet(rng) for _ in range(20)]
    assert all(jet.all_flags() for jet in jets) and calls == []


def stream_digest(draws):
    """SHA-256 over the (label, value) pairs of each draw, every value a
    Fraction, as label:numerator/denominator."""
    h = hashlib.sha256()
    for draw in draws:
        h.update(b"|")
        for label, x in draw:
            assert type(x) is Fraction
            h.update(f"{label}:{x.numerator}/{x.denominator};".encode())
    return h.hexdigest()


def poly_values(degree, polys):
    """The coefficients of a {key: Poly} mapping, each labelled by degree,
    key and exponent, in sorted order."""
    return [((degree, key, exp), polys[key].terms[exp])
            for key in sorted(polys) for exp in sorted(polys[key].terms)]


def test_random_streams_are_pinned():
    # recorded before the draws read their rationals from verify._RATIONALS
    # and _random_form added its terms in place: every form (degrees 0-7,
    # where repeated keys merge and cancel), distribution and g2lin vector,
    # and so every later draw of a generator, stays the same, drawn through
    # random.Random or the suites' SuiteRandom
    for draws in (random.Random, verify.SuiteRandom):
        rng = draws(0)
        forms = [verify._random_form(rng, degree) for degree in list(range(8)) * 25]
        rng = draws(0)
        distributions = [verify._random_distribution(rng) for _ in range(200)]
        rng = draws(0)
        vectors = [verify._random_vec(rng) for _ in range(300)]
        assert {
            "forms": stream_digest(poly_values(a.degree, a.terms) for a in forms),
            "distributions": stream_digest(poly_values(1, h.coeffs) for h in distributions),
            "vectors": stream_digest(enumerate(v) for v in vectors),
        } == {
            "forms": "c8d12ac983c021ac15246e9e7b5715bc0e3e2303a434b77159aac94004e3b6d3",
            "distributions": "fc168410dd6b4ccb43106d13c79150c442d2f9f35289b25bae253fffe7295173",
            "vectors": "ef06b92effbcaae488114f1b7ebc372a6226a77d72c28b2c5b86a03bc2a3a151",
        }, draws.__name__


# every (lo, hi) the suites pass to randint, plus a one-value range and one
# wider than 2^32, which takes more than one 32-bit word per draw
SUITE_RANDINT_BOUNDS = ((-6, 6), (1, 3), (-4, 4), (-3, 3), (0, 3), (0, 2), (1, 4),
                        (1, 5), (0, 0), (-2 ** 40, 2 ** 40 + 7))


@pytest.mark.parametrize("lo, hi", SUITE_RANDINT_BOUNDS)
def test_suite_randint_is_random_randint(lo, hi):
    # SuiteRandom replays random.Random's rejection loop on getrandbits, so
    # its values, and the generator state after them, are random.Random's
    for seed in range(50):
        ours, theirs = verify.SuiteRandom(seed), random.Random(seed)
        assert [ours.randint(lo, hi) for _ in range(40)] == \
            [theirs.randint(lo, hi) for _ in range(40)], seed
        assert ours.getstate() == theirs.getstate()


def test_suite_randrange_is_random_randrange():
    # the randrange forms of the suites, randrange(n) (n = 3, 7 and the 1 to
    # 35 keys of _random_form) and randrange(3, 7), interleaved with
    # random() and randint, as check_fh_curvature draws
    def stream(rng):
        return [(rng.randrange(3), rng.randrange(7), rng.randrange(3, 7),
                 rng.randrange(1), rng.randrange(35), rng.random(), rng.randint(-3, 3))
                for _ in range(40)]

    for seed in range(50):
        assert stream(verify.SuiteRandom(seed)) == stream(random.Random(seed)), seed


def test_suite_random_rejects_empty_ranges():
    rng = verify.SuiteRandom(0)
    for args in ((0,), (3, 3), (-1,)):
        with pytest.raises(ValueError):
            rng.randrange(*args)
    with pytest.raises(ValueError):
        rng.randint(2, 1)


def test_table_draws_build_no_fraction(fraction_calls):
    # a jet's coefficients are read from spin._ASD_DRAWS with their
    # negatives, so 20 jets negate nothing and build only the trace-free
    # slots' sums: 20 jets x 5 grids x 3 coefficients x 2 sums (c and -c) =
    # 600 (the draws once built 4,800 Fractions and negated 2,100: per jet,
    # 30 forms x 3 coefficients, and 5 trace-free slots x 3)
    rng = random.Random(SEED)
    jets = [spin.random_donaldson_jet(rng) for _ in range(20)]
    assert fraction_calls == {"new": 600}
    # the g2lin vectors and the random forms' coefficients come from
    # verify._RATIONALS and are kept as they are (a vector once built 14
    # Fractions, 7 of them from Fractions)
    fraction_calls.clear()
    vectors = [verify._random_vec(rng) for _ in range(20)]
    forms = [verify._random_form(rng, 2) for _ in range(20)]
    assert not fraction_calls
    assert all(jet.all_flags() for jet in jets)
    assert all(len(v) == 7 for v in vectors) and all(a.degree == 2 for a in forms)


def test_random_forms_add_in_place(monkeypatch):
    # each drawn term is added into one form: no form is added to another
    # (50 draws of 3 terms once made 150 BigradedForm.__add__ calls)
    from adg2.excalc import BigradedForm

    calls = []
    add = BigradedForm.__add__
    monkeypatch.setattr(BigradedForm, "__add__",
                        lambda a, b: calls.append(1) or add(a, b))
    rng = random.Random(SEED)
    forms = [verify._random_form(rng, degree) for degree in list(range(5)) * 10]
    assert calls == [] and any(not a.is_zero() for a in forms)


def test_form_keys_are_built_once_in_draw_order():
    # the (I, J) keys of the bigraded degree-k forms, C(7, k) of them, in the
    # (|I|, I, J) order that the pinned streams draw from, one tuple a degree
    for degree in range(5):
        keys = verify._form_keys(degree)
        assert keys is verify._form_keys(degree)
        assert len(set(keys)) == len(keys) == math.comb(7, degree)
        assert list(keys) == sorted(keys, key=lambda key: (len(key[0]), key))


def test_linear_rows_prove_on_a_basis(monkeypatch):
    # 16 + 20 double stars, 9 + 100 roundtrips and the worked example's
    # inverse, 75 + 100 symbols: each row runs its basis and its draws
    from adg2 import excalc, hk

    calls = Counter()
    for module, name in ((excalc, "star4"), (hk, "recover_form_variation"),
                         (spin, "dirac_variation_symbol")):
        monkeypatch.setattr(module, name, lambda *args, _f=getattr(module, name), _n=name:
                            calls.update([_n]) or _f(*args))
    assert all(verify.run_suite(s, SEED)[0].passed for s in ("excalc", "hk", "spin"))
    assert calls == {"star4": 2 * (16 + 20), "recover_form_variation": 1 + 9 + 100,
                     "dirac_variation_symbol": 75 + 100}


def test_corrupted_spin_maps_build_in_50_ms():
    # build_spinor_model(corrupt=...) makes a fresh model, whose maps are
    # built again, on every call; the best of three builds is timed
    best = float("inf")
    for _ in range(3):
        model = spin.build_spinor_model(corrupt="i2_sign")
        t0 = time.perf_counter()
        model._curvature_sum_map, model._dirac_first_map
        best = min(best, time.perf_counter() - t0)
    assert best <= 0.050


def test_warm_hk_suite_makes_no_matrix_product(monkeypatch):
    # the cyclic families run through one cached map, so a warm hk suite
    # multiplies no matrices (its cyclic row once made 1,200 exact.mmul calls)
    verify.run_suite("hk", SEED)
    calls = []
    original = exact.mmul

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "adg2" and getattr(module, "mmul", None) is original:
            monkeypatch.setattr(module, "mmul", counted)
    (report,) = verify.run_suite("hk", SEED)
    assert report.passed and calls == []


def test_no_exact_map_is_built_at_import():
    code = ("from adg2 import exact\n"
            "built = []\n"
            "init = exact.LinearMap.__init__\n"
            "exact.LinearMap.__init__ = lambda self, *a: built.append(a) or init(self, *a)\n"
            "import adg2.cli, adg2.excalc, adg2.fueter, adg2.g2lin, adg2.gauge, "
            "adg2.hk, adg2.maxsec, adg2.spin, adg2.verify\n"
            "assert built == [], f'{len(built)} maps built at import'\n")
    src = str(Path(adg2.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
