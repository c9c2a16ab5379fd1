import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import product

import pytest

from adg2 import exact, hk, spin, verify
from adg2.exact import (QQi, dagger, eye, is_zero_matrix, madd, mat_apply,
                        mchain, mmul, mscale)

F = Fraction


@pytest.fixture(scope="module")
def model():
    return spin.build_spinor_model()


@pytest.fixture(scope="module")
def bad_model():
    return spin.build_spinor_model(corrupt="i2_sign")


def reference_metric_slots(jet):
    """(g0, g1): the metric variation of each zeroth-order slot v[k] and of
    each derivative slot (w[k][0][i], w[k][1][i], w[k][2][i]), one
    hk.metric_variation call per slot, outside the model's composed maps."""
    std = hk.HKTriple.standard()
    g0 = [hk.metric_variation(std, hk.TripleVariation.of(*jet.v[k])).g_dot
          for k in range(3)]
    g1 = [[hk.metric_variation(
        std, hk.TripleVariation.of(*(jet.w[k][m][i] for m in range(3)))).g_dot
        for i in range(4)] for k in range(3)]
    return g0, g1


def reference_curvature_operators(jet, model):
    """R~_1..3 by the (l, i, j) loop that the curvature-sum map composes."""
    _, g1 = reference_metric_slots(jet)
    out = []
    for k in range(3):
        rk = [[QQi(0), QQi(0)], [QQi(0), QQi(0)]]
        for l, i, j in product(range(4), repeat=3):
            coeff = g1[k][i][l][j] - g1[k][j][l][i]
            if not coeff:
                continue
            q = QQi(-coeff / 8)
            term = model.ccc[l][i][j]
            for r in range(2):
                for c in range(2):
                    rk[r][c] = rk[r][c] + q * term[r][c]
        out.append(tuple(map(tuple, rk)))
    return tuple(out)


def reference_dirac_first_part(g0, model):
    """The (k, j) loop the first-order map replaces: coefficient i is
    -(1/2) sum_k I_k^{S+} sum_j g0[k][i][j] c(e_j)."""
    out = []
    for i in range(4):
        ci = ((QQi(0), QQi(0)), (QQi(0), QQi(0)))
        for k in range(3):
            inner = ((QQi(0), QQi(0)), (QQi(0), QQi(0)))
            for j in range(4):
                inner = madd(inner, mscale(QQi(g0[k][i][j]), model.mp[j]))
            ci = madd(ci, mmul(model.i_sp[k], inner))
        out.append(mscale(QQi(F(-1, 2)), ci))
    return tuple(out)


def sample_jets(seed, n):
    """n compatible jets, each followed by one that violates a constraint."""
    rng = random.Random(seed)
    for t in range(n):
        jet = spin.random_donaldson_jet(rng)
        yield jet
        yield spin.violate_jet(jet, ("d_H_omega", "d_H_mu", "d_H_Theta")[t % 3], rng)


def jet_forms(jet):
    """The 45 fibre forms of a jet: v's nine, then w's 36."""
    return [f for vk in jet.v for f in vk] + [f for wk in jet.w for fs in wk for f in fs]


class TestBuild:
    # the Clifford and quaternion relations are proved by
    # spin.verify_conventions, the body of the row spin.build.clifford_relations

    def test_vertical_anticommutator_offdiag(self, law):
        law("spin.build.clifford_relations")

    def test_mixed_anticommutator_zero(self, law):
        law("spin.build.clifford_relations")

    def test_i_squares_minus_one(self, law):
        law("spin.build.clifford_relations")

    def test_eps_scaled_vertical_relation(self, law):
        law("spin.build.clifford_relations")

    def test_corrupt_hook_breaks_quaternions(self):
        bad = spin.build_spinor_model(corrupt="i2_sign")
        ok = (mmul(bad.i_sp[0], bad.i_sp[1]) == bad.i_sp[2])
        assert not ok

    def test_misspelt_corruption_is_rejected(self):
        with pytest.raises(ValueError, match="'i2_sign'"):
            spin.build_spinor_model(corrupt="i2-sign")

    # one corruption of the 2x2 tables per relation that the proof can reach
    # first: the mixed relation holds for any tables, and the volume relation
    # follows from the earlier ones on every entry corruption tried
    Q = spin.Q_UNITS

    @pytest.mark.parametrize("table, entries, message", [
        ("cb", (mscale(QQi(-1), Q[1]), Q[2], Q[3]), "base volume convention failed"),
        ("mp", (Q[0], Q[1], mscale(QQi(-1), Q[2]), Q[3]), "i_sp squares"),
        ("mp", (Q[0], Q[1], Q[2], mscale(QQi(0, 1), Q[3])), "vertical Clifford relation"),
        ("pm", (Q[0], Q[1], Q[2], Q[3]), "vertical Clifford relation"),
        # c_B(dt_1) = c_B(dt_2) keeps the base triple product at -1
        ("cb", (Q[1], Q[1], eye(2)), "horizontal Clifford relation")],
        ids=["base_volume", "i_sp_squares", "vertical_mp", "vertical_pm",
             "horizontal"])
    def test_corrupted_tables_fail_their_relation(self, model, table, entries, message):
        tables = {"mp": model.mp, "pm": model.pm, "cb": model.cb, table: entries}
        with pytest.raises(spin.ConventionError, match=message):
            spin.verify_conventions(spin._from_tables(**tables))


class TestModelCache:
    def test_verified_model_is_shared(self):
        first = spin.build_spinor_model()
        bad = spin.build_spinor_model(corrupt="i2_sign")
        assert spin.build_spinor_model() is first
        assert bad is not first and spin.build_spinor_model(corrupt="i2_sign") is not bad
        assert first.mp == spin._assemble(None).mp and bad.mp != first.mp

    def test_conventions_are_proved_once(self, monkeypatch):
        proofs = []
        original = spin.verify_conventions
        monkeypatch.setattr(spin, "verify_conventions",
                            lambda m: proofs.append(m) or original(m))
        # a cold cache, so that the first build below is a real one
        monkeypatch.setattr(spin, "_verified_model",
                            cache(spin._verified_model.__wrapped__))
        models = [spin.build_spinor_model() for _ in range(3)]
        spin.build_spinor_model(corrupt="i2_sign")
        assert len(proofs) == 1 and all(m is proofs[0] for m in models)

    def test_corrupted_model_keeps_its_own_tensor(self, model, bad_model):
        for name in ("_curvature_sum_map", "_dirac_first_map"):
            assert getattr(bad_model, name) != getattr(model, name)
            assert getattr(spin.build_spinor_model(), name) is getattr(model, name)
        nonzero = sum(not is_zero_matrix(spin.curvature_sum(jet, bad_model))
                      for jet in sample_jets(8, 10))
        assert nonzero == 20

    def test_maps_are_built_lazily_once_per_model(self, model):
        # the symbol builds the model's two maps, curvature sum and first order
        fresh = spin.build_spinor_model(corrupt="i2_sign")
        names = ("_curvature_sum_map", "_dirac_first_map")
        assert tuple(name for name, attr in vars(spin.SpinorModel).items()
                     if isinstance(attr, cached_property)) == names
        assert not any(name in vars(fresh) for name in names)
        jet = next(sample_jets(10, 1))
        spin.dirac_variation_symbol(jet, fresh)
        built = [vars(fresh)[name] for name in names]
        spin.dirac_variation_symbol(jet, fresh)
        assert all(getattr(fresh, name) is m for name, m in zip(names, built))
        assert all(getattr(model, name) != m for name, m in zip(names, built))

    def test_corrupted_maps_fail_the_spin_suite(self, model):
        clean = (model._curvature_sum_map, model._dirac_first_map)
        (report,) = verify.run_suite("spin", 8, corrupt="i2_sign")
        status = {c.id: c.status for c in report.checks}
        # the cancellation row runs on the corrupted model's own maps
        assert status["spin.curvature.cancellation"] == "fail"
        assert model._curvature_sum_map is clean[0] and model._dirac_first_map is clean[1]


class TestCompiledCurvature:
    def test_dirac_first_part_equals_the_loop(self, model, bad_model):
        for m in (model, bad_model):
            for jet in sample_jets(11, 6):
                g0, _ = reference_metric_slots(jet)
                _, got = spin.dirac_variation_symbol(jet, m)
                assert got == reference_dirac_first_part(g0, m)
                assert all(type(x.re) is F and type(x.im) is F
                           for c in got for row in c for x in row)

    def test_curvature_sum_equals_the_loop(self, model, bad_model):
        # the QQi loop sum_k I_k^{S+} R~_k over the (l, i, j) loop's R~_k,
        # against the model's one map, on compatible and violating jets and
        # on a jet of random 4x4 matrices
        def matrix():
            return tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
                         for _ in range(4))

        rng = random.Random(13)
        free = spin.AdiabaticJet(
            tuple(tuple(matrix() for _ in range(3)) for _ in range(3)),
            tuple(tuple(tuple(matrix() for _ in range(4)) for _ in range(3))
                  for _ in range(3)))
        for m in (model, bad_model):
            for jet in [*sample_jets(12, 6), free]:
                want = ((QQi(0), QQi(0)), (QQi(0), QQi(0)))
                for i_k, r_k in zip(m.i_sp, reference_curvature_operators(jet, m)):
                    want = madd(want, mmul(i_k, r_k))
                got = spin.curvature_sum(jet, m)
                assert got == want
                assert all(type(x.re) is F and type(x.im) is F for row in got for x in row)

    def test_dirac_zeroth_part_is_minus_the_curvature_sum(self, model, bad_model):
        for m in (model, bad_model):
            for jet in sample_jets(9, 6):
                z, _ = spin.dirac_variation_symbol(jet, m)
                assert z == mscale(QQi(-1), spin.curvature_sum(jet, m))
                rks = reference_curvature_operators(jet, m)
                assert z == mscale(QQi(-1), madd(madd(
                    mmul(m.i_sp[0], rks[0]), mmul(m.i_sp[1], rks[1])),
                    mmul(m.i_sp[2], rks[2])))


class TestOmegaDecomposition:
    def test_spectrum(self, law):
        law("spin.c_omega.spectrum")

    def test_eigenvectors(self, model):
        om = model.c_omega_block()
        dec = spin.c_omega_decomposition(model)
        for lam, vecs in dec.items():
            for v in vecs:
                got = mat_apply(om, v)
                want = tuple(QQi(lam) * c for c in v)
                assert got == want

    def test_c_omega_trivial_on_negative(self, model):
        # the action is defined block-diagonally; self-dual forms act as zero on S-
        for w in hk.STANDARD_TRIPLE:
            assert is_zero_matrix(model.c_form2_minus(w))

    def test_minus6_space_real_invariant(self, model):
        dec = spin.c_omega_decomposition(model)
        v = dec[-6][0]
        rv = spin.real_structure_fixed(v)
        # rv stays in the eigenspace: proportional to v
        ratios = {(-6): None}
        nz = next(i for i, c in enumerate(v) if bool(c))
        lam = rv[nz] / v[nz]
        assert all(rv[i] == lam * v[i] for i in range(4))


class TestCanonicalPhi:
    def test_intertwining_and_unitarity(self, law):
        law("spin.canonical_phi.intertwining")

    def test_two_real_choices_differ_by_sign(self, model):
        p1 = spin.canonical_phi(model, 1)
        p2 = spin.canonical_phi(model, -1)
        assert p1 == mscale(QQi(-1), p2)

    def test_downstream_sign_invariance(self, model):
        # transporting the S+ quaternion action through either sign of the
        # isomorphism gives the same base operators
        for sign in (1, -1):
            phi = spin.canonical_phi(model, sign)
            transported = [mchain(phi, model.i_sp[i], dagger(phi))
                           for i in range(3)]
            assert transported == list(model.cb)


class TestCurvature:
    def test_cancellation_on_donaldson_jets(self, law):
        law("spin.curvature.cancellation")

    def test_linearity_in_jet(self, model):
        rng = random.Random(2)
        j1 = spin.random_donaldson_jet(rng)
        j2 = spin.violate_jet(spin.zero_jet(), "d_H_Theta", rng)
        # sum of jets maps to sum of operators
        v = tuple(tuple(madd(j1.v[k][m], j2.v[k][m]) for m in range(3))
                  for k in range(3))
        w = tuple(tuple(tuple(madd(j1.w[k][m][i], j2.w[k][m][i]) for i in range(4))
                        for m in range(3)) for k in range(3))
        js = spin.AdiabaticJet(v, w)
        a = spin.curvature_sum(j1, model)
        b = spin.curvature_sum(j2, model)
        c = spin.curvature_sum(js, model)
        assert c == tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))

    def test_unit_jets_are_75_independent_compatible_jets(self):
        # the basis of the row spin.curvature.cancellation: each jet sets every
        # flag and has an entry no other jet has, so the 75 are independent and
        # span the constraint subspace (5 free slots x 3 ASD forms x 5 grids)
        supports = []
        for jet in spin.constraint_basis_jets():
            assert jet.all_flags()
            entries = [x for vk in jet.v for f in vk for row in f for x in row]
            supports.append({n for n, x in enumerate(entries + spin._w_entries(jet)) if x})
        count = Counter(n for support in supports for n in support)
        assert len(supports) == 75
        assert all(any(count[n] == 1 for n in support) for support in supports)

    def test_negative_controls(self):
        # the jet generators behind the rows spin.curvature.cancellation and
        # spin.curvature.negative_controls: a random jet sets every constraint
        # flag, and violate_jet clears the flag of the constraint it names
        rng = random.Random(3)
        for which, flag in (("d_H_omega", "d_H_omega_sym"), ("d_H_mu", "d_H_mu"),
                            ("d_H_Theta", "d_H_Theta")):
            for _ in range(34 if which == "d_H_omega" else 33):
                jet = spin.random_donaldson_jet(rng)
                assert jet.all_flags()
                assert not spin.violate_jet(jet, which, rng).flags()[flag]

    def test_jet_stream_is_pinned(self):
        # SHA-256 over each entry's (numerator, denominator), recorded before
        # random_donaldson_jet drew its trace-free slot on the coefficients:
        # every jet, and so every later draw of a generator, stays the same,
        # drawn through random.Random or the suites' verify.SuiteRandom
        def digest(jets):
            h = hashlib.sha256()
            for jet in jets:
                for x in entries((jet.v, jet.w)):
                    assert type(x) is Fraction
                    h.update(f"{x.numerator}/{x.denominator};".encode())
            return h.hexdigest()

        def entries(t):
            if isinstance(t, Fraction):
                yield t
            else:
                for s in t:
                    yield from entries(s)

        for draws in (random.Random, verify.SuiteRandom):
            rng = draws(0)
            got = {"jets": digest(spin.random_donaldson_jet(rng) for _ in range(300))}
            for which in ("d_H_omega", "d_H_mu", "d_H_Theta"):
                got[which] = digest(spin.violate_jet(spin.random_donaldson_jet(rng),
                                                     which, rng) for _ in range(33))
            assert got == {
                "jets": "b67c9067b383b00ed7268d8165a26c5f3aee626dc136f47d30815873b951db5f",
                "d_H_omega": "ddb985ba1be82e5674b98a71c07dfd8c2a960d4244a815c0f587907682c067cc",
                "d_H_mu": "bc992bdb1016b4729b7b112db7f543284b8ce562030cdb57d31b0d55be4b8121",
                "d_H_Theta": "bdb159200b4fba28a5eb46e352b47c6cb5c99d475a0c097d9e7498533b8ea2d5",
            }, draws.__name__


    def test_violations_add_only_the_delta_support(self, fraction_calls):
        # violate_jet adds a delta to five forms of one slot (v and the four
        # w) and builds one Fraction per nonzero delta entry, which changes
        # that entry.  An ASD delta has 12 nonzero entries when none of its
        # three coefficients is drawn zero, and the table draws build no
        # Fraction, so d_H_omega and d_H_Theta build 5 x 12 = 60; d_H_mu adds
        # 3c times a self-dual form with 4 nonzero entries, 5 x 4 = 20 sums,
        # and builds c, 3c and the form's 16 scaled entries: 38.  Adding all
        # 16 entries of each form built 80 and 98
        rng = random.Random(4)
        for which, extra, full in (("d_H_omega", 0, 60), ("d_H_Theta", 0, 60),
                                   ("d_H_mu", 18, 20)):
            counts = []
            for _ in range(30):
                jet = spin.random_donaldson_jet(rng)
                fraction_calls.clear()
                out = spin.violate_jet(jet, which, rng)
                built = fraction_calls["new"]
                changed = sum(x != y for a, b in zip(jet_forms(jet), jet_forms(out))
                              for ra, rb in zip(a, b) for x, y in zip(ra, rb))
                assert built == changed + extra, which
                counts.append(changed)
            assert max(counts) == full and min(counts) > 0, which


class TestDiracVariation:
    def test_zero_jet(self, model):
        z, first = spin.dirac_variation_symbol(spin.zero_jet(), model)
        assert is_zero_matrix(z)
        assert all(is_zero_matrix(c) for c in first)

    def test_zeroth_part_negates_the_curvature_sum(self, model):
        # entry for entry -curvature_sum, on the 75 unit jets and on violated
        # jets where it is nonzero, and every zero part is the curvature-sum
        # map's shared zero (scaling by QQi(-1) built a new zero per part)
        rng = random.Random(7)
        violated = [spin.violate_jet(spin.random_donaldson_jet(rng), which, rng)
                    for which in ("d_H_omega", "d_H_mu", "d_H_Theta") for _ in range(10)]
        nonzero = 0
        for jet in [*spin.constraint_basis_jets(), *violated]:
            zeroth, _ = spin.dirac_variation_symbol(jet, model)
            curv = spin.curvature_sum(jet, model)
            nonzero += not is_zero_matrix(curv)
            assert all(z == -c for rz, rc in zip(zeroth, curv) for z, c in zip(rz, rc))
            assert all(x is exact._ZERO for x in spin._parts(zeroth) if not x)
        assert nonzero == 30

    def test_compatible_jet_builds_no_fraction(self, model, fraction_calls):
        # both maps give the shared zero on every part of a compatible jet,
        # and the negation keeps it (scaling by QQi(-1) built 24 Fractions)
        spin.dirac_variation_symbol(spin.zero_jet(), model)  # builds the maps
        jet = spin.random_donaldson_jet(random.Random(8))
        fraction_calls.clear()
        zeroth, first = spin.dirac_variation_symbol(jet, model)
        assert not fraction_calls
        assert is_zero_matrix(zeroth) and all(is_zero_matrix(c) for c in first)

    def test_vanishing_on_donaldson_jets(self, law):
        law("spin.curvature.cancellation")

    def test_symmetry_violation_hits_first_order(self, model):
        rng = random.Random(5)
        hits = 0
        for _ in range(50):
            jet = spin.violate_jet(spin.random_donaldson_jet(rng), "d_H_omega", rng)
            _, first = spin.dirac_variation_symbol(jet, model)
            if any(not is_zero_matrix(c) for c in first):
                hits += 1
        assert hits >= 48

    def test_theta_violation_hits_first_order(self, model):
        rng = random.Random(6)
        hits = 0
        for _ in range(50):
            jet = spin.violate_jet(spin.random_donaldson_jet(rng), "d_H_Theta", rng)
            _, first = spin.dirac_variation_symbol(jet, model)
            if any(not is_zero_matrix(c) for c in first):
                hits += 1
        assert hits >= 48
