"""One run of every `verify` suite per test session, a counter of the grid
half's path increments and a counter of Fraction constructions.

The suites' rows are the one body of each exact-half law.  Tier-1 runs them
once, here, and tests read the rows from the shared report.
"""

from collections import Counter
from fractions import Fraction

import pytest

from adg2 import fueter, gauge, spin, verify

VERIFY_SEED = 5


@pytest.fixture(scope="session")
def verify_run():
    """(reports, proofs): verify.run_suite("all", VERIFY_SEED) with a warm
    spinor-model cache, and the models spin.verify_conventions was called on
    during that run."""
    spin.build_spinor_model()
    proofs = []
    original = spin.verify_conventions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin, "verify_conventions",
                   lambda model: proofs.append(model) or original(model))
        reports = verify.run_suite("all", VERIFY_SEED)
    return reports, proofs


@pytest.fixture(scope="session")
def reports(verify_run):
    return verify_run[0]


@pytest.fixture(scope="session")
def law(reports):
    """law(check_id) asserts that the shared run's row check_id passed."""
    rows = {c.id: c for r in reports for c in r.checks}

    def holds(check_id):
        row = rows[check_id]
        assert row.status == "pass", f"{check_id}: {row.max_residual}"

    return holds


@pytest.fixture
def increment_calls(monkeypatch):
    """The (s0, s1) of each increment call of gauge._path_trapezoid, as
    gauge.cs_instanton and fueter.cs_associative call it."""
    calls = []
    original = gauge._path_trapezoid

    def counted(samples, density, increment, workers=1):
        def counted_increment(s0, s1):
            calls.append((s0, s1))
            return increment(s0, s1)
        return original(samples, density, counted_increment, workers)

    monkeypatch.setattr(gauge, "_path_trapezoid", counted)
    monkeypatch.setattr(fueter, "_path_trapezoid", counted)
    return calls


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counts, from here to the end of the test, of the Fractions built:
    "new" from other values (arithmetic included), "wrapped" from a
    Fraction, and "neg" by negation (each of those also builds one "new")."""
    calls = Counter()
    new, neg = Fraction.__new__, Fraction.__neg__

    def counted_new(cls, numerator=0, denominator=None, **kwargs):
        calls["wrapped" if type(numerator) is Fraction else "new"] += 1
        return new(cls, numerator, denominator, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Fraction, "__neg__", lambda a: calls.update(["neg"]) or neg(a))
    return calls
