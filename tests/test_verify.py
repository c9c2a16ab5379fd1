import json

import pytest

from adg2 import verify

SEED = 5


@pytest.fixture(scope="module")
def reports():
    return verify.run_suite("all", SEED)


def test_all_suites_pass(reports):
    assert [r.suite for r in reports] == list(verify.SUITES)
    checks = [c for r in reports for c in r.checks]
    assert len(checks) == 19
    assert len({c.id for c in checks}) == 19
    failed = [(c.id, c.max_residual) for c in checks if c.status != "pass"]
    assert failed == []
    assert all(r.passed for r in reports)


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
    assert any(c.status == "fail" for c in report.checks)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope", SEED)
