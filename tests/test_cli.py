import json

from adg2 import cli, verify


def test_verify_prints_the_json_reports(capsys):
    assert cli.main(["verify", "--suite", "excalc", "--seed", "0", "--no-timing"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs == [r.to_json(timing=False) for r in verify.run_suite("excalc", 0)]
    assert [d["suite"] for d in docs] == ["excalc"]
    assert docs[0]["passed"] and docs[0]["seed"] == 0 and docs[0]["checks"]
    assert all(c["runtime_ms"] == 0 for c in docs[0]["checks"])


def test_failed_check_exits_1(capsys, monkeypatch):
    failed = verify.Report("hk", 3, [verify.Check("hk.x", "a law", "fail", "1", 0)])
    monkeypatch.setattr(verify, "run_suite", lambda suite, seed: [failed])
    assert cli.main(["verify", "--suite", "hk", "--seed", "3"]) == 1
    assert json.loads(capsys.readouterr().out) == [failed.to_json()]
