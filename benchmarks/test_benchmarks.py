"""Tests of the benchmark itself: each workload passes its gate at a reduced
size, each gate fails on a wrong reference, the tracer reaches the layer
functions and restores them, and BENCHMARK.json matches the code."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pace
import run
import tracing
import workloads
from adg2 import gauge, maxsec, verify

ROOT = Path(__file__).resolve().parent.parent

REDUCED = {
    "exact-suites": workloads.ExactSuites(suite="excalc", controls=("hk",)),
    "maxsec-rough": workloads.MaxsecRough(n=5, solves=2),
    "maxsec-smooth": workloads.MaxsecSmooth(n=5),
    "gauge-paths": workloads.GaugePaths(nb=3, nf=4),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_workload_passes_its_gate(name):
    wl = REDUCED[name]
    inputs = wl.setup(1)
    outcome = wl.gate(inputs, wl.run(inputs))
    outcome += wl.control(inputs)
    outcome += wl.info(inputs)[1]
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.reasons


def test_seed_makes_the_inputs():
    wl = REDUCED["maxsec-rough"]
    a, b, c = wl.setup(3), wl.setup(3), wl.setup(4)
    assert all((x.values == y.values).all() for x, y in zip(a["inits"], b["inits"]))
    assert not (a["inits"][0].values == c["inits"][0].values).all()
    assert not (a["inits"][0].values == a["inits"][1].values).all()


def test_gauge_gate_rejects_wrong_closed_form():
    wl = REDUCED["gauge-paths"]
    inputs = wl.setup(0)
    got = wl.run(inputs)
    right = (wl.cs_reference(inputs["coeffs"][:1]), wl.cs_reference(inputs["coeffs"]))
    assert wl.gate(inputs, got, cs_want=right).failed == 0
    wrong = (right[0] * (1 + 1e-9), -right[1])
    outcome = wl.gate(inputs, got, cs_want=wrong)
    assert outcome.failed == 2 and all("cs_instanton" in r for r in outcome.reasons)


@pytest.mark.parametrize("name", ["maxsec-rough", "maxsec-smooth"])
def test_solve_gate_rejects_unconverged_result(name):
    wl = REDUCED[name]
    inputs = wl.setup(0)
    outs = wl.run(inputs)
    outs[0] = maxsec.solve_dirichlet(inputs["inits"][0], tol=1e-8, max_iter=1)
    assert not outs[0].converged
    outcome = wl.gate(inputs, outs)
    assert outcome.attempted == len(outs)
    assert outcome.failed == 1 and "not converged" in outcome.reasons[0]


def test_exact_gates_reject_failures_and_clean_controls():
    wl = REDUCED["exact-suites"]
    failing = verify.Report("hk", 0, [verify.Check("hk.x", "law", "fail", "1", 0)])
    assert wl.gate({}, [failing]).failed == 1
    clean = verify.run_suite("excalc", 0)
    outcome = wl.control_gate({"excalc": clean})
    assert outcome.failed == 1 and "passed with corrupt" in outcome.reasons[0]


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_pace_samples_during_the_job_and_restores_the_handler(name):
    wl = REDUCED[name]
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace(wl.kernels, interval=0.02) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    probe_s = sum(d for s, d in probe.samples if t0 <= s < t1)
    assert 0.0 < probe_s < t1 - t0
    # the job's time less the probes', rescaled by the reference's speed
    wall = t1 - t0 - probe_s
    refs = [d for _, d in probe.samples]
    low, high = (wall * probe.nominal / r for r in (max(refs), min(refs)))
    assert low * 0.999 <= probe.paced(t0, t1) <= high * 1.001


def test_tracer_spans_reach_layers_and_uninstall_restores():
    originals = (verify._RUNNERS["excalc"], gauge.instanton_residual,
                 gauge.LatticeConnection.curvature)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = REDUCED["gauge-paths"]
        inputs = wl.setup(0)
        tracer.run("job", wl.run, inputs)
        tracer.run("suite", verify.run_suite, "excalc", 0)
    finally:
        tracer.uninstall()
    assert (verify._RUNNERS["excalc"], gauge.instanton_residual,
            gauge.LatticeConnection.curvature) == originals

    names = {s.name for s in tracer.spans}
    assert {"verify.run_excalc", "excalc.split_d", "gauge.curvature",
            "gauge._cs_density", "fueter.holonomy_section"} <= names
    by_id = {s.id: s for s in tracer.spans}
    selfs = tracing.self_times(tracer.spans)
    for s in tracer.spans:
        assert 0.0 <= selfs[s.id] <= s.duration + 1e-9
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert parent.run == s.run

    job = [s for s in tracer.spans if s.run == "job"]
    values = tracing.layer_metrics(job, {})
    assert set(values) == {name for name, *_ in tracing.LAYER_METRICS}
    assert values["gauge.instanton_residual.r1.s"] > 0
    assert values["gauge._cs_density.calls"] == 8  # 2 paths x 2 segments x 2 ends
    assert values["maxsec.grad_area.calls"] == 0
    assert values["verify.run_excalc.s"] == 0  # spans of another run id


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gauge-paths",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
