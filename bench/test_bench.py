"""Tests of the benchmark itself: quick runs of every workload, the tracer,
and checks that trip on perturbed outputs.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_reports_end_to_end_metrics(workload):
    result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.operations(
        workloads.make_inputs(workload, 7, quick=True)))
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric():
    result = run_bench("cli_small", 1)
    assert result["correct"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["disorder.realizations"]["value"] > 0
    assert result["metrics"]["cli.command_s.fit-beta"]["value"] > 0


def test_layer_units_match_benchmark_json():
    assert list(tracing.LAYER_UNITS) == [m["name"] for m in SPEC["per_layer"]]


def test_tracer_times_lanczos_and_its_operator():
    from fluxchain import manybody

    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []
    try:
        spec = manybody.ManyBodySpec.from_coupling(2, 1, 1.0)
        manybody.lowest_spectrum(spec, "even", 2, method="lanczos")
    finally:
        tracing.uninstall(tracer)
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["krylov.matvecs"] > 0
    assert layers["manybody.matvec_calls"] >= layers["krylov.matvecs"]
    assert 0 < layers["krylov.self_s"] < layers["krylov.solve_s"]
    assert layers["manybody.sector_overhead_s"] > 0
    assert layers["krylov.basis_mib"] > 0
    assert layers["manybody.sector_solves"] == 1
    assert manybody.lowest_spectrum.__name__ == "lowest_spectrum"
    assert not hasattr(manybody.lowest_spectrum, "__wrapped__")


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", [
        ("fluxchain.manybody", "no_such_solver", "krylov.solve", None),
        ("fluxchain.no_such_module", "run", "cli.command", None),
    ])
    tracer = tracing.Tracer()
    absent = tracing.install(tracer)
    assert absent == ["fluxchain.manybody.no_such_solver", "fluxchain.no_such_module.run"]
    assert "krylov.matvecs" in tracing.absent_metrics(absent)
    assert "cli.command_s.disorder" in tracing.absent_metrics(absent)


# -- checks trip on perturbed outputs ------------------------------------------


@pytest.fixture(scope="module")
def quick_outputs(tmp_path_factory):
    """(inputs, outputs, reference) of one in-process quick pass per workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        inp = workloads.make_inputs(workload, 3, quick=True)
        d = str(tmp_path_factory.mktemp(workload))
        assert workloads.run_pass(inp, d) == {}
        collected = workloads.collect(inp, d)
        out[workload] = (inp, collected, workloads.reference(inp, collected))
    return out


def failures(inp, outputs, ref):
    return {op: msgs for op, msgs in workloads.check(inp, outputs, ref).items() if msgs}


def perturbed(quick_outputs, workload, edit):
    inp, outputs, ref = quick_outputs[workload]
    outputs = copy.deepcopy(outputs)
    edit(inp, outputs)
    return failures(inp, outputs, ref)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_unperturbed_outputs_pass(quick_outputs, workload):
    assert failures(*quick_outputs[workload]) == {}


def test_sweep_energy_shift_trips(quick_outputs):
    def edit(inp, out):
        out["sweep"][0]["E_even"] = repr(float(out["sweep"][0]["E_even"]) + 1e-6)
    assert "E_even" in " ".join(perturbed(quick_outputs, "splitting_n3", edit)["g=1.2"])


def test_decay_exponent_out_of_bounds_trips(quick_outputs):
    def edit(inp, out):
        out["sweep"][-1]["delta"] = repr(float(out["sweep"][0]["delta"]) / 2.0)
    fails = perturbed(quick_outputs, "splitting_n3", edit)
    assert "two-point exponent" in " ".join(fails["g=1.6"])


def test_unreadable_artifact_fails_every_operation(quick_outputs):
    def edit(inp, out):
        out["sweep"] = workloads.Unreadable("splitting_sweep.csv: missing")
    assert set(perturbed(quick_outputs, "splitting_n3", edit)) == {"g=1.2", "g=1.6"}


def test_spectrum_energy_shift_trips(quick_outputs):
    def edit(inp, out):
        out["points"][0]["even"][1] += 1e-6
    assert "differ from reference" in " ".join(
        perturbed(quick_outputs, "spectrum_n5", edit)["g=0.3"])


def test_fidelity_above_one_trips(quick_outputs):
    def edit(inp, out):
        out["points"][-1]["fidelity"] = 1.0 + 1e-9
    assert "outside [0, 1]" in " ".join(perturbed(quick_outputs, "spectrum_n5", edit)["g=0.8"])


def test_falling_fidelity_trips(quick_outputs):
    def edit(inp, out):
        out["points"][0]["fidelity"] = out["points"][-1]["fidelity"]
    assert "does not grow" in " ".join(perturbed(quick_outputs, "spectrum_n5", edit)["g=0.8"])


@pytest.mark.parametrize("op, edit, message", [
    ("spectrum", lambda inp, out: out["spectrum"][2].update(
        energy=repr(float(out["spectrum"][2]["energy"]) + 1e-6)), "differ from reference"),
    ("fit-beta", lambda inp, out: out["fit-beta"].update(beta=8.5), "outside"),
    ("derive", lambda inp, out: out["derive"].update(extra=1.0), "derive keys"),
    ("fluxonium", lambda inp, out: out["fluxonium"].update(two_level_ok=False), "two_level_ok"),
    ("polariton", lambda inp, out: out["polariton"][-1].update(stable="true"), "stable=true"),
    ("disorder", lambda inp, out: out["disorder"][1].update(
        omega_F_1=repr(float(out["disorder"][1]["omega_F_1"]) * (1 + 1e-9))), "not the draws"),
    ("disorder", lambda inp, out: out["disorder"][0].update(delta="0.0"), "not positive"),
])
def test_cli_checks_trip(quick_outputs, op, edit, message):
    assert message in " ".join(perturbed(quick_outputs, "cli_small", edit)[op])


def test_raised_operation_fails_without_making_the_run_incorrect():
    import run

    failed, correct = run.verdict({"pass0/g=1.0": ["raised RuntimeError()", "unreadable"],
                                   "pass0/g=1.3": []})
    assert list(failed) == ["pass0/g=1.0"] and correct
    failed, correct = run.verdict({"pass0/g=1.0": [], "pass0/g=1.3": ["E_even differs"]})
    assert list(failed) == ["pass0/g=1.3"] and not correct


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
        assert workloads.make_inputs(workload, 5) != workloads.make_inputs(workload, 6)


def test_run_without_sources_fails(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
