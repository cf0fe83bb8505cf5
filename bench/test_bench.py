"""Tests of the benchmark itself: seeded inputs, their validity, the
tracer's bookkeeping and the oracles.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import oracles
import run
import workloads
from tracer import LAYERS, Tracer

run.import_seifknot()

SEEDS = range(4)


def mod(name: str):
    """The current import of seifknot.<name>: a run imports the package
    anew for each pass, so module objects bound earlier may be stale."""
    run.import_seifknot()
    return sys.modules[f"seifknot.{name}"]


def dumped(workload: str, seed: int, pass_index: int = 0) -> str:
    return json.dumps(workloads.generate(workload, seed, pass_index), sort_keys=True)


# -- seeded inputs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_byte_for_byte(workload):
    code = (
        "import json, sys, workloads; "
        f"sys.stdout.write(json.dumps(workloads.generate({workload!r}, 7, 3), sort_keys=True))"
    )
    env = dict(os.environ, PYTHONHASHSEED="123")
    other = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(run.__file__).parent,
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert dumped(workload, 7, 3) == dumped(workload, 7, 3) == other


def test_seed_changes_point_queries():
    assert dumped("point-queries", 1) != dumped("point-queries", 2)


def inputs(op: dict):
    return op.get("argv"), op.get("presentation")


@pytest.mark.parametrize("workload", ["grid-sweep", "point-queries"])
@pytest.mark.parametrize("seed", SEEDS)
def test_passes_of_one_seed_differ_in_inputs_but_not_sizes(workload, seed):
    first, second = (sorted(workloads.generate(workload, seed, j), key=lambda op: op["slot"]) for j in (0, 1))
    assert [(op["kind"], op.get("size")) for op in first] == [(op["kind"], op.get("size")) for op in second]
    assert [op["slot"] for op in first] == list(range(len(first)))
    changed = sum(inputs(a) != inputs(b) for a, b in zip(first, second))
    # small inputs have few variants and may repeat; nearly all others change
    assert changed >= 0.9 * len(first)
    if workload == "point-queries":
        assert [op["slot"] for op in workloads.generate(workload, seed, 0)] != \
            [op["slot"] for op in workloads.generate(workload, seed, 1)]
        for a, b in zip(first, second):
            assert abs(workloads.measured_size(a) - workloads.measured_size(b)) <= max(4, a["size"] // 64) \
                or a["kind"] == "dunwoody-check"


@pytest.mark.parametrize("seed", SEEDS)
def test_point_queries_are_valid(seed):
    for pass_index in range(3):
        ops = workloads.point_query_ops(seed, pass_index)
        assert len(ops) >= 100
        for op in ops:
            assert workloads.op_problem(op) is None, op
        kinds = {op["kind"] for op in ops}
        assert kinds == set(workloads.POINT_KINDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_knot_inputs_lie_in_supported_families(seed):
    knots11 = mod("knots11")
    for pass_index in range(3):
        for op in workloads.point_query_ops(seed, pass_index):
            if op["kind"] == "knot-reduce":
                k = knots11.KnotParams(*op["params"])
                knots11.lens_closed_form(k)  # raises outside the families or on a gcd failure


def test_validity_check_rejects_bad_inputs():
    assert workloads.knot_problem(2, 1, 3, 1) is not None  # twist in no family
    assert workloads.knot_problem(2, 2, 2, 2) is not None  # residue a, gcd(4, 4) != 1
    bad = {"kind": "present", "size": 5, "params": [3, 4, 2, 5]}
    assert "invalid" in workloads.op_problem(bad)
    big = {"kind": "dunwoody-check", "size": 10, "params": [60, 7, 3, 3]}
    assert "above the ceiling" in workloads.op_problem(big)


@pytest.mark.parametrize("point", workloads.HOM_POINTS)
def test_generated_presentations_equal_the_programs(point):
    presentations = mod("presentations")
    Presentation = presentations.Presentation
    cyc = workloads.cyclic_presentation_dict(*point)
    std = workloads.standard_presentation_dict(*point)
    assert cyc == presentations.seifert_cyclic_presentation(*point).to_dict()
    assert Presentation.from_dict(std) == presentations.standard_seifert_presentation(*point)


def test_hom_search_has_22_searches_within_budget():
    ops = workloads.hom_search_ops(0)
    assert len(ops) == 22
    for op in ops:
        generators = len(op["presentation"]["generators"])
        assert len(workloads.symmetric_group(op["degree"])) ** generators <= workloads.HOM_BUDGET


def test_grid_point_count_matches_program():
    presentations = mod("presentations")
    assert len(workloads.grid_points(**workloads.GRID)) == len(
        presentations.seifert_parameter_grid(workloads.GRID["nmax"], workloads.GRID["pmax"], workloads.GRID["lmax"])
    ) == 1107


def test_benchmark_json_names_what_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hom-search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- tracing ----------------------------------------------------------------------


def small_point_queries(pass_index: int = 0) -> list[dict]:
    """The smallest op of each kind from one seed and pass."""
    ops = workloads.point_query_ops(3, pass_index)
    picked = [min((op for op in ops if op["kind"] == kind), key=lambda op: op["size"])
              for kind in workloads.POINT_KINDS]
    for i, op in enumerate(picked):
        op["id"] = op["slot"] = i
    return picked


def test_each_pass_imports_the_package_anew(tmp_path):
    r = run.Run("point-queries", 3, None, tmp_path, small_point_queries)
    r.timed_phase(0)
    first = sys.modules["seifknot.cli"]
    r.timed_phase(0)
    assert sys.modules["seifknot.cli"] is not first
    assert r.cli is sys.modules["seifknot.cli"]
    assert r.failed == 0, r.failures
    assert [len(lat) for lat in r.latency] == [2] * len(workloads.POINT_KINDS)
    for lat, raw, spans in zip(r.latency, r.raw_latency, r.spans):
        assert lat == [t * r.sampler.scale(*span) for t, span in zip(raw, spans)]


def test_traced_self_times_sum_to_traced_wall_time(tmp_path):
    tracer = Tracer()
    r = run.Run("point-queries", 3, tracer, tmp_path, small_point_queries)
    r.timed_phase(0)
    assert not hasattr(mod("cli").main, "__wrapped__")
    assert r.failed == 0, r.failures
    assert r.pass_traced == [True, False]
    wall = r.pass_busy[0]
    self_s = tracer.self_seconds()
    layers = sum(self_s[layer] for layer in LAYERS)
    assert all(v >= -1e-6 for v in self_s.values())
    assert abs(layers - wall) <= 0.03 * wall
    assert tracer.layer_calls()["cli"] >= len(workloads.POINT_KINDS)


def test_tracing_leaves_stdout_unchanged_and_uninstalls(tmp_path):
    argv = ["--json", "verify-all", "--nmax", "3", "--pmax", "4", "--lmax", "2"]
    r = run.Run("grid-sweep", 0, None, tmp_path)
    plain = r.call_cli(argv)
    cli, homology, presentations = mod("cli"), mod("homology"), mod("presentations")
    original = cli.main, homology.first_homology, presentations.Presentation.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original[0]
        traced_run = run.Run("grid-sweep", 0, tracer, tmp_path)
        traced_run.tracing = True
        traced = traced_run.call_cli(argv, op_id=0)
    finally:
        tracer.uninstall()
    assert (cli.main, homology.first_homology, presentations.Presentation.__init__) == original
    assert plain[1:] == traced[1:]
    assert json.loads(plain[2])["all_passed"] is True
    assert tracer.counters["dunwoody.diagrams"] > 0
    assert set(tracer.check_seconds) == set(workloads.CHECKS)


# -- host speed -------------------------------------------------------------------


def test_scale_uses_the_samples_during_the_op_and_its_neighbours():
    sampler = hostspeed.SpeedSampler()
    sampler.at = [float(t) for t in range(10)]
    sampler.took = [1.0, 2.0, 2.0, 9.0, 2.0, 4.0, 4.0, 4.0, 4.0, 1.0]
    ref = hostspeed.REFERENCE_S
    # during [4.5, 6.5]: samples 5 and 6, with neighbours 3, 4 and 7, 8
    assert sampler.scale(4.5, 6.5) == pytest.approx(ref / 4.0)
    # an op between two samples gets the two nearest on each side: 1, 2 and 3, 4
    assert sampler.scale(2.2, 2.4) == pytest.approx(ref / 2.0)
    # before the first sample: the first two
    assert sampler.scale(-5.0, -4.0) == pytest.approx(ref / 1.5)


def test_sampler_samples_inside_ops_and_puts_the_handler_back():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.SpeedSampler(interval=0.02)
    sampler.start()
    try:
        paused, start = sampler.paused, run.perf_counter()
        while run.perf_counter() - start < 0.3:
            sum(range(1000))
        end = run.perf_counter()
    finally:
        sampler.stop()
    sampler.stop()  # a second stop does nothing
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for t in sampler.at if start <= t <= end]
    assert len(inside) >= 3
    assert 0 < sampler.paused - paused < end - start
    assert sampler.at == sorted(sampler.at)


def test_untraced_latencies_are_scaled_and_leave_samples_out(tmp_path):
    r = run.Run("point-queries", 3, None, tmp_path, small_point_queries)
    r.timed_phase(0)
    assert r.failed == 0, r.failures
    assert len(r.sampler.took) >= 2
    for lat, raw, spans in zip(r.latency, r.raw_latency, r.spans):
        (begin, end), = spans
        assert 0 < raw[0] <= end - begin
        assert lat[0] == pytest.approx(raw[0] * r.sampler.scale(begin, end))
    traced = run.Run("point-queries", 3, Tracer(), tmp_path, small_point_queries)
    assert traced.sampler is None


# -- oracles ----------------------------------------------------------------------


def cli_out(*argv: str) -> tuple[int, str]:
    _, rc, out, _ = run.Run("point-queries", 0, None, Path(".")).call_cli(["--json", *argv])
    return rc, out


def test_present_oracle():
    rc, out = cli_out("present", "3", "5", "2", "2")
    assert oracles.check_present([3, 5, 2, 2], rc, out) is None
    assert oracles.check_present([3, 5, 2, 3], rc, out)  # wrong length expected
    data = json.loads(out)
    data["cyclic"]["relators"].pop()
    assert oracles.check_present([3, 5, 2, 2], rc, json.dumps(data))
    assert oracles.check_present([3, 5, 2, 2], 1, out)


def test_tietze_oracle():
    rc, out = cli_out("tietze", "4", "3", "1", "2")
    assert oracles.check_tietze([4, 3, 1, 2], rc, out) is None
    data = json.loads(out)
    data["witnesses"][1]["right"] = "x1"
    assert oracles.check_tietze([4, 3, 1, 2], rc, json.dumps(data))


def test_homology_oracle():
    rc, out = cli_out("homology", "cyclic", "3", "2", "1", "1")
    right = mod("homology").circulant_order([1, 1, -1])
    assert right == 4
    assert oracles.check_homology(rc, out, right) is None
    assert oracles.check_homology(rc, out, 8)
    assert oracles.check_homology(rc, json.dumps({"rank": 1, "torsion": []}), right)


def test_knot_reduce_oracle():
    rc, out = cli_out("knot", "reduce", "5", "0", "2", "5")
    lens = json.loads(cli_out("knot", "ambient", "5", "0", "2", "5")[1])["lens"]
    assert oracles.check_knot_reduce([5, 0, 2, 5], rc, out, lens) is None
    assert oracles.check_knot_reduce([5, 0, 2, 5], rc, out, [7, 2])
    data = json.loads(out)
    data["moves"] *= 5
    assert "moves" in oracles.check_knot_reduce([5, 0, 2, 5], rc, json.dumps(data), lens)


def test_dunwoody_oracle():
    rc, out = cli_out("dunwoody", "check", "3", "2", "1", "1")
    assert oracles.check_dunwoody([3, 2, 1, 1], rc, out) is None
    assert oracles.check_dunwoody([4, 2, 1, 1], rc, out)
    data = json.loads(out)
    data["relators_match"] = False
    assert oracles.check_dunwoody([3, 2, 1, 1], rc, json.dumps(data))


def test_alexander_oracle():
    out = json.dumps({"alexander": "1 - t + t^2"})
    assert oracles.check_alexander(0, out, 0, out) is None
    assert oracles.check_alexander(0, out, 0, json.dumps({"alexander": "1 + t"}))
    assert oracles.check_alexander(0, out, 1, "")


def test_hom_pair_oracle():
    assert oracles.check_hom_pair(561, 561) is None
    assert oracles.check_hom_pair(561, 560)
    assert oracles.check_hom_pair(None, 561)


def test_grid_oracle():
    passing = {"checks": [{"name": c, "passed": True, "detail": ""} for c in workloads.CHECKS], "all_passed": True}
    assert oracles.check_grid(0, json.dumps(passing), workloads.CHECKS) == []
    failing = json.loads(json.dumps(passing))
    failing["checks"][3]["passed"] = False
    failing["all_passed"] = False
    assert oracles.check_grid(1, json.dumps(failing), workloads.CHECKS) == ["exit status 1"]
    assert oracles.check_grid(0, json.dumps(failing), workloads.CHECKS) == ["diagram-grid"]
    del passing["checks"][0]
    assert oracles.check_grid(0, json.dumps(passing), workloads.CHECKS) == ["alexander-example"]


def test_every_failure_prints_a_reproducer(tmp_path):
    ops = small_point_queries()
    run.prepare("point-queries", ops, tmp_path)
    r = run.Run("point-queries", 3, None, tmp_path)
    for op in ops:
        r.fail(0, op, "deliberate")
    assert r.failed == len(ops)
    for line in r.failures.values():
        assert "| reproduce: seifknot --json " in line
