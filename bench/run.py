"""Run one benchmark workload against the seifknot source tree and print
its metrics.

    python3 bench/run.py --workload point-queries --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. One single-threaded process, a closed loop with one
caller, in passes until `--seconds` have passed. Each pass imports the
package anew and runs ops drawn for it from the seed and the pass index:
the same sizes in the same slots every pass, new other parameters and a
new order (see workloads.py). Each op is checked by its oracle (see
oracles.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Lines before it are
for people. End-to-end times are put on one host speed by hostspeed.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, SpeedSampler, time_reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Set-up is timed in fresh processes, SETUP_PROBES of them before the first
# pass and after each pass, and at least SETUP_REPEATS in all. Each probe
# scales its time by the reference kernel, timed PROBE_REFERENCES times
# right after it, and setup_s is the median of the probes. Probes spread
# over the run meet the host in several of its states, where probes in one
# burst would all meet the same one.
SETUP_PROBES = 2
SETUP_REPEATS = 15
PROBE_REFERENCES = 5

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

CLI_KINDS = ("verify-all", *workloads.POINT_KINDS)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric. Counts and times are per
    pass over the workload's ops, so runs of any length compare."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units.update({
        "dunwoody.diagrams": "count",
        "dunwoody.glued_slots": "count",
        "dunwoody.diagrams_per_point": "ratio",
        "homology.matrix_cells": "count",
        "knots11.reductions": "count",
        "knots11.trace_entries": "count",
        "knots11.covers_per_point": "ratio",
        "freegroup.letters_out": "count",
        "presentations.searches": "count",
        "presentations.homs_found": "count",
        "foxcalc.det_calls": "count",
        "foxcalc.det_dim_max": "count",
        "cli.stdout_bytes": "B",
    })
    for kind in CLI_KINDS:
        units[f"cli.{kind}.p50_ms"] = "ms"
        units[f"cli.{kind}.share"] = "fraction"
    for check in workloads.CHECKS:
        units[f"verify.{check}_s"] = "s"
    units["trace.ops_per_s"] = "op/s"
    units["trace.overhead"] = "fraction"
    units["trace.spans"] = "count"
    return units


# -- setup ----------------------------------------------------------------------


def import_seifknot(fresh: bool = False) -> None:
    """Import the package from this checkout's src/, never from elsewhere.
    With `fresh`, first forget any earlier import, so that nothing the
    package keeps in memory outlives a pass."""
    if fresh:
        for name in [m for m in sys.modules if m == "seifknot" or m.startswith("seifknot.")]:
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import seifknot

    where = Path(seifknot.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"seifknot imported from {where}, not from {SRC}")
    import seifknot.cli  # noqa: F401


def prepare(workload: str, ops: list[dict], workdir: Path) -> None:
    """Turn generated ops into what the program receives: presentation
    files for alexander queries, Presentation objects and target groups
    for hom-search."""
    if workload == "point-queries":
        workdir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op["kind"] != "alexander":
                continue
            for key in ("presentation", "alt_presentation"):
                path = workdir / f"{key}-{op['slot']}.json"
                path.write_text(json.dumps(op[key]), encoding="utf-8")
                op[f"{key}_file"] = str(path)
            op["argv"] = ["--json", "alexander", "--presentation", op["presentation_file"]]
    elif workload == "hom-search":
        from seifknot.presentations import Presentation

        groups = {m: workloads.symmetric_group(m) for m in workloads.HOM_DEGREES}
        for op in ops:
            op["pres"] = Presentation.from_dict(op["presentation"])
            op["elements"] = groups[op["degree"]]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import seifknot and generate and prepare the inputs,
    scaled to the reference host speed by the kernel timed right after."""
    start = perf_counter()
    import_seifknot()
    ops = workloads.generate(workload, seed, 0)
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        prepare(workload, ops, workdir)
        took = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return took * REFERENCE_S / statistics.median(time_reference() for _ in range(PROBE_REFERENCES))


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time from `count` fresh processes, each timing itself."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# -- running ops ----------------------------------------------------------------


class Run:
    """State of one workload run: per-slot latencies, failures, tracer."""

    def __init__(self, workload: str, seed: int, tracer: Tracer | None, workdir: Path,
                 make_ops: Callable[[int], list[dict]] | None = None):
        import seifknot.cli

        self.workload = workload
        self.tracer = tracer
        # Untraced runs put their op times on one host speed; traced runs
        # report raw times, which their layer times add up to.
        self.sampler = None if tracer else SpeedSampler()
        self.workdir = workdir
        self.make_ops = make_ops or (lambda j: workloads.generate(workload, seed, j))
        self.cli = seifknot.cli  # main is looked up per call: the tracer may have replaced it
        self.slots: list[dict] = []  # the first pass's op in each slot, for kinds and sizes
        self.raw_latency: list[list[float]] = []  # per slot, one time per pass
        self.latency: list[list[float]] = []  # the same on one host speed, once the passes end
        self.spans: list[list[tuple[float, float]]] = []  # per slot and pass, when the op ran
        self.alexander: list[tuple[int, dict, str]] = []  # (pass, op, stdout), checked after the timed phase
        self.counts: list[int | None] = []  # hom-search: per slot, the latest pass's count
        self.pass_busy: list[float] = []
        self.pass_traced: list[bool] = []
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[int, int], str] = {}
        self.stdout_bytes = 0

    def new_pass(self, j: int) -> list[dict]:
        """The ops of pass j, made and prepared against a freshly imported
        package, so that no cache of the program outlives a pass."""
        import_seifknot(fresh=True)
        self.cli = sys.modules["seifknot.cli"]
        ops = self.make_ops(j)
        prepare(self.workload, ops, self.workdir / f"pass{j}")
        if not self.slots:
            self.slots = sorted(ops, key=lambda op: op["slot"])
            self.raw_latency = [[] for _ in ops]
            self.spans = [[] for _ in ops]
            self.counts = [None] * len(ops)
        return ops

    def paused(self) -> float:
        """Seconds spent so far in host-speed samples."""
        return self.sampler.paused if self.sampler else 0.0

    def timing(self, start: float, paused: float) -> tuple[float, float, float]:
        """(start, end, seconds busy) of an op that started at `start`,
        leaving out the host-speed samples taken while it ran."""
        end = perf_counter()
        return start, end, end - start - (self.paused() - paused)

    def call_cli(self, argv: list[str], op_id: int = -1) -> tuple[tuple[float, float, float], int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer if op_id >= 0 and self.tracing else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            paused, start = self.paused(), perf_counter()
            span = tracer.begin_op(op_id) if tracer else -1
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an op that blows up is a failed op
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
            if tracer:
                tracer.end_op(span)
            timing = self.timing(start, paused)
        return timing, rc, out.getvalue(), err.getvalue()

    @contextlib.contextmanager
    def untraced(self):
        """Oracle work is the benchmark's, not the program's: keep it out
        of spans and counters."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def fail(self, j: int, op: dict, reason: str, count: int = 1) -> None:
        self.failed += count
        self.failures.setdefault(
            (j, op["slot"]), f"pass {j} slot {op['slot']} {op['kind']}: {reason} | reproduce: {reproducer(op)}"
        )

    # one op -----------------------------------------------------------------

    def run_op(self, j: int, op: dict) -> tuple[float, float, float]:
        if self.workload == "hom-search":
            return self.run_search(j, op)
        timing, rc, out, err = self.call_cli(op["argv"], op["id"])
        self.stdout_bytes += len(out)  # --json output is ASCII: one byte per character
        if self.workload == "grid-sweep":
            failed = oracles.check_grid(rc, out, workloads.CHECKS)
            self.attempted += len(workloads.CHECKS)
            if failed:
                self.fail(j, op, f"failing checks {failed} {err.strip()}", len(failed))
            return timing
        self.attempted += 1
        if rc != 0:
            reason = f"exit status {rc}: {err.strip()}"
        elif op["kind"] == "alexander":
            self.alexander.append((j, op, out))
            reason = None
        else:
            reason = self.check_point_query(op, out)
        if reason:
            self.fail(j, op, reason)
        return timing

    def check_point_query(self, op: dict, out: str) -> str | None:
        kind, params = op["kind"], op["params"]
        with self.untraced():
            if kind == "present":
                return oracles.check_present(params, 0, out)
            if kind == "tietze":
                return oracles.check_tietze(params, 0, out)
            if kind.startswith("homology"):
                from seifknot.homology import circulant_order

                n, p, q, l = params
                return oracles.check_homology(0, out, circulant_order([q * l] * (n - 1) + [q * l - p]))
            if kind == "knot-reduce":
                _, arc, aout, _ = self.call_cli(["--json", "knot", "ambient", *map(str, params)])
                ambient = json.loads(aout)["lens"] if arc == 0 else None
                return oracles.check_knot_reduce(params, 0, out, ambient)
            if kind == "dunwoody-check":
                return oracles.check_dunwoody(params, 0, out)
        raise ValueError(f"no oracle for {kind}")

    def run_search(self, j: int, op: dict) -> tuple[float, float, float]:
        from seifknot.presentations import count_homomorphisms

        tracer = self.tracer if self.tracing else None
        paused, start = self.paused(), perf_counter()
        span = tracer.begin_op(op["id"]) if tracer else -1
        try:
            count = count_homomorphisms(op["pres"], op["elements"], workloads.HOM_BUDGET)
        except Exception as exc:  # raised or refused over budget: a failed op
            count = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_op(span)
        timing = self.timing(start, paused)
        self.attempted += 1
        slot = op["slot"]
        if not isinstance(count, int):
            self.fail(j, op, count)
            count = None
        elif self.counts[slot] is not None and self.counts[slot] != count:
            self.fail(j, op, f"count {count} differs from the previous pass's {self.counts[slot]}")
        self.counts[slot] = count
        return timing

    def check_pass(self, j: int) -> None:
        """Checks that need several ops of one pass."""
        if self.workload != "hom-search":
            return
        counts: dict[tuple, dict[str, int | None]] = {}
        for op, count in zip(self.slots, self.counts):
            counts.setdefault((tuple(op["point"]), op["degree"]), {})[op["form"]] = count
        for op in self.slots:
            if op["form"] == "cyclic":
                pair = counts[(tuple(op["point"]), op["degree"])]
                reason = oracles.check_hom_pair(pair.get("cyclic"), pair.get("standard"))
                if reason:
                    self.fail(j, op, reason)

    def check_after(self) -> None:
        """Alexander queries: compare against the other dropped relator."""
        with self.untraced():
            for j, op, out in self.alexander:
                _, arc, aout, _ = self.call_cli(
                    ["--json", "alexander", "--presentation", op["alt_presentation_file"]]
                )
                reason = oracles.check_alexander(0, out, arc, aout)
                if reason:
                    self.fail(j, op, reason)

    def timed_phase(self, seconds: float, after_pass: Callable[[], None] | None = None) -> None:
        """Passes until `seconds` have passed, not counting the time of
        `after_pass`, which runs after each pass. With a tracer, passes
        alternate between traced and untraced, so the tracing overhead is
        measured on neighbouring passes; such a run makes at least two
        passes. Without a tracer, the host-speed sampler runs while the
        passes do, and each op's time is then scaled by what it found
        around the op."""
        start = perf_counter()
        try:
            while True:
                j = len(self.pass_busy)
                if self.sampler:
                    self.sampler.start()
                ops = self.new_pass(j)
                traced = self.tracing = self.tracer is not None and j % 2 == 0
                if traced:
                    self.tracer.install()
                busy = 0.0
                for op in ops:
                    begin, end, elapsed = self.run_op(j, op)
                    self.raw_latency[op["slot"]].append(elapsed)
                    self.spans[op["slot"]].append((begin, end))
                    busy += elapsed
                if traced:
                    self.tracer.uninstall()
                    self.tracing = False
                if self.sampler:
                    self.sampler.stop()
                self.pass_busy.append(busy)
                self.pass_traced.append(traced)
                self.check_pass(j)
                if after_pass:
                    pause = perf_counter()
                    after_pass()
                    start += perf_counter() - pause
                if perf_counter() - start >= seconds and (self.tracer is None or j >= 1):
                    break
        finally:
            if self.sampler:
                self.sampler.stop()
        self.latency = self.raw_latency
        if self.sampler:
            self.latency = [
                [t * self.sampler.scale(*span) for t, span in zip(lat, spans)]
                for lat, spans in zip(self.raw_latency, self.spans)
            ]
        self.check_after()

    # metrics ------------------------------------------------------------------

    def ops_per_pass(self) -> int:
        if self.workload == "grid-sweep":
            return self.slots[0]["points"]
        return len(self.slots)

    # Each slot is timed once per pass, and its latency is the median of
    # those times. A slot holds an op of the same size in every pass, with
    # other parameters drawn anew, so its cost barely moves from pass to
    # pass. Passes are in different orders, so the median does not depend
    # on which op ran before it.

    def passes(self, traced: bool) -> list[int]:
        return [j for j, t in enumerate(self.pass_traced) if t == traced]

    def slot_latencies(self, passes: list[int]) -> list[float]:
        """Per slot, its median time over the given passes."""
        return [statistics.median(lat[j] for j in passes) for lat in self.latency]

    def ops_per_s(self, passes: list[int]) -> float:
        """Ops of one pass divided by the pass's busy time, each slot at its
        median time."""
        return self.ops_per_pass() / sum(self.slot_latencies(passes))

    def op_latencies_ms(self, passes: list[int]) -> list[float]:
        """Sorted per-slot latencies. For grid-sweep, where verify-all does
        not time points one by one, the single op is the sweep time per
        grid point."""
        scale = 1000.0 / (self.slots[0]["points"] if self.workload == "grid-sweep" else 1)
        return sorted(t * scale for t in self.slot_latencies(passes))

    def kind_shares(self, passes: list[int]) -> dict[str, float]:
        total = sum(lat[j] for lat in self.latency for j in passes)
        shares: dict[str, float] = {}
        for op, lat in zip(self.slots, self.latency):
            shares[op["kind"]] = shares.get(op["kind"], 0.0) + sum(lat[j] for j in passes) / total
        return shares

    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        passes = self.passes(traced=False)
        lat = self.op_latencies_ms(passes)
        return {
            "ops_per_s": self.ops_per_s(passes),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": p90(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        traced = self.passes(traced=True)
        passes = len(traced)
        wall = sum(self.pass_busy[j] for j in traced)
        self_s = tracer.self_seconds()
        calls = tracer.layer_calls()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
            out[f"{layer}.self_s"] = self_s[layer] / passes
            out[f"{layer}.share"] = self_s[layer] / wall
        counters = tracer.counters
        points = self.points_per_pass()
        for name in ("dunwoody.diagrams", "dunwoody.glued_slots", "homology.matrix_cells",
                     "knots11.reductions", "knots11.trace_entries", "freegroup.letters_out",
                     "presentations.searches", "presentations.homs_found", "foxcalc.det_calls"):
            out[name] = counters.get(name, 0) / passes
        out["dunwoody.diagrams_per_point"] = out["dunwoody.diagrams"] / points if points else 0.0
        covers = counters.get("knots11.covers", 0) / passes
        out["knots11.covers_per_point"] = covers / points if points else 0.0
        out["foxcalc.det_dim_max"] = counters.get("foxcalc.det_dim_max", 0)
        out["cli.stdout_bytes"] = self.stdout_bytes / len(self.pass_busy)
        shares = self.kind_shares(traced)
        slot_latencies = self.slot_latencies(traced)
        for kind in CLI_KINDS:
            lat = [t * 1000 for op, t in zip(self.slots, slot_latencies) if op["kind"] == kind]
            out[f"cli.{kind}.p50_ms"] = statistics.median(lat) if lat else 0.0
            out[f"cli.{kind}.share"] = shares.get(kind, 0.0)
        for check in workloads.CHECKS:
            out[f"verify.{check}_s"] = tracer.check_seconds.get(check, 0.0) / passes
        out["trace.ops_per_s"] = self.ops_per_s(traced)
        untraced = self.passes(traced=False)  # compared with as many traced passes, so neither side gets more tries
        out["trace.overhead"] = self.ops_per_s(untraced) / self.ops_per_s(traced[: len(untraced)]) - 1
        out["trace.spans"] = tracer.span_count() / passes
        return out

    def points_per_pass(self) -> int:
        """Seifert parameter points one pass works on: grid points for
        grid-sweep, the dunwoody-check queries for point-queries."""
        if self.workload == "grid-sweep":
            return self.slots[0]["points"]
        return sum(op["kind"] == "dunwoody-check" for op in self.slots)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest ranks, so a
    small change in one op moves it a little and not by a whole gap."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def reproducer(op: dict) -> str:
    """A one-line command that reruns the op."""
    if op["kind"] == "alexander":
        return f"seifknot --json alexander --presentation - <<< '{json.dumps(op['presentation'])}'"
    if op["kind"] == "hom-search":  # the oracle compares both presentations, so print both counts
        point = ", ".join(map(str, op["point"]))
        args = f"symmetric_group({op['degree']}), {workloads.HOM_BUDGET}"
        return (
            "python3 -c 'from seifknot.presentations import *; "
            f"print(count_homomorphisms(seifert_cyclic_presentation({point}), {args}), "
            f"count_homomorphisms(standard_seifert_presentation({point}), {args}))'"
        )
    return "seifknot " + " ".join(op["argv"])


def commit() -> str:
    """HEAD of the checkout's git metadata, when there is any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- main -----------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "seifknot" / "__init__.py").is_file():
        print(f"error: no seifknot sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    import_seifknot()  # also byte-compiles the sources before the probes time imports
    setup_times: list[float] = []

    def probe(count: int = SETUP_PROBES) -> None:
        setup_times.extend(measure_setup(args.workload, args.seed, count))

    if not args.trace:
        probe()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        run = Run(args.workload, args.seed, tracer, workdir)
        run.timed_phase(args.seconds, None if args.trace else probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        probe(max(0, SETUP_REPEATS - len(setup_times)))
    if args.trace:
        metrics = run.per_layer()
        units = per_layer_units()
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(str(spans_path))
    else:
        metrics = run.end_to_end(setup_times)
        units = END_TO_END

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }
    print(f"# stamp {json.dumps(stamp)}")
    print(f"# samples: {len(run.slots)} slots x {len(run.pass_busy)} passes ({sum(run.pass_traced)} traced), "
          f"each pass with inputs of its own; {run.ops_per_pass()} ops per pass; busy {sum(run.pass_busy):.2f} s")
    if run.sampler:
        raw_ops_per_s = run.ops_per_pass() / sum(statistics.median(lat) for lat in run.raw_latency)
        print(f"# host speed: {len(run.sampler.took)} reference samples, median "
              f"{statistics.median(run.sampler.took) * 1000:.3f} ms against {REFERENCE_S * 1000:.3f} ms; "
              f"ops_per_s before scaling {raw_ops_per_s:.6g} op/s")
    print(f"# failed_ratio {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})")
    if setup_times:
        print(f"# setup_s samples {[round(t, 4) for t in setup_times]}")
    shares = run.kind_shares(list(range(len(run.pass_busy))))
    for kind, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# share of timed phase: {kind} {share:.3f}")
    if args.trace:
        print("# per-layer counts and times are per traced pass; FreeWord and LaurentPoly "
              "methods are not wrapped and count toward their caller's layer; trace.overhead "
              "compares the untraced passes with the traced ones")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    for _, line in sorted(run.failures.items()):
        print(f"# FAIL {line}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        record = dict(result, stamp=stamp, pass_busy_s=run.pass_busy, setup_samples_s=setup_times,
                      kind_shares=shares, failures=sorted(run.failures.values()))
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
