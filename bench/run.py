"""flatbands benchmark: seeded workloads driven through the public API.

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1

One run is one workload in this (fresh) process: generate the seeded
corpus under ``.bench_work/``, time ``setup_s`` in fresh interpreters,
warm up, then run a closed loop (one client, one op in flight) until
``--seconds`` of op time and at least ``MIN_OPS`` ops are done, checking
every output.  ``--trace 1`` reports the per-layer metrics instead: the
same ops run untraced for half the window and then traced (spans dumped
to ``.bench_out/``).  ``--workload all`` runs every workload in its own
process, one after another, and prints one table.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  flatbands is imported from
``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep", "dispersion", "newton", "bands")
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB"}
MIN_OPS = 100          # so at least ten samples lie beyond op_p90_s
SETUP_PROBES = 5       # fresh interpreters per run; setup_s is their median
MAX_LOOP_S = 120.0     # hard stop of the timed loop, inside the 180 s limit


def require_source() -> None:
    if not (SRC / "flatbands" / "__init__.py").is_file():
        print(f"error: no flatbands sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Pass:
    """Outcome of one closed-loop pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.inconsistent = 0
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, seconds: float | None = None, count: int | None = None,
             tracer=None) -> Pass:
    """Closed loop over ``ops`` in order: ``count`` ops, or until ``seconds``
    of op time and MIN_OPS ops.  Only ``invoke`` is timed; checks run between
    ops, outside the timed region and outside any trace span."""
    from workloads import INCONSISTENT, CliResult

    result = Pass()
    started = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif (result.wall >= seconds and i >= MIN_OPS) or \
                time.perf_counter() - started > MAX_LOOP_S:
            break
        op = ops[i % len(ops)]
        outcome = None
        t0 = time.perf_counter()
        try:
            with tracer.op(i) if tracer else nullcontext():
                outcome = op.invoke()
        except Exception as exc:  # any escape from the program is a failed op
            verdict = f"{op.kind} raised {exc!r}"
        except SystemExit as exc:
            verdict = f"{op.kind} exited {exc.code!r}"
        else:
            verdict = None
        result.latencies.append(time.perf_counter() - t0)
        if verdict is None:
            try:
                verdict = op.check(outcome)
            except (KeyError, TypeError, ValueError) as exc:
                verdict = f"{op.kind}: malformed report ({exc!r})"
        if tracer is not None:
            if isinstance(outcome, CliResult):
                tracer.count("cli.stdout_bytes", len(outcome.out.encode()))
            if op.output is not None and op.output.exists():
                tracer.count("bands.csv.bytes", op.output.stat().st_size)
            if verdict == INCONSISTENT:
                tracer.count("flatband.generic.inconsistent")
        if verdict == INCONSISTENT:
            result.inconsistent += 1
        elif verdict is not None:
            result.failed += 1
            result.failures.append(verdict)
        i += 1
    return result


def probe_setup(workload: str, workdir: Path) -> float:
    """Wall time of a fresh interpreter importing flatbands and running the warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", workload,
           "--workdir", str(workdir)]
    t0 = time.perf_counter()
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantize the time; the probe bounds itself with an alarm
    code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
    took = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return took


def run_probe(workload: str, workdir: Path) -> None:
    signal.alarm(120)
    require_source()
    import flatbands  # noqa: F401
    import workloads

    workloads.warm_up(workload, workdir)


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_source()
    import corpus
    import flatbands
    import tracer as tracing
    import workloads

    print(f"# flatbands bench: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"# python={platform.python_version()} host={platform.node()} "
          f"nproc={len(os.sched_getaffinity(0))} flatbands={flatbands.__version__}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=ROOT / ".bench_work"))
    try:
        ops, items = workloads.build(workload, seed, workdir)
        print(f"# corpus: {len(items)} entries, {len(ops)} ops, "
              f"digest {corpus.digest(item.text for item in items)}")
        setup = [] if trace else [probe_setup(workload, workdir) for _ in range(SETUP_PROBES)]
        workloads.warm_up(workload, workdir)

        if trace:
            base = run_pass(ops, seconds=seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(ops, count=len(base.latencies), tracer=tracer)
            finally:
                tracer.restore()
            passes = [base, traced]
            metrics = tracer.layer_metrics(traced.wall, base.wall)
            units = tracing.LAYER_METRICS
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"spans-{workload}-{seed}.json")
            print(f"# traced {len(traced.latencies)} ops: {len(tracer.spans)} spans, "
                  f"wall {traced.wall:.3f} s traced vs {base.wall:.3f} s untraced")
        else:
            run = run_pass(ops, seconds=seconds)
            passes = [run]
            lat = sorted(run.latencies)
            p90, beyond = percentile(lat, 0.9)
            cycle = workloads.CYCLE_OPS[workload]
            cycles = [sum(run.latencies[k:k + cycle])
                      for k in range(0, len(run.latencies) - cycle + 1, cycle)]
            metrics = {
                "setup_s": statistics.median(setup),
                "ops_per_s": cycle / statistics.median(cycles),
                "op_p50_s": statistics.median(lat),
                "op_p90_s": p90,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"# ops_per_s: {cycle} ops per corpus cycle over the median time of "
                  f"{len(cycles)} complete cycles; mean rate {len(lat) / run.wall:.4g} ops/s")
            print(f"# {len(lat)} ops in {run.wall:.3f} s of op time; op_p90_s is the "
                  f"nearest-rank 90th percentile of {len(lat)} samples, {beyond} beyond it; "
                  f"setup_s is the median of {len(setup)} fresh interpreters "
                  f"({', '.join(f'{s:.3f}' for s in setup)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    used = max(len(p.latencies) for p in passes)
    per_item = max(1, len(ops) // len(items))
    for item in items[:min(len(items), -(-used // per_item))]:
        if item.n:
            support = "-" if item.support is None else item.support
            print(f"# item {item.name} n={item.n} d={item.d} E={item.edges} "
                  f"support={support}")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    inconsistent = sum(p.inconsistent for p in passes)
    for reason in [r for p in passes for r in p.failures][:10]:
        print(f"# FAILED {reason}")
    print(f"# attempted {attempted}, failed {failed}, fail_rate {failed / attempted:.6g}, "
          f"inconsistent (exit 11, not failures) {inconsistent}")
    emit_result(failed == 0, attempted, failed, metrics, units)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one after another."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}")
            ok = False
            continue
        report = json.loads(lines[-1])
        ok = ok and report["correct"]
        metrics = dict(report["metrics"])
        if not trace:
            metrics["fail_rate"] = {"value": report["failed"] / report["attempted"],
                                    "unit": "ratio"}
        for line in lines[:-1]:
            if line.startswith("# ") and not line.startswith("# item "):
                print(f"[{workload}] {line[2:]}")
        rows.extend((workload, name, m["value"], m["unit"]) for name, m in metrics.items())
    print(f"{'workload':<11} {'metric':<32} {'value':>14} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<11} {name:<32} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        run_probe(args.probe, args.workdir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
