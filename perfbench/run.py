"""Benchmark of pretzellinks: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sweep,wide,deep,classify} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from ./src.  One
process runs one workload, single-threaded.  With --trace 0 the run

1. times `import pretzellinks` plus a fixed warm-up here, and again in a
   fresh child process before every other round, and reports the median as
   setup_s;
2. generates the seeded inputs without the package and confirms each with
   `is_realizable` (untimed);
3. in each of eight rounds, times three enumerations of a small class table
   and then items for S / 8 seconds, and times the reference kernel before
   and after them (reference.py);
4. scales each round's times to the kernel's nominal speed, so that every
   time metric reads as on the machine at its nominal speed (the times as
   measured are on the report line);
5. checks every answer (untimed) and counts the failures.

With --trace 1 a child process makes the untraced run, and this process
repeats the same enumerations and items with the package's public functions
wrapped (see tracing.py).  It compares the outputs with the child's, checks
that the predicted spans appeared, reports the per-layer metrics and the
tracing overhead, and writes the spans to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full report.
--smoke runs one item a round and a tiny table, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SMOKE_ITEMS = 1  # per round
# The item phase is cut into rounds that each start with TABLE_REPS
# enumerations; a setup probe runs before every other round, untimed.
ROUNDS = 8
TABLE_REPS = 3
SETUP_SAMPLES = ROUNDS // 2 + 1
# Reference-kernel calls before and after each round (about 15 ms each).
REF_CALLS = 6
SMOKE_TABLE = "2x2"
ROW_RECHECKS = 16
# A fixed query that touches the CLI path during the warm-up.
WARMUP_QUERY = ("2s,3r,3r", "3r,3r,2s", True)


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def load_package():
    """Import pretzellinks from this checkout's src/ and nowhere else."""
    pkg_dir = SRC / "pretzellinks"
    if not (pkg_dir / "__init__.py").is_file():
        raise BenchError(f"no package source at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import pretzellinks
    import pretzellinks.cli  # not imported by the package itself
    if Path(pretzellinks.__file__).resolve().parent != pkg_dir.resolve():
        raise BenchError(f"imported pretzellinks from {pretzellinks.__file__}")
    return pretzellinks


def setup():
    """Import the package and run the fixed warm-up; (package, seconds)."""
    t0 = time.perf_counter()
    pl = load_package()
    for text in inputs.warmup():
        workloads.run_sweep(pl, text)
    workloads.run_query(pl, WARMUP_QUERY)
    pl.classify.enumerate_classes(2, 2)
    return pl, time.perf_counter() - t0


def child(args: list[str], timeout: float) -> list[str]:
    """Run this script in a fresh interpreter; its stdout lines."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


# ---------------------------------------------------------------------------
# phases


def make_items(name: str, spec: dict, seed: int, seconds: float, smoke: bool):
    n = SMOKE_ITEMS * ROUNDS if smoke else int(spec["rate_hint"] * seconds * 4) + 16
    return workloads.WORKLOADS[name]["inputs"](seed, n)


def confirm_inputs(pl, name: str, items) -> list[str]:
    """Each generated sequence is realizable by the package's own rule too."""
    texts = [t for item in items for t in (item[:2] if name == "classify" else (item,))]
    fails = []
    for text in texts:
        ks, tags = inputs.parse_text(text)
        if not inputs.is_realizable(ks, tags) or not pl.is_realizable(pl.EnhancedSequence.parse(text)):
            fails.append(f"generated input {text} is not realizable")
    return fails


def run_items(pl, run, items, start=0, seconds=None, count=None, span=None):
    """Run items from index `start` until `seconds` pass or `count` are done.

    Returns (outputs, per-item latencies).  The list wraps around if the
    program outruns it.  An exception is an output, not an abort.
    """
    outs, lat = [], []
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    span = span or contextlib.nullcontext()
    i = 0
    while (count is None or i < count) and time.perf_counter() < deadline:
        item = items[(start + i) % len(items)]
        t0 = time.perf_counter()
        try:
            with span:
                out = run(pl, item)
        except Exception as exc:  # counted as a failure by the checker
            out = ("error", repr(exc))
        lat.append(time.perf_counter() - t0)
        outs.append(out)
        i += 1
    return outs, lat


def timed_phase(pl, name, bounds, items, seconds=None, counts=None, span=None,
                table_ctx=contextlib.nullcontext, before_round=lambda r: None):
    """ROUNDS rounds of TABLE_REPS class-table enumerations followed by
    items, for seconds / ROUNDS each or counts[round] items.

    Spreading the enumerations (and the setup probes that before_round
    runs, untimed) over the run keeps one slow spell of a shared machine
    from deciding a metric.  The reference kernel runs before and after
    each round; a round's times are divided by its slowdown (mean kernel
    time over reference.NOMINAL_S).  Returns (table, outputs, per-round
    slowdowns, and these times as measured: table seconds per round, item
    latencies per round, item seconds per round).
    """
    run = workloads.WORKLOADS[name]["run"]
    outs, slow, table_s, lat, items_s = [], [], [], [], []
    for r in range(ROUNDS):
        before_round(r)
        ref = reference.sample(REF_CALLS)
        t0 = time.perf_counter()
        for _ in range(TABLE_REPS):
            with table_ctx():
                table = workloads.run_enumerate(pl, bounds)
        t1 = time.perf_counter()
        got, took = run_items(pl, run, items, len(outs),
                              None if seconds is None else seconds / ROUNDS,
                              None if counts is None else counts[r], span)
        items_s.append(time.perf_counter() - t1)
        ref += reference.sample(REF_CALLS)
        slow.append(statistics.mean(ref) / reference.NOMINAL_S)
        table_s.append(t1 - t0)
        outs += got
        lat.append(took)
    return table, outs, slow, table_s, lat, items_s


def outputs_digest(table_csv: str, outs) -> str:
    h = hashlib.sha256(table_csv.encode())
    h.update(repr(outs).encode())
    return h.hexdigest()


def check_all(pl, name, spec, tables, items, outs, seed):
    """Failures as (attempted, failed, messages); nothing here is timed.

    `tables` holds (table spec, enumerated table) pairs to check."""
    check = workloads.WORKLOADS[name]["check"]
    sample = set(random.Random(f"oracle/{seed}").sample(
        range(len(outs)), min(spec.get("oracle_sample", 0), len(outs))))
    failed, msgs = 0, []
    for i, out in enumerate(outs):
        item = items[i % len(items)]
        if isinstance(out, tuple) and out and out[0] == "error":
            fails = [f"{item}: {out[1]}"]
        else:
            try:
                if i in sample:
                    fails = workloads.check_engines(pl, item, out, oracle=True)
                else:
                    fails = check(pl, item, out)
            except Exception as exc:  # a crashing check is a failure
                fails = [f"{item}: check raised {exc!r}"]
        failed += bool(fails)
        msgs += fails
    for table_spec, table in tables:
        table_fails = workloads.check_enumerate(pl, table, table_spec["sha256"], seed, ROW_RECHECKS)
        failed += bool(table_fails)
        msgs += table_fails
    return len(outs) + len(tables), failed, msgs


def tail(lat, percentile):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(lat)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if "ratio" in name or name.endswith("_per_row") or name.endswith("_per_query") \
            or name == "trace.overhead":
        return "ratio"
    if name.endswith(".mean") or name.endswith(".max"):
        return "rows"
    return "count"


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(name, seed, seconds, smoke, probes, bench, spec):
    pl, own_setup = setup()
    setups = [(0, own_setup)]  # (round, seconds)
    # Probes before `probes` of the rounds, spread evenly.
    probe_rounds = {r * ROUNDS // probes for r in range(probes)} if probes else set()

    def probe(r):
        if r in probe_rounds:
            setups.append((r, json.loads(child(["--setup-probe"], timeout=120)[-1])["setup_s"]))

    wl = spec["workloads"][name]
    table_spec = spec["tables"][SMOKE_TABLE if smoke else wl["table"]]
    items = make_items(name, wl, seed, seconds, smoke)
    input_fails = confirm_inputs(pl, name, items)

    table, outs, slow, table_s, lat, items_s = timed_phase(
        pl, name, table_spec["bounds"], items, seconds=seconds,
        counts=[SMOKE_ITEMS] * ROUNDS if smoke else None, before_round=probe)
    # Every time at the reference kernel's nominal speed.
    setup_at = [t / slow[r] for r, t in setups]
    lat_at = [t / slow[r] for r in range(ROUNDS) for t in lat[r]]
    items_at = sum(t / f for t, f in zip(items_s, slow))
    table_at = sum(t / f for t, f in zip(table_s, slow))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tables = [(table_spec, table)]
    if "checked_table" in wl and not smoke:
        big = spec["tables"][wl["checked_table"]]
        tables.append((big, workloads.run_enumerate(pl, big["bounds"])))
    attempted, failed, msgs = check_all(pl, name, wl, tables, items, outs, seed)
    attempted += 1
    failed += bool(input_fails)
    msgs = input_fails + msgs
    tail_ms, beyond = tail(lat_at, wl["tail_percentile"])
    rows = ROUNDS * TABLE_REPS * len(table.rows)
    values = {
        "setup_s": statistics.median(setup_at),
        "items_per_s": len(outs) / items_at,
        "item_ms_p50": 1000 * statistics.median(lat_at),
        "item_ms_tail": 1000 * tail_ms,
        "enumerate_rows_per_s": rows / table_at,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / attempted,
    }
    all_lat = [t for r in lat for t in r]
    as_measured = {
        "setup_s": statistics.median(t for _, t in setups),
        "items_per_s": len(outs) / sum(items_s),
        "item_ms_p50": 1000 * statistics.median(all_lat),
        "item_ms_tail": 1000 * tail(all_lat, wl["tail_percentile"])[0],
        "enumerate_rows_per_s": rows / sum(table_s),
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        "as_measured": as_measured,
        "slowdown": slow,
        "setup_samples_s": [t for _, t in setups],
        "items": len(outs),
        "rounds": [len(r) for r in lat],
        "tail": {"percentile": wl["tail_percentile"], "samples": len(lat_at),
                 "samples_beyond": beyond},
        "table": {"bounds": table_spec["bounds"], "rows": len(table.rows),
                  "seconds": table_s},
        "items_s": items_s,
        "nominal_s": {"items": items_at, "table": table_at},
        "outputs_sha256": outputs_digest(table.to_csv(), outs),
        "attempted": attempted, "failed": failed, "failures": msgs[:20],
    }
    names = [m["name"] for m in bench["end_to_end"]]
    return report, names, values


def measure_traced(name, seed, seconds, smoke, bench, spec):
    import tracing

    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0", "--setup-samples", "1"] + (["--smoke"] if smoke else [])
    lines = child(args, timeout=170)
    base = json.loads(lines[-2])["report"]
    wl = spec["workloads"][name]
    table_spec = spec["tables"][SMOKE_TABLE if smoke else wl["table"]]
    pl, _ = setup()
    items = make_items(name, wl, seed, seconds, smoke)
    traced_table = name == "classify"
    tracer = tracing.Tracer()
    with tracer.installed():
        # For the other workloads the tables only set the memo state the
        # untraced run's items saw; they are not traced.
        table, outs, slow, table_s, _, items_s = timed_phase(
            pl, name, table_spec["bounds"], items, counts=base["rounds"],
            span=tracer.span("query" if traced_table else "item"),
            table_ctx=(lambda: tracer.span("enumerate")) if traced_table else tracer.paused)
    traced_s = sum((t + (e if traced_table else 0)) / f
                   for t, e, f in zip(items_s, table_s, slow))

    same = outputs_digest(table.to_csv(), outs) == base["outputs_sha256"]
    untraced_s = base["nominal_s"]["items"] + (base["nominal_s"]["table"] if traced_table else 0)
    mu2_rows = (ROUNDS * TABLE_REPS * sum(1 for r in table.rows if r.mu == 2)
                if traced_table else 0)
    values = tracer.layer_metrics(queries=len(outs) if name == "classify" else 0,
                                  mu2_rows=mu2_rows)
    values["trace.overhead"] = traced_s / untraced_s
    predicted = {s: tracer.calls[s] > 0 for s in wl["predicted_spans"]}
    checks = {"outputs_equal_untraced": same,
              "predicted_spans_present": all(predicted.values()),
              "missing_spans": [s for s, ok in predicted.items() if not ok],
              "unwrapped_targets": tracer.missing}
    # Each check that fails counts as one failed attempt.
    verdicts = {"traced outputs differ from the untraced run": same,
                f"predicted spans missing: {checks['missing_spans']}": checks["predicted_spans_present"],
                f"targets not wrapped: {tracer.missing}": not tracer.missing}
    if name in spec["dominance"]:
        dom = spec["dominance"][name]
        share = tracer.share(dom["layers"])
        checks["dominant_layer"] = {"layers": dom["layers"], "share": share,
                                    "ok": share > dom["min_share"]}
        verdicts[f"dominant layers {dom['layers']} hold only {share:.2f} of self time"] = \
            checks["dominant_layer"]["ok"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{name}-seed{seed}.spans.jsonl.gz"
    tracer.write(spans_path)

    trace_fails = [msg for msg, ok in verdicts.items() if not ok]
    failed = base["failed"] + len(trace_fails)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 1,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())},
        "items": len(outs), "traced_s": traced_s, "untraced_s": untraced_s,
        "checks": checks, "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": base["attempted"] + len(verdicts), "failed": failed,
        "failures": trace_fails + base["failures"],
    }
    names = [m["name"] for m in bench["per_layer"]]
    return report, names, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup()[1]}))
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "spec.json").read_text())
        probes = (2 if args.smoke else args.setup_samples) - 1
        if args.trace:
            report, names, values = measure_traced(
                args.workload, args.seed, args.seconds, args.smoke, bench, spec)
        else:
            report, names, values = measure(
                args.workload, args.seed, args.seconds, args.smoke, probes, bench, spec)
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
