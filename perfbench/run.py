#!/usr/bin/env python3
"""Benchmark of the fully-defective network simulator, driven through the
`fdn-lab` CLI the way its users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from anywhere inside a checkout of the repository. The first call
builds `fdn-lab` and the per-layer replay tool (`perfbench/layers`) into
`$CARGO_TARGET_DIR` (default `.bench_build` in the checkout).

`--trace 0` times the CLI end to end with tracing off: repeated
`fdn-lab run` invocations for `--seconds` (at least two), reporting
medians of wall time, throughput, CPU time and peak memory, plus the median
set-up time. `--trace 1` runs the workload once more in-process, records it
and replays it layer by layer (see perfbench/layers), reporting per-layer
costs and the exact work counters.

Every run checks outputs: each cell's deterministic counters (successes,
errors, steps, pulses, CCinit) must equal the reference pinned in
`perfbench/reference.json` for the seed's class, the expansion must have the
pinned scenario and cell counts, and the replay-store workload must time
store hits only. The last stdout line is one JSON object with the keys
`correct`, `attempted` (cells checked), `failed` (cells that differ) and
`metrics`; the exit code is 1 when the outputs were not correct.

`--write-reference` re-runs every workload once per seed class and rewrites
the reference; only do that for a change that is meant to alter results.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

# A seed selects one of CLASSES seed ranges: class c starts every cell's
# seed sweep at 1 + c * seeds. Each class has its own pinned reference.
CLASSES = 4

# The CLI's worker threads (the benchmark machine has two cores).
THREADS = ["--threads", "2"]

# Set-up is repeated this often and its median reported.
SETUP_REPEATS = 3

# The CLI is invoked at least this often per timed run.
MIN_INVOCATIONS = 2

PINNED = ["--noises", "full-corruption", "--schedulers", "random", "--encodings", "binary"]

# Each workload pins every matrix axis on the command line (matrix-standard
# is the shipped preset by definition) and the expansion it must produce.
WORKLOADS = {
    "ring-cycle": {
        "args": ["--families", "cycle(400)", "--modes", "cycle", "--workloads", "flood(2)",
                 *PINNED, "--max-steps", "200000000"],
        "seeds": 2, "scenarios": 2, "cells": 1,
    },
    "matrix-standard": {
        "args": ["--preset", "standard"],
        "seeds": 2, "scenarios": 1200, "cells": 600,
    },
    "replay-store": {
        "args": ["--families", "random2ec(50,10,s1),theta(16,16,16)", "--modes", "replay",
                 "--workloads", "flood(2)", *PINNED, "--max-steps", "5000000"],
        "seeds": 16, "scenarios": 32, "cells": 2, "store_keys": 2,
    },
}

END_TO_END = {
    "wall_s": "s",
    "deliveries_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    # fdn-netsim
    "links.exact.ns_per_op": "ns",
    "links.counting.ns_per_op": "ns",
    "links.ops": "count",
    "links.max_inflight": "count",
    "scheduler.ns_per_pick": "ns",
    "noise.ns_per_delivery": "ns",
    "noise.drops": "count",
    "stats.ns_per_event": "ns",
    "sim.register_us": "us",
    "sim.run_ns_per_delivery": "ns",
    "sim.remainder_ns_per_delivery": "ns",
    "replay.scenarios": "count",
    "trace.overhead_s": "s",
    # fdn-core
    "engine.ns_per_delivery": "ns",
    "engine.sends_per_delivery": "sends/delivery",
    "construction.deliveries": "count",
    "construction.ns_per_delivery": "ns",
    "checkpoint.encode_us": "us",
    "checkpoint.decode_us": "us",
    "checkpoint.bytes": "bytes",
    # fdn-lab
    "store.load_us": "us",
    "store.save_us": "us",
    "store.hits": "count",
    "store.misses": "count",
    "cache.baseline_hit_ratio": "ratio",
    "cache.baseline_lookups": "count",
    "cache.topology_hits": "count",
    "runner.scenarios": "count",
    "runner.scenario_ms.p50": "ms",
    "runner.scenario_ms.p99": "ms",
    "runner.overhead_ms": "ms",
    "report.aggregate_ms": "ms",
    "report.json_ms": "ms",
    "report.csv_ms": "ms",
    "report.md_ms": "ms",
    "report.parse_ms": "ms",
    "report.json_bytes": "bytes",
    # fdn-graph
    "graph.build_ms": "ms",
    # exact work counters of the whole workload
    "deliveries": "count",
    "pulses_sent": "count",
    "cc_init": "count",
}


class BenchError(Exception):
    """The benchmark could not run (not an incorrect result)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds `fdn-lab` and the replay tool; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "lab")
    ):
        raise BenchError(f"no fdn-lab sources under {ROOT}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (("Cargo.toml", ["-p", "fdn-lab"]),
                            (os.path.join("perfbench", "layers", "Cargo.toml"), [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, manifest), *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "fdn-lab"), os.path.join(release, "perfbench-layers")


def seed_class(seed):
    return seed % CLASSES


def lab_args(spec, klass):
    start = 1 + klass * spec["seeds"]
    return [*spec["args"], "--seeds", str(spec["seeds"]), "--seed-start", str(start)]


def run_timed(cmd, errfile):
    """Runs a command to completion: (wall s, user+sys CPU s, peak RSS MB)."""
    with open(errfile, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(errfile, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-2000:]
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def expansion_guard(lab, spec, args):
    """Checks the workload expands to its pinned scenario and cell counts."""
    out = subprocess.run([lab, "list-scenarios", *args], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    if out.returncode != 0:
        raise BenchError(f"list-scenarios failed: {out.stderr.strip()}")
    ids = [line.split()[1] for line in out.stdout.splitlines() if line.strip()]
    cells = {i.rsplit("/s", 1)[0] for i in ids}
    if (len(ids), len(cells)) != (spec["scenarios"], spec["cells"]):
        raise BenchError(
            f"expansion guard: {len(ids)} scenarios in {len(cells)} cells, expected "
            f"{spec['scenarios']} in {spec['cells']}")


def cell_counters(cell):
    """The deterministic counters of one report cell, as pinned."""
    runs = cell["runs"]

    def total(metric):
        mean = cell[metric]["mean"]
        return None if mean is None else round(mean * runs)

    return [round(cell["success_rate"] * runs), cell["errors"], cell["steps"]["min"],
            cell["steps"]["max"], total("steps"), total("pulses"), total("cc_init")]


def report_counters(report):
    return [(f"{c['family']}/{c['mode']}/{c['encoding']}/{c['workload']}/{c['noise']}/"
             f"{c['scheduler']}", cell_counters(c)) for c in report["cells"]]


class Check:
    """Cell-by-cell comparison of reports against the pinned reference."""

    def __init__(self, workload, klass):
        with open(REFERENCE, encoding="utf-8") as f:
            ref = json.load(f)["workloads"][workload]
        self.cells = ref["cells"]
        self.counters = ref["classes"][str(klass)]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.totals = None

    def report(self, report):
        got = report_counters(report)
        ids = [cell for cell, _ in got]
        if ids != self.cells:
            self.problems.append("report cells differ from the reference cells")
        self.attempted += len(self.cells)
        for i, want in enumerate(self.counters):
            if i >= len(got) or got[i][1] != want:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"cell {self.cells[i]}: {got[i][1] if i < len(got) else None}"
                                         f" != pinned {want}")
        totals = [sum(c[k] or 0 for _, c in got) for k in (4, 5, 6)]
        if self.totals not in (None, totals):
            self.problems.append("work counters changed between invocations")
        self.totals = totals

    def correct(self):
        return self.failed == 0 and not self.problems


def check_store(timings, keys):
    store = timings.get("store", {})
    want = {"hits": keys, "misses": 0, "rejected": 0, "writes": 0}
    got = {k: store.get(k) for k in want}
    return None if got == want else f"timed run store traffic {got}, expected {want}"


def setup(lab, spec, args, work, repeats):
    """The cold start, `repeats` times: the expansion guard and a first
    one-seed run of the workload, which for store workloads builds the
    checkpoint store from nothing. Returns (median seconds, store dir or
    None); the timed runs use the last store built."""
    cold = list(args)
    cold[cold.index("--seeds") + 1] = "1"
    times, store = [], None
    for k in range(repeats):
        out = os.path.join(work, f"setup{k}")
        timings = os.path.join(out, "timings.json")
        cmd = [lab, "run", *cold, *THREADS, "--name", "perfbench", "--out", out,
               "--timings", timings]
        if "store_keys" in spec:
            if store:
                shutil.rmtree(store, ignore_errors=True)
            store = os.path.join(work, f"store{k}")
            cmd += ["--store", store]
        started = time.perf_counter()
        expansion_guard(lab, spec, args)
        run_timed(cmd, os.path.join(work, "setup.err"))
        times.append(time.perf_counter() - started)
        if store:
            with open(timings, encoding="utf-8") as f:
                built = json.load(f).get("store", {})
            keys = spec["store_keys"]
            if (built.get("misses"), built.get("writes")) != (keys, keys):
                raise BenchError(f"cold store build wrote {built}, expected {keys} entries")
        shutil.rmtree(out, ignore_errors=True)
    return statistics.median(times), store


def end_to_end(lab, spec, args, seconds, work, store, check):
    samples = []
    started = time.perf_counter()
    while len(samples) < MIN_INVOCATIONS or time.perf_counter() - started < seconds:
        out = os.path.join(work, "run")
        shutil.rmtree(out, ignore_errors=True)
        timings = os.path.join(out, "timings.json")
        cmd = [lab, "run", *args, *THREADS, "--name", "perfbench", "--out", out,
               "--timings", timings]
        if store:
            cmd += ["--store", store]
        wall, cpu, rss = run_timed(cmd, os.path.join(work, "run.err"))
        with open(os.path.join(out, "perfbench.json"), encoding="utf-8") as f:
            check.report(json.load(f))
        if store:
            with open(timings, encoding="utf-8") as f:
                problem = check_store(json.load(f), spec["store_keys"])
            if problem:
                check.problems.append(problem)
        samples.append((wall, check.totals[0] / wall, cpu, rss))
    walls, rates, cpus, rsss = zip(*samples)
    return {"wall_s": statistics.median(walls), "deliveries_per_s": statistics.median(rates),
            "cpu_s": statistics.median(cpus), "peak_rss_mb": statistics.median(rsss)}


def traced(layers, spec, args, work, store, check):
    report = os.path.join(work, "layers-report.json")
    cmd = [layers, "--scratch", work, "--report", report]
    if store:
        cmd += ["--store", store]
    out = subprocess.run([*cmd, "--", *args], cwd=ROOT, capture_output=True, text=True,
                         check=False)
    if out.returncode != 0:
        raise BenchError(f"perfbench-layers exited {out.returncode}: {out.stderr.strip()}")
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    with open(report, encoding="utf-8") as f:
        check.report(json.load(f))
    check.problems.extend(doc["errors"])
    metrics = doc["metrics"]
    if store and (metrics["store.misses"], metrics["store.hits"]) != (0, spec["store_keys"]):
        check.problems.append("traced run did not load every checkpoint from the store")
    deliveries, pulses, cc_init = check.totals
    metrics.update({"deliveries": deliveries, "pulses_sent": pulses, "cc_init": cc_init})
    return {name: metrics[name] for name in PER_LAYER}


def bench(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    lab, layers = build()
    klass = seed_class(seed)
    args = lab_args(spec, klass)
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        # The traced run reports no set-up time; it only needs the store.
        setup_s, store = setup(lab, spec, args, work, 1 if trace else SETUP_REPEATS)
        check = Check(workload, klass)
        if trace:
            values = traced(layers, spec, args, work, store, check)
            units = PER_LAYER
        else:
            values = end_to_end(lab, spec, args, seconds, work, store, check)
            values["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    for problem in check.problems:
        log(problem)
    result = {
        "correct": check.correct(),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if check.correct() else 1


def write_reference():
    lab, _ = build()
    doc = {"format": 1, "classes": CLASSES, "workloads": {}}
    for workload, spec in WORKLOADS.items():
        entry = {"cells": None, "classes": {}}
        for klass in range(CLASSES):
            args = lab_args(spec, klass)
            work = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                expansion_guard(lab, spec, args)
                cmd = [lab, "run", *args, *THREADS, "--name", "perfbench", "--out", work]
                if "store_keys" in spec:
                    cmd += ["--store", os.path.join(work, "store")]
                run_timed(cmd, os.path.join(work, "run.err"))
                with open(os.path.join(work, "perfbench.json"), encoding="utf-8") as f:
                    got = report_counters(json.load(f))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            ids = [cell for cell, _ in got]
            if entry["cells"] not in (None, ids):
                raise BenchError(f"{workload}: seed classes expand to different cells")
            entry["cells"] = ids
            entry["classes"][str(klass)] = [c for _, c in got]
            log(f"{workload} class {klass}: {sum(c[4] or 0 for _, c in got)} deliveries")
        doc["workloads"][workload] = entry
    # One cell per line keeps the file reviewable.
    lines = ["{", f' "format": {doc["format"]},', f' "classes": {doc["classes"]},',
             ' "workloads": {']
    for w, (workload, entry) in enumerate(doc["workloads"].items()):
        lines.append(f'  {json.dumps(workload)}: {{')
        lines.append('   "cells": [')
        lines += [f"    {json.dumps(c)}," for c in entry["cells"]]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("   ],")
        lines.append('   "classes": {')
        for k, (klass, counters) in enumerate(entry["classes"].items()):
            lines.append(f"    {json.dumps(klass)}: [")
            lines += [f"     {json.dumps(c)}," for c in counters]
            lines[-1] = lines[-1].rstrip(",")
            lines.append("    ]" + ("," if k + 1 < CLASSES else ""))
        lines.append("   }")
        lines.append("  }" + ("," if w + 1 < len(doc["workloads"]) else ""))
    lines += [" }", "}"]
    with open(REFERENCE, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    json.loads("\n".join(lines))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    opts = parser.parse_args()
    try:
        if opts.write_reference:
            return write_reference()
        if not opts.workload:
            parser.error("--workload is required")
        return bench(opts.workload, opts.seed, opts.seconds, opts.trace)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
