#!/usr/bin/env python3
"""Serving benchmark: the multi-tenant daemon (serve::ServeDaemon) end to
end, and its slot time split by layer. See README.md next to this file.

Run from the repository root:

  python3 perfserve/run.py --workload durable --seed 1 --seconds 8 --trace 0
  python3 perfserve/run.py --workload durable --seed 1 --seconds 8 --trace 1
  python3 perfserve/run.py --compare base.jsonl new.jsonl
  python3 perfserve/run.py --spread results.jsonl

A measuring run builds perf_serve (perfserve/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), runs it, checks its outputs,
prints a report and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Exit
code 0: outputs correct; 1: a correctness check failed (result printed with
"correct": false); 2: the benchmark could not run (nothing printed).
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import perfstats  # noqa: E402

# Workload shapes. Every tenant runs the "Ours" combo at 400 mean samples
# per edge-slot (perf_serve.cpp); journal and metrics page every slot.
# BENCHMARK.json gates tenants_serial and durable. fleet runs the same way
# for its layer table and Amdahl line, but its timings follow the shared
# host's load too closely to gate a change (README.md).
WORKLOADS = {
    "fleet": {"tenants": 2, "edges": 8000, "pooled": True,
              "checkpoint_every": 250, "slots": 1000},
    "tenants_serial": {"tenants": 8, "edges": 1500, "pooled": False,
                       "checkpoint_every": 250, "slots": 1000},
    "durable": {"tenants": 2, "edges": 1000, "pooled": True,
                "checkpoint_every": 1, "slots": 1000},
}
MIN_PASSES = 5          # passes per measuring run
WALL_CAP_S = 100        # no new pass starts after this much of a run
RUN_LIMIT_S = 165       # every perf_serve process ends by then (after build)
PRIVATE_MOUNT_ENV = "PERFSERVE_PRIVATE_MOUNT"
SIM_PHASES = ("sim.presolve", "sim.trader.decide", "sim.edges", "sim.reduce",
              "sim.trader.feedback")


deadline = float("inf")  # set once the build is done


class BenchError(Exception):
    """The benchmark could not run at all (exit 2, no result)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def threads_available():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfserve"


def run_files_dir():
    return build_dir() / "runs"


def enter_private_mount_namespace():
    """Re-execute this script in a private mount namespace when the host
    allows it, so the pass files can go on a RAM-backed filesystem mounted
    inside the checkout that no other process sees and that disappears
    with the run. Returns (without re-executing) otherwise."""
    if os.environ.get(PRIVATE_MOUNT_ENV) or not shutil.which("unshare"):
        return
    runs = run_files_dir()
    runs.mkdir(parents=True, exist_ok=True)
    unshare = ["unshare", "--mount", "--propagation", "private"]
    probe = subprocess.run(unshare + ["mount", "-t", "tmpfs", "-o", "size=1m",
                                      "perfserve", str(runs)],
                           capture_output=True)
    if probe.returncode != 0:
        return
    os.environ[PRIVATE_MOUNT_ENV] = "1"
    sys.stdout.flush()
    sys.stderr.flush()
    os.execvp("unshare", unshare + [sys.executable, str(Path(__file__)),
                                    *sys.argv[1:]])


def mount_run_files():
    """Mount a tmpfs on the run-files directory inside the private
    namespace; returns where the pass files live."""
    runs = run_files_dir()
    runs.mkdir(parents=True, exist_ok=True)
    if os.environ.get(PRIVATE_MOUNT_ENV) and subprocess.run(
            ["mount", "-t", "tmpfs", "-o", "size=1g", "perfserve", str(runs)],
            capture_output=True).returncode == 0:
        return "tmpfs"
    return "disk"


def build():
    """Configure (once) and build perf_serve; returns the binary path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perf_serve",
                  "-j", str(threads_available())])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return out / "perf_serve"


def run_pass(binary, mode, shape, seed, threads, run_dir):
    """One perf_serve process, killed at the run's deadline; returns its
    JSON report. Timed and traced passes start from an empty directory;
    restore reads the one a timed pass left."""
    if mode != "restore" and run_dir.exists():
        shutil.rmtree(run_dir)
    command = [str(binary), mode,
               "--tenants", str(shape["tenants"]),
               "--edges", str(shape["edges"]),
               "--threads", str(threads),
               "--slots", str(shape["slots"]),
               "--checkpoint-every", str(shape["checkpoint_every"]),
               "--seed", str(seed), "--dir", str(run_dir)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0),
                              cwd=ROOT)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"perf_serve {mode} timed out") from error
    if proc.returncode != 0:
        raise BenchError(f"perf_serve {mode} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(report, shape, problems):
    """Correctness gate of one pass; returns its failed-slot count."""
    slots = shape["slots"]
    tag = f"{report['mode']} pass"
    if report["error"]:
        problems.append(f"{tag}: {report['error']}")
    if not report["journal_ok"]:
        problems.append(f"{tag}: journal fails verification: "
                        f"{report['journal_error']}")
    failed = slots - report["completed"] + report["journal_missing_slots"]
    if failed:
        problems.append(f"{tag}: {failed} of {slots} slots failed")
    return failed


# ----------------------------------------------------------- digests

def digest_key(name, shape):
    return (f"{name} {shape['tenants']}x{shape['edges']} "
            f"slots={shape['slots']} checkpoint_every="
            f"{shape['checkpoint_every']}")


def load_digests(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def check_digest(name, shape, seed, digest, binary, work, problems):
    """Compare a run's decision digest with the one recorded for this
    workload and seed. Recorded digests live in perfserve/digests.json and,
    for seeds first seen in this checkout, in the build directory. A first
    recording needs a second run with the other threading (serial for
    pooled workloads, pooled for serial ones) to reproduce the digest."""
    key = digest_key(name, shape)
    cache_path = build_dir() / "digests.json"
    cache = load_digests(cache_path)
    recorded = load_digests(HERE / "digests.json").get(key, {}).get(str(seed))
    recorded = recorded or cache.get(key, {}).get(str(seed))
    if recorded is not None:
        if recorded != digest:
            problems.append(f"decision digest {digest} differs from the "
                            f"recorded {recorded} (seed {seed})")
        return
    threads = 1 if shape["pooled"] else threads_available()
    log(f"perfserve: recording the digest of seed {seed}; "
        f"cross-check run on {threads} thread(s)")
    cross = run_pass(binary, "timed", shape, seed, threads, work / "cross")
    check_pass(cross, shape, problems)
    if cross["digest"] != digest:
        problems.append(f"decision digest {digest} is not reproduced on "
                        f"{threads} thread(s): {cross['digest']}")
        return
    cache.setdefault(key, {})[str(seed)] = digest
    cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------- measuring runs

def shape_threads(shape):
    return threads_available() if shape["pooled"] else 1


def check_restore(report, shape, problems):
    if report["error"] or not report["restore_roundtrip"] or \
            report["restored_slot"] != shape["slots"]:
        problems.append("restoring the last checkpoint does not give back "
                        f"the same checkpoint payload: {report['error']}")


def measure_timed(name, shape, seed, seconds, binary, work, problems):
    """Passes until `seconds` of slots are timed, at least MIN_PASSES. A
    pass is one timed process of the workload's 1,000 slots and one restore
    of its last checkpoint. Every pass replays the same inputs and makes the
    same decisions (the digest check proves it), so slot t does the same
    work in each pass. A slot's latency is its median over the passes: on a
    shared host, other machines' load comes in bursts, and a burst moves a
    slot's median only if it hits that slot in half the passes. The slot
    figures are taken over these 1,000 medians, so the p99 has ten beyond
    it. setup_s is the median of every controller and daemon built,
    restore_s and peak_rss_mb the medians over passes. Returns (end-to-end
    metrics, attempted, failed)."""
    started = time.monotonic()
    threads = shape_threads(shape)
    passes, setup_s, restore_s, rss_mb = [], [], [], []
    digests = set()
    attempted = failed = 0
    window_s = 0.0
    while True:
        report = run_pass(binary, "timed", shape, seed, threads, work / "pass")
        restore = run_pass(binary, "restore", shape, seed, threads,
                           work / "pass")
        attempted += shape["slots"]
        failed += check_pass(report, shape, problems)
        check_restore(restore, shape, problems)
        digests.add(report["digest"])
        latency_ms = [ns / 1e6 for ns in report["latency_ns"]]
        window_s += sum(latency_ms) / 1e3
        if len(latency_ms) == shape["slots"]:
            passes.append(latency_ms)
        setup_s += [report["setup_s"], restore["setup_s"]]
        restore_s.append(restore["restore_s"])
        rss_mb.append(report["peak_rss_mb"])
        log(f"perfserve: pass {len(setup_s) // 2}: p50 "
            f"{perfstats.percentile(latency_ms or [0], 0.5):.4f} ms, p99 "
            f"{perfstats.percentile(latency_ms or [0], 0.99):.4f} ms, setup "
            f"{report['setup_s']:.3f} s, restore {restore['restore_s']:.4f} s")
        if len(setup_s) // 2 >= MIN_PASSES and window_s >= seconds:
            break
        if time.monotonic() - started > WALL_CAP_S:
            break
    if not passes:
        raise BenchError("no pass completed its slots")
    if len(digests) != 1:
        problems.append(f"passes disagree on the decision digest: {digests}")
    check_digest(name, shape, seed, digests.pop(), binary, work, problems)
    slot_ms = [statistics.median(column) for column in zip(*passes)]
    if not perfstats.tail_valid(len(slot_ms), 0.99):
        raise BenchError(f"{len(slot_ms)} slots a pass; p99 needs 1,000")
    log(f"perfserve: {len(setup_s) // 2} passes, {window_s:.2f} s of slots "
        f"timed; slot latency = median over {len(passes)} passes, setup_s "
        f"median of {len(setup_s)} builds")
    return {
        "slots_per_s": len(slot_ms) / (sum(slot_ms) / 1e3),
        "slot_p50_ms": perfstats.percentile(slot_ms, 0.5),
        "slot_p99_ms": perfstats.percentile(slot_ms, 0.99),
        "setup_s": statistics.median(setup_s),
        "restore_s": statistics.median(restore_s),
        "peak_rss_mb": statistics.median(rss_mb),
    }, attempted, failed


def layer_table(spans, telemetry, slots):
    """Per-slot count, total and self time of every traced layer, plus the
    unattributed rest of the slot. The program's detail histograms of the
    slot engine's phases sit inside serve.step: they count as its children
    (they are disjoint and nested in it), so serve.step's self time is what
    neither they nor the observer's spans cover."""
    self_ns = perfstats.self_times([(s[3], s[4], s[1]) for s in spans])
    rows = {}
    for span, own in zip(spans, self_ns):
        row = rows.setdefault(span[0], [0, 0, 0])
        row[0] += 1
        row[1] += span[4] - span[3]
        row[2] += own
    hist = telemetry["histograms"]
    phases = [(p, hist[p]["count"], hist[p]["sum"]) for p in SIM_PHASES
              if p in hist]
    step = rows.get("serve.step", [0, 0, 0])
    step[2] -= sum(total for _, _, total in phases)
    table = []
    slot = rows.pop("serve.slot", [0, 0, 0])
    order = ["serve.step", *[p for p, _, _ in phases]]
    for name in order:
        if name in rows:
            count, total, own = rows.pop(name)
        else:
            count, total = next((c, t) for p, c, t in phases if p == name)
            own = total
        table.append((name, count, total, own))
    table.extend((name, *rows[name]) for name in rows)
    table.append(("unattributed", slot[0], slot[2], slot[2]))
    return [(name, count / slots, total / slots / 1e6, own / slots / 1e6)
            for name, count, total, own in table], slot[1] / slots / 1e6


def read_spans(path):
    spans = []
    with open(path) as handle:
        for line in handle:
            name, parent, slot, start, end = line.rstrip("\n").split("\t")
            spans.append((name, int(parent), int(slot), int(start), int(end)))
    return spans


def chrome_trace(spans):
    """Chrome trace-event JSON (loads in Perfetto): one complete event per
    span on the driving thread's track, nested by time."""
    events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
               "ts": start / 1e3, "dur": (end - start) / 1e3,
               "args": {"slot": slot}}
              for name, _, slot, start, end in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def same_journal(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def measure_traced(name, shape, seed, binary, work, problems):
    """One timed pass and one traced pass of the same slots. Returns
    (per-layer metrics, attempted, failed, report lines)."""
    threads = shape_threads(shape)
    timed = run_pass(binary, "timed", shape, seed, threads, work / "timed")
    failed = check_pass(timed, shape, problems)
    restore = run_pass(binary, "restore", shape, seed, threads, work / "timed")
    check_restore(restore, shape, problems)
    check_digest(name, shape, seed, timed["digest"], binary, work, problems)
    traced = run_pass(binary, "traced", shape, seed, threads, work / "traced")
    failed += check_pass(traced, shape, problems)
    if not same_journal(work / "timed" / "journal",
                        work / "traced" / "journal"):
        problems.append("the traced run's journal differs from the timed "
                        "run's")
    slots = traced["completed"] or 1
    spans = read_spans(work / "traced" / "spans.tsv")
    telemetry = traced["telemetry"]
    table, slot_ms = layer_table(spans, telemetry, slots)

    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}"
    Path(f"{stem}.trace.json").write_text(json.dumps(chrome_trace(spans)))

    hist = telemetry["histograms"]
    counters = telemetry["counters"]

    def hist_sum(key):
        return hist.get(key, {}).get("sum", 0.0)

    def hist_count(key):
        return hist.get(key, {}).get("count", 0)

    rows = {row[0]: row for row in table}

    def total_ms(layer):
        return rows[layer][2] if layer in rows else 0.0

    def self_ms(layer):
        return rows[layer][3] if layer in rows else 0.0

    step_ms = total_ms("serve.step")
    edges_ms = hist_sum("sim.edges") / slots / 1e6
    edge_thread_ns = hist_sum("sim.edge.draw") + hist_sum("sim.edge.bandit")
    edge_count = max(hist_count("sim.edge.draw"), 1)
    serial_fraction = (step_ms - edges_ms) / step_ms if step_ms else 0.0
    parallelism = (edge_thread_ns / hist_sum("sim.edges")
                   if hist_sum("sim.edges") else 0.0)
    appends = rows.get("journal.append", (None, 0))[1] * slots
    traced_slots_ms = [(end - start) / 1e6 for layer, _, _, start, end
                       in spans if layer == "serve.slot"]
    trace_p50 = perfstats.percentile(traced_slots_ms or [0.0], 0.5)
    timed_p50 = perfstats.percentile(
        [ns / 1e6 for ns in timed["latency_ns"]] or [0.0], 0.5)
    restore_ms, read_ms, parse_ms = (
        statistics.median(traced[key] or [0.0]) * 1e3
        for key in ("restore_s", "restore_read_s", "restore_parse_s"))
    unattributed = self_ms("unattributed")
    metrics = {
        "serve.step_ms": step_ms,
        "sim.presolve_ms": hist_sum("sim.presolve") / slots / 1e6,
        "sim.edges_ms": edges_ms,
        "sim.reduce_ms": hist_sum("sim.reduce") / slots / 1e6,
        "sim.serial_fraction": serial_fraction,
        "sim.amdahl_ceiling": perfstats.amdahl_ceiling(serial_fraction,
                                                       threads),
        "sim.parallelism": parallelism,
        "trader.ms": (hist_sum("sim.trader.decide") +
                      hist_sum("sim.trader.feedback")) / slots / 1e6,
        "bandit.us_per_edge": hist_sum("sim.edge.bandit") / edge_count / 1e3,
        "opt.solves_per_slot": counters.get("tsallis.solves", 0.0) / slots,
        "opt.newton_iters_per_solve":
            hist_sum("tsallis.newton_iters") /
            max(hist_count("tsallis.newton_iters"), 1),
        "data.draw_us_per_edge": hist_sum("sim.edge.draw") / edge_count / 1e3,
        "pool.busy_share": parallelism / threads,
        "pool.jobs_per_slot": hist_count("pool.job") / slots,
        "journal.append_us": total_ms("journal.append") * slots /
                             max(appends, 1) * 1e3,
        "journal.seal_ms": total_ms("journal.seal"),
        "journal.files_per_slot": traced["journal_segments"] / slots,
        "journal.bytes_per_slot": traced["journal_bytes"] / slots,
        "slo.us_per_slot": (total_ms("slo.observe") +
                            self_ms("slo.drain")) * 1e3,
        "metrics.render_ms": total_ms("metrics.render"),
        "metrics.publish_ms": total_ms("metrics.publish"),
        "metrics.bytes": traced["metrics_bytes"],
        "ckpt.encode_ms": total_ms("ckpt.encode"),
        "ckpt.write_ms": total_ms("ckpt.write"),
        "ckpt.bytes_first": traced["ckpt_bytes_first"],
        "ckpt.bytes_last": traced["ckpt_bytes_last"],
        "fsync.per_slot": traced["fsyncs"] / slots,
        "restore.read_ms": read_ms,
        "restore.parse_ms": parse_ms,
        "restore.replay_ms": max(restore_ms - read_ms - parse_ms, 0.0),
        "setup.controller_s": timed["setup_controller_s"],
        "setup.daemon_s": timed["setup_daemon_s"],
        "trace.slot_p50_ms": trace_p50,
        "trace.overhead": trace_p50 / timed_p50 if timed_p50 else 0.0,
        "trace.unattributed_share": unattributed / slot_ms if slot_ms else 0.0,
    }

    lines = [f"layer table, per slot ({slots} traced slots, "
             f"{threads} thread(s)); self = total minus children",
             f"  {'layer':<22} {'count':>8} {'total ms':>10} {'self ms':>10}"]
    lines += [f"  {layer:<22} {count:>8.3f} {total:>10.4f} {own:>10.4f}"
              for layer, count, total, own in table]
    self_sum = sum(row[3] for row in table)
    lines.append(f"  {'sum of self':<22} {'':>8} {'':>10} {self_sum:>10.4f}"
                 f"  (traced slot mean {slot_ms:.4f} ms)")
    lines.append(
        f"thread time per slot: sim.edge.draw "
        f"{hist_sum('sim.edge.draw') / slots / 1e6:.4f} ms, sim.edge.bandit "
        f"{hist_sum('sim.edge.bandit') / slots / 1e6:.4f} ms")
    lines.append(
        f"Amdahl line: serial fraction {serial_fraction:.3f}, ceiling "
        f"{metrics['sim.amdahl_ceiling']:.2f}x at {threads} thread(s), "
        f"fan-out parallelism achieved {parallelism:.2f}x")
    lines.append(
        f"tracing overhead: traced slot p50 {trace_p50:.4f} ms vs timed "
        f"slot_p50_ms {timed_p50:.4f} ms ({metrics['trace.overhead']:.2f}x); "
        f"unattributed {100 * metrics['trace.unattributed_share']:.2f}% of "
        "the traced slot")
    if metrics["trace.unattributed_share"] >= 0.05:
        lines.append("WARNING: unattributed time is 5% or more of the slot")
    Path(f"{stem}.layers.txt").write_text("\n".join(lines) + "\n")
    lines.append(f"trace: {stem}.trace.json; table: {stem}.layers.txt")
    attempted = shape["slots"] * 2
    return metrics, attempted, failed, lines


# ----------------------------------------------------------- reporting

def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(args):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    enter_private_mount_namespace()
    spec = benchmark_spec()
    shape = WORKLOADS[args.workload]
    binary = build()
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    storage = mount_run_files()
    work = run_files_dir() / f"{args.workload}-{os.getpid()}"
    problems = []
    try:
        if args.trace:
            values, attempted, failed, lines = measure_traced(
                args.workload, shape, args.seed, binary, work, problems)
            declared = spec["per_layer"]
        else:
            values, attempted, failed = measure_timed(
                args.workload, shape, args.seed, args.seconds, binary, work,
                problems)
            lines = []
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(f"perfserve {args.workload} (seed {args.seed}, trace {args.trace}, "
          f"{shape['tenants']} tenants x {shape['edges']} edges, "
          f"{shape_threads(shape)} thread(s), {shape['slots']} slots a pass, "
          f"pass files on {storage})")
    for line in lines:
        print(line)
    for name, cell in metrics.items():
        print(f"  {name:<28} {cell['value']:>14.6g} {cell['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.results:
        with open(args.results, "a") as handle:
            handle.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def load_results(path):
    """{(workload, trace): {metric: [values]}} from a results file."""
    sets = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            cell = sets.setdefault((row["workload"], row["trace"]), {})
            for name, metric in row["result"]["metrics"].items():
                cell.setdefault(name, []).append(metric["value"])
    return sets


def fmt_quartiles(values):
    q1, median, q3 = perfstats.quartiles(values)
    return f"{median:>11.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_path, new_path):
    spec = benchmark_spec()
    base, new = load_results(base_path), load_results(new_path)
    print(f"{'workload':<15} {'metric':<14} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'move':>8}  label")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base.get((workload, 0), {}).get(name)
            b = new.get((workload, 0), {}).get(name)
            if not a or not b:
                continue
            move = (statistics.median(b) / statistics.median(a) - 1
                    if statistics.median(a) else 0.0)
            label = perfstats.label_move(a, b, metric["bound"],
                                         metric["better"])
            print(f"{workload:<15} {name:<14} {fmt_quartiles(a):>34} "
                  f"{fmt_quartiles(b):>34} {100 * move:>+7.1f}%  {label} "
                  f"(bound {metric['bound']:.0%})")
    return 0


def spread_report(path):
    """Median, quartiles and quartile spread of each end-to-end metric over
    a results file, against a third of the metric's bound."""
    spec = benchmark_spec()
    results = load_results(path)
    for workload in WORKLOADS:
        cell = results.get((workload, 0))
        if not cell:
            continue
        for metric in spec["end_to_end"]:
            values = cell[metric["name"]]
            share = perfstats.spread(values)
            verdict = "ok" if share < metric["bound"] / 3 else (
                "within bound" if share <= metric["bound"] else "TOO WIDE")
            print(f"{workload:<15} {metric['name']:<14} n={len(values):<3} "
                  f"{fmt_quartiles(values)} spread {100 * share:5.1f}% "
                  f"(bound {metric['bound']:.0%}) {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append each result to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two results files")
    parser.add_argument("--spread", metavar="RESULTS",
                        help="spread of each metric over a results file")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.spread:
            return spread_report(args.spread)
        if not args.workload:
            parser.error("--workload is required")
        return measure(args)
    except BenchError as error:
        log(f"perfserve: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
