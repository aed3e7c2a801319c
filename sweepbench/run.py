#!/usr/bin/env python3
"""Sweep benchmark: time to regenerate the paper's sweeps, end to end and per layer.

Run from the root of a checkout:

    python3 sweepbench/run.py --workload paper_fast --seed 3 --seconds 10 --trace 0

The first call configures and builds (sweepbench/CMakeLists.txt) into
.bench_build/; later calls only re-check the build.

--trace 0 runs the workload's grid through the shipped binaries
(anc_sweep, or anc_coordinator for the fleet workload) with telemetry
off, again and again for --seconds, and reports the end-to-end metrics
as medians over those runs.  --trace 1 runs the same grid through
sweep_trace, which times every layer from the outside, and reports the
per-layer metrics of the representative (median-wall) traced run.

Both print a human-readable report with each metric's quartiles, the
correctness checks and the paper's §11.3 gains, then, as the last line
of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
sweepbench/README.md describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
DIGESTS = BENCH_DIR / "exact_digests.json"

THREADS = 4
FLEET_WORKERS = 4
MIN_RUNS = 5
SETUP_PROBES = 41
SEED_SPACE = 64  # --seed is taken modulo this; exact_digests.json covers them all
RUN_TIMEOUT_S = 120

PAPER_GRID = ["--scenario", "alice_bob", "--scenario", "x_topology",
              "--scenario", "chain", "--snr", "22", "--exchanges", "20",
              "--payload-bits", "2048", "--repetitions", "40"]
SIR_GRID = ["--scenario", "alice_bob", "--scenario", "x_topology",
            "--scheme", "anc", "--snr", "25",
            "--bob-amplitude", "0.5,0.63,0.79,1.0", "--exchanges", "20",
            "--repetitions", "20"]

# name -> (grid flags, math profile, expected task count, through the fleet)
WORKLOADS = {
    "paper_fast": (PAPER_GRID, "fast", 320, False),
    "paper_exact": (PAPER_GRID, "exact", 320, False),
    "sir_anc": (SIR_GRID, "fast", 160, False),
    "fleet_fast": (PAPER_GRID, "fast", 320, True),
}

# The §11.3 headline gains: (scenario, baseline scheme, paper value).
PAPER_GAINS = [("alice_bob", "traditional", 1.70), ("alice_bob", "cope", 1.30),
               ("x_topology", "traditional", 1.65), ("chain", "traditional", 1.36)]

# (name, unit); BENCHMARK.json lists the same names with bound and direction.
END_TO_END = [("wall_s", "s"), ("tasks_per_s", "1/s"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("delivered_share", "ratio")]

RUN_MS_PAIRS = [("alice_bob", "traditional"), ("alice_bob", "cope"), ("alice_bob", "anc"),
                ("x_topology", "traditional"), ("x_topology", "cope"),
                ("x_topology", "anc"), ("chain", "traditional"), ("chain", "anc")]

STAGE_METRICS = ["channel.mix_ms", "phy.modulate_ms", "phy.packet_detect_ms",
                 "phy.interference_analyze_ms", "phy.demodulate_ms",
                 "phy.pilot_search_ms", "core.interference_decode_ms",
                 "core.amplitude_estimate_ms", "fec.decode_ms"]

PER_LAYER = (
    [("channel.mix_ms", "ms"), ("channel.calls", "count"),
     ("phy.modulate_ms", "ms"), ("phy.packet_detect_ms", "ms"),
     ("phy.interference_analyze_ms", "ms"), ("phy.demodulate_ms", "ms"),
     ("phy.pilot_search_ms", "ms"), ("phy.pilot_hit_ratio", "ratio"),
     ("phy.crc_pass_ratio", "ratio"),
     ("core.interference_decode_ms", "ms"), ("core.amplitude_estimate_ms", "ms"),
     ("core.decode_calls", "count"), ("core.rx_useful_ratio", "ratio"),
     ("sim.task_p50_ms", "ms"), ("sim.task_p95_ms", "ms")]
    + [(f"sim.run_ms.{scenario}.{scheme}", "ms") for scenario, scheme in RUN_MS_PAIRS]
    + [("sim.untimed_ms", "ms"), ("sim.heap_allocs_per_task", "allocs/task"),
       ("sim.airtime_samples", "samples"),
       ("engine.expand_ms", "ms"), ("engine.queue_wait_ms", "ms"),
       ("engine.dispatch_overhead_ms", "ms"), ("engine.worker_busy_share", "ratio"),
       ("engine.aggregate_ms", "ms"), ("engine.emit_json_ms", "ms"),
       ("engine.emit_bytes", "bytes"), ("engine.journal_append_ms", "ms"),
       ("engine.journal_bytes", "bytes"), ("engine.parallel_efficiency", "ratio"),
       ("fleet.launches", "count"), ("fleet.worker_busy_max_ms", "ms"),
       ("fleet.shard_imbalance", "ratio"), ("fleet.supervision_ms", "ms"),
       ("fec.decode_ms", "ms")])


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------------ build

def binaries():
    build = BUILD_DIR.resolve()
    return {"launch": build / "sweep_launch", "trace": build / "sweep_trace",
            "sweep": build / "bench" / "anc_sweep",
            "coordinator": build / "bench" / "anc_coordinator"}


def build():
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        raise BenchError("no repository sources here; run from the root of a checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS),
              "--target", "sweepbench_all"]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD_DIR / "build.log", "w") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed: {' '.join(step)} "
                                 f"(see {BUILD_DIR / 'build.log'})")


# ------------------------------------------------------------------ documents

def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def task_counts(doc):
    """(tasks ok, packets delivered, packets attempted) of an anc.sweep.v4 document."""
    ok = delivered = attempted = 0
    for task in doc["tasks"]:
        if task["status"] == "ok":
            ok += 1
            delivered += task["metrics"]["packets_delivered"]
            attempted += task["metrics"]["packets_attempted"]
    return ok, delivered, attempted


def paired_gain(doc, scenario, baseline, scheme="anc"):
    """Mean over repetitions of scheme/baseline throughput, paired by repetition.

    The engine's paired_gain on a one-point-per-scheme grid; None when the
    document does not carry both schemes.
    """
    def runs(name):
        rows = [(task["repetition"], task["metrics"]["throughput"])
                for task in doc["tasks"]
                if task["scenario"] == scenario and task["scheme"] == name
                and task["status"] == "ok"]
        by_repetition = dict(rows)
        if len(by_repetition) != len(rows):
            raise ValueError(f"{scenario}/{name}: more than one grid point")
        return by_repetition
    theirs = runs(baseline)
    if not theirs:
        return None
    ours = runs(scheme)
    ratios = [ours[r] / theirs[r] for r in sorted(ours.keys() & theirs.keys())]
    return sum(ratios) / len(ratios) if ratios else None


def paper_claims(doc):
    """[(label, paper, measured)] for the §11.3 gains the document carries,
    and claim_err_max = max |measured/paper - 1| over them (None if none)."""
    rows = []
    for scenario, baseline, paper in PAPER_GAINS:
        measured = paired_gain(doc, scenario, baseline)
        if measured is not None:
            rows.append((f"{scenario} anc/{baseline}", paper, measured))
    err = max((abs(m / p - 1.0) for _, p, m in rows), default=None)
    return rows, err


# ------------------------------------------------------------------ statistics

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def print_table(rows):
    """rows: (name, unit, reported value, per-run values)."""
    print(f"  {'metric':34} {'unit':>11} {'value':>14} {'q1':>14} {'q3':>14}  n")
    for name, unit, value, values in rows:
        q1, q3 = quartiles(values)
        print(f"  {name:34} {unit:>11} {value:14.6g} {q1:14.6g} {q3:14.6g}  {len(values)}")


# ------------------------------------------------------------------ runs

def launch(bins, command, probe=(), status=0):
    """Run one command under sweep_launch; returns its measurement dict."""
    proc = subprocess.run([str(bins["launch"]), *probe, "--", *command],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    fields = dict(item.split("=") for item in proc.stdout.split())
    if proc.returncode != 0 or fields.get("status") != str(status):
        raise BenchError(f"{Path(command[0]).name} failed: {proc.stderr.strip()}")
    return {key: int(value) for key, value in fields.items()}


def workload_flags(name, base_seed):
    grid, profile, _, _ = WORKLOADS[name]
    return [*grid, "--math-profile", profile, "--seed", str(base_seed)]


def sweep_command(bins, name, base_seed, out, work_dir):
    """(command, set-up probe) of one user-level run of the workload.

    For the fleet, also empties the work directory: every run starts fresh.
    """
    flags = workload_flags(name, base_seed)
    if WORKLOADS[name][3]:
        shutil.rmtree(work_dir, ignore_errors=True)
        command = [str(bins["coordinator"]), "--worker", str(bins["sweep"]),
                   "--workers", str(FLEET_WORKERS), "--worker-threads", "1",
                   "--work-dir", str(work_dir), *flags, "--quiet", "--json", str(out)]
        probe = []
        for shard in range(1, FLEET_WORKERS + 1):
            probe += ["--ready-file", str(work_dir / f"shard{shard}.anj")]
        return command, probe
    command = [str(bins["sweep"]), *flags, "--threads", str(THREADS), "--quiet",
               "--json", str(out)]
    return command, ["--ready-threads", "2"]


def in_process_doc(bins, name, base_seed, out):
    """The grid through one in-process anc_sweep (the fleet's reference)."""
    command = [str(bins["sweep"]), *workload_flags(name, base_seed),
               "--threads", str(THREADS), "--quiet", "--json", str(out)]
    launch(bins, command)
    return out


def digest_check(name, base_seed, doc_path):
    """None when the workload has no recorded digest, else True/False."""
    if WORKLOADS[name][1] != "exact":
        return None
    recorded = json.loads(DIGESTS.read_text())["sha256"]
    return recorded.get(str(base_seed)) == sha256(doc_path)


def report_claims(doc, expected_tasks):
    ok, delivered, attempted = task_counts(doc)
    failed = expected_tasks - ok
    print(f"task_fail_ratio: {failed / expected_tasks:.6g} "
          f"({failed} of {expected_tasks} tasks not ok)")
    rows, err = paper_claims(doc)
    if rows:
        print("§11.3 gains, paper vs measured (reported, not gated):")
        for label, paper, measured in rows:
            print(f"  {label:28} paper {paper:.2f}  measured {measured:.4f}")
        print(f"claim_err_max: {err:.6g}")
    else:
        print("claim_err_max: n/a (the grid carries no §11.3 baseline)")
    return failed, delivered, attempted


def measure_end_to_end(bins, name, base_seed, seconds, run_dir):
    _, _, expected, fleet = WORKLOADS[name]
    out = run_dir / "sweep.json"
    work_dir = run_dir / "fleet"

    def one_run():
        command, _ = sweep_command(bins, name, base_seed, out, work_dir)
        measured = launch(bins, command)
        measured["digest"] = sha256(out)
        return measured

    def setup_probe():
        command, probe = sweep_command(bins, name, base_seed, run_dir / "probe.json",
                                       work_dir)
        return launch(bins, command, [*probe, "--stop-when-ready"], status=4)["setup_ns"]

    reference = one_run()  # warm-up, also the reference document
    doc = json.loads(out.read_text())
    # The set-up probes are spread over the timed window, between runs,
    # so that their median does not hang on one second of the host's load.
    setups, runs = [], []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        runs.append(one_run())
        elapsed = min(1.0, (time.monotonic() - start) / seconds) if seconds > 0 else 1.0
        while len(setups) < SETUP_PROBES * elapsed:
            setups.append(setup_probe() / 1e9)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe() / 1e9)

    # Correctness, outside the timed runs.
    checks = {"documents identical across runs":
              all(run["digest"] == reference["digest"] for run in runs)}
    exact = digest_check(name, base_seed, out)
    if exact is not None:
        checks["document matches the recorded exact digest"] = exact
    if fleet:
        direct = in_process_doc(bins, name, base_seed, run_dir / "direct.json")
        checks["fleet merge byte-identical to in-process anc_sweep"] = \
            sha256(direct) == reference["digest"]

    failed, delivered, attempted = report_claims(doc, expected)
    ok = expected - failed
    per_run = {
        "wall_s": [run["wall_ns"] / 1e9 for run in runs],
        "tasks_per_s": [ok / (run["wall_ns"] / 1e9) for run in runs],
        "cpu_s": [run["cpu_ns"] / 1e9 for run in runs],
        "setup_s": setups,
        "peak_rss_mb": [run["maxrss_kb"] / 1024 for run in runs],
        "delivered_share": [delivered / attempted] * len(runs),
    }
    metrics = {metric: statistics.median(per_run[metric]) for metric, _ in END_TO_END}
    print(f"end-to-end, {len(runs)} timed runs, {SETUP_PROBES} set-up probes "
          "(median, quartiles):")
    print_table([(metric, unit, metrics[metric], per_run[metric])
                 for metric, unit in END_TO_END])
    return metrics, dict(END_TO_END), checks, expected * (len(runs) + 1), \
        failed * (len(runs) + 1)


def coordinator_layers(bins, name, base_seed, run_dir, trace_doc):
    """fleet.* per run of the real coordinator, from its anc.metrics.v1
    `coordinator` section (three runs), and whether every merged
    document equals the traced in-process one."""
    out, manifest = run_dir / "fleet.json", run_dir / "fleet_metrics.json"
    runs, identical = [], True
    for _ in range(3):
        command, _ = sweep_command(bins, name, base_seed, out, run_dir / "fleet")
        wall_ms = launch(bins, command + ["--metrics-json", str(manifest)])["wall_ns"] / 1e6
        section = json.loads(manifest.read_text())["coordinator"]
        busy = [worker["busy_ns"] / 1e6 for worker in section["workers_liveness"]]
        runs.append((wall_ms, {
            "fleet.launches": float(section["launches"]),
            "fleet.worker_busy_max_ms": max(busy),
            "fleet.shard_imbalance": max(busy) / statistics.mean(busy),
            "fleet.supervision_ms": wall_ms - max(busy),
        }))
        identical = identical and sha256(out) == sha256(trace_doc)
    runs.sort(key=lambda run: run[0])
    return [metrics for _, metrics in runs], identical


def measure_layers(bins, name, base_seed, seconds, run_dir):
    _, _, expected, fleet = WORKLOADS[name]
    command = [str(bins["trace"]), *workload_flags(name, base_seed),
               "--seconds", str(seconds), "--work-dir", str(run_dir)]
    if fleet:
        command += ["--fleet-workers", str(FLEET_WORKERS)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"sweep_trace failed: {proc.stderr.strip()}")
    trace = json.loads(proc.stdout)
    rep = trace["representative"]
    series = trace["metrics"]
    values = {key: series.get(key, [0.0] * len(trace["traced_wall_ms"]))[rep]
              for key, _ in PER_LAYER}
    doc_path = Path(trace["doc"])

    checks = {"traced and untraced documents byte-identical": trace["docs_identical"]}
    exact = digest_check(name, base_seed, doc_path)
    if exact is not None:
        checks["document matches the recorded exact digest"] = exact
    if fleet:
        fleet_runs, identical = coordinator_layers(bins, name, base_seed, run_dir,
                                                   doc_path)
        checks["fleet merge byte-identical to the traced in-process run"] = identical
        for key in fleet_runs[0]:
            values[key] = fleet_runs[len(fleet_runs) // 2][key]  # median-wall run
            series[key] = [run[key] for run in fleet_runs]

    report_claims(json.loads(doc_path.read_text()), expected)
    plain, traced = trace["plain_wall_ms"], trace["traced_wall_ms"]
    print(f"trace overhead: traced run wall {statistics.median(traced):.2f} ms against "
          f"untraced {statistics.median(plain):.2f} ms "
          f"({statistics.median(traced) / statistics.median(plain) - 1:+.2%}; "
          f"{len(traced)} pairs, same process)")
    run_total = series["check.run_ms_total"][rep]
    stage_total = series["check.stage_ms_total"][rep]
    run_sum = sum(values[f"sim.run_ms.{s}.{k}"] for s, k in RUN_MS_PAIRS)
    print(f"reconciliation (representative traced run {rep + 1} of {len(traced)}):")
    print(f"  sum sim.run_ms.* = {run_sum:.3f} ms (all Scenario::run spans {run_total:.3f} ms)")
    print(f"  sum stage ms     = {stage_total:.3f} ms "
          f"(= {' + '.join(STAGE_METRICS)})")
    print(f"  sim.untimed_ms   = {values['sim.untimed_ms']:.3f} ms = spans - stages; "
          "a lower bound: the program's anc::obs stage timers are overlapping regions, "
          "not exclusive self time")
    print("stage share of Scenario::run time:")
    for stage in STAGE_METRICS + ["sim.untimed_ms"]:
        print(f"  {stage:34} {values[stage] / run_total:7.1%}")
    print(f"per-layer, value of the representative traced run; quartiles over "
          f"{len(traced)} traced runs:")
    print_table([(key, unit, values[key], series.get(key, [values[key]]))
                 for key, unit in PER_LAYER])
    return values, dict(PER_LAYER), checks, trace["attempted"], trace["failed"]


def record_digests(bins):
    """Rewrite exact_digests.json: the paper_exact document's digest per base seed."""
    run_dir = (BUILD_DIR / "runs" / f"digests-{os.getpid()}").resolve()
    run_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for base_seed in range(SEED_SPACE):
        doc = in_process_doc(bins, "paper_exact", base_seed, run_dir / "exact.json")
        digests[str(base_seed)] = sha256(doc)
    shutil.rmtree(run_dir, ignore_errors=True)
    grid = " ".join(workload_flags("paper_exact", "<base seed>"))
    DIGESTS.write_text(json.dumps({"grid": f"anc_sweep {grid}", "sha256": digests},
                                  indent=1) + "\n")


# ------------------------------------------------------------------ main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite exact_digests.json from this build and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    try:
        build()
        bins = binaries()
        if args.record_digests:
            record_digests(bins)
            return 0
        base_seed = args.seed % SEED_SPACE
        run_dir = (BUILD_DIR / "runs" / f"{args.workload}-{os.getpid()}").resolve()
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        print(f"sweepbench: workload {args.workload}, seed {args.seed} "
              f"(base seed {base_seed}), {args.seconds:g} s, trace {args.trace}")
        try:
            measure = measure_layers if args.trace else measure_end_to_end
            metrics, unit_of, checks, attempted, failed = measure(
                bins, args.workload, base_seed, args.seconds, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        print(f"sweepbench: {error}", file=sys.stderr)
        return 1

    for label, passed in checks.items():
        print(f"check: {label}: {'ok' if passed else 'FAILED'}")
    result = {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit_of[key]}
                    for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
