#!/usr/bin/env python3
"""Campaign benchmark for the Turnpike simulator.

Builds the simulator and the campaign_bench binary from source (Release,
LTO where available), runs one workload in its own process, checks
every op's deterministic record against the stored reference and
prints the metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload avf_hmmer --seed 0 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 runs the traced
pass and reports the per-layer metrics. The reference is regenerated
with

    python3 perfbench/run.py --regenerate-reference

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("avf_hmmer", "rootcause_mcf", "wcdl_sweep")
CAMPAIGNS = ("avf_hmmer", "rootcause_mcf")

# A campaign round is one public call per fault seed in CAMPAIGN_SEEDS
# (1 is the repository's default campaign seed); --seed n rotates the
# round to start at CAMPAIGN_SEEDS[n % 5], so every run measures the
# same trials and the spread between seeds is host noise, not trial
# mix. HELD_OUT_SEED is never reached through --seed: run it alone
# with --fault-seed to re-check a claim on a seed nobody tuned on.
# The sweep is fault-free, so its reference is one set for any seed.
CAMPAIGN_SEEDS = (1, 2, 3, 4, 5)
HELD_OUT_SEED = 101
FAULT_FREE = "fault-free"

# FaultOutcome enumerators (src/core/avf.hh).
SDC, HANG = 2, 3

# Setup-only launches per run; setup_s is their median.
SETUP_REPS = 15

# The JSON's metrics. failed_frac, vulnerability and the sweep's
# overheads are printed by name and unit on the workloads they apply
# to, but kept out of the JSON: they are 0 or undefined on some
# workload. failed_frac is the JSON's failed / attempted, and the
# simulated metrics are pinned exactly by the reference records.
END_TO_END = {"ops_per_s": "op/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "workloads.build_s": "s",
    "compiler.compile_s": "s",
    "compiler.compiles": "count",
    "compiler.redundant_frac": "ratio",
    "passes.checkpointing_s": "s",
    "passes.checkpoint_pruning_s": "s",
    "passes.scheduling_s": "s",
    "passes.strength_reduction_s": "s",
    "machine.interpret_s": "s",
    "machine.interpret_insts": "count",
    "sim.simulate_s": "s",
    "sim.runs": "count",
    "sim.cycles": "count",
    "sim.insts": "count",
    "sim.mips": "Minst/s",
    "sim.mcps": "Mcycle/s",
    "sim.prefix_frac": "ratio",
    "sim.recoveries": "count",
    "sim.recovery_cycles": "count",
    "sim.sb_full_stall_frac": "ratio",
    "sim.data_hazard_stall_frac": "ratio",
    "sim.rbb_full_stall_frac": "ratio",
    "sim.l1d_miss_rate": "ratio",
    "ir.hash_s": "s",
    "ir.hash_calls": "count",
    "avf.masked_frac": "ratio",
    "avf.recovered_frac": "ratio",
    "avf.sdc_frac": "ratio",
    "op.p50_ms": "ms",
    "op.tail_ms": "ms",
    "op.tail_pct": "%",
    "op.tail_n": "count",
    "parallel.busy_frac": "ratio",
    "rootcause.harmful": "count",
    "rootcause.probes": "count",
    "rootcause.bisect_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
# Per-layer metrics that only some workloads have: shown
# in the text report there, and left out of the JSON, where a time
# that is 0 by construction would read the same on every run.
LAYER_ONLY = {
    "avf": ("avf_hmmer", "rootcause_mcf"),
    "rootcause": ("rootcause_mcf",),
    "profile": ("wcdl_sweep",),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- build ----------------------------------------------------------

def build():
    """Configure (Release) and build campaign_bench; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench-release")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "campaign_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "campaign_bench")


# -- reference ------------------------------------------------------

def reference_path(workload):
    return os.path.join(REFERENCE_DIR, workload + ".json")


def seed_key(workload, fault_seed):
    return FAULT_FREE if workload not in CAMPAIGNS else str(fault_seed)


def load_reference(workload, fault_seeds):
    """Reference records by fault seed (as campaign_bench prints them)."""
    path = reference_path(workload)
    if not os.path.exists(path):
        raise BenchError("no reference at %s; regenerate it with "
                         "python3 perfbench/run.py "
                         "--regenerate-reference" % path)
    with open(path) as f:
        records = json.load(f)["records"]
    out = {}
    for seed in fault_seeds:
        key = seed_key(workload, seed)
        if key not in records:
            raise BenchError("%s has no records for fault seed %s"
                             % (path, key))
        out[seed] = records[key]
    return out


# -- campaign_bench output ------------------------------------------

class Tally:
    """Ops attempted and failed, from campaign_bench's output lines."""

    def __init__(self, references):
        self.references = references  # fault seed -> records
        self.attempted = 0
        self.failed = 0
        self.calls = []          # (round, ops, seconds) per call
        self.records = {}        # fault seed -> last call's records
        self.stamp = {}
        self.layers = None
        self._call = None
        self._reference = {}
        self._announced = 0
        self._matched = 0

    def _close_call(self):
        # Ops announced but never recorded (a crash) count as failed.
        self.failed += self._announced - self._matched
        self._announced = self._matched = 0

    def feed(self, line):
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            return  # a line cut short by a crash
        if "op" in msg:
            key, rec = msg["op"], msg["rec"]
            self.records[self._call["seed"]][key] = rec
            if self._reference.get(key) == rec:
                self._matched += 1
        elif "call" in msg:
            self._close_call()
            self._call = msg
            self._reference = self.references.get(msg["seed"], {})
            self._announced = msg["ops"]
            self.attempted += msg["ops"]
            self.records[msg["seed"]] = {}
        elif "call_s" in msg:
            self.calls.append((self._call["call"], self._announced,
                               msg["call_s"]))
            self._close_call()
        elif "traced_ops" in msg:
            self.attempted += msg["traced_ops"]
            self.failed += msg["fidelity_mismatches"]
        elif "stamp" in msg:
            self.stamp = msg["stamp"]
        elif "layers" in msg:
            self.layers = msg["layers"]

    def finish(self):
        self._close_call()
        return self


def bench_cmd(binary, workload, fault_seeds, mode, seconds=0,
               trace_file=None):
    cmd = [binary, "--workload", workload, "--mode", mode,
           "--fault-seeds", ",".join(map(str, fault_seeds)),
           "--seconds", str(seconds)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    return cmd


def run_bench(cmd, env, tally):
    """Run campaign_bench to completion; returns its peak RSS in MB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        for line in proc.stdout:
            tally.feed(line)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    tally.finish()
    if proc.returncode != 0:
        log("campaign_bench exited with %d: %s" % (proc.returncode,
                                           " ".join(cmd)))
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(binary, workload, fault_seeds, env, reps):
    """Median time from spawning campaign_bench to its zero-op call's end."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            bench_cmd(binary, workload, fault_seeds, "setup"),
            stdout=subprocess.PIPE, env=env, text=True)
        ready = None
        for line in proc.stdout:
            if json.loads(line).get("ready"):
                ready = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or ready is None:
            raise BenchError("setup run of %s failed" % workload)
        times.append(ready)
    return statistics.median(times)


# -- metrics ----------------------------------------------------------

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sweep_overheads(records):
    """Fig. 19/20 geomeans of scheme cycles over baseline cycles."""
    base, cells = {}, {}
    for key, rec in records.items():
        workload, scheme = key.split("@")
        if scheme.startswith("baseline/"):
            base[workload] = rec[0]
        else:
            cells.setdefault(scheme, {})[workload] = rec[0]

    def over(scheme):
        return geomean([c / base[w] for w, c in cells[scheme].items()])

    return {"tp_overhead_dl10": over("turnpike/dl10"),
            "tp_overhead_dl50": over("turnpike/dl50"),
            "ts_overhead_dl50": over("turnstile/dl50")}


def vulnerability(records_by_seed):
    """(SDC + Hang) / trials over every campaign of the round."""
    outcomes = [rec[0] for records in records_by_seed.values()
                for rec in records.values()]
    return sum(1 for o in outcomes if o in (SDC, HANG)) / len(outcomes)


def round_rates(calls, calls_per_round):
    """Ops per second of each complete round."""
    rounds = {}
    for rnd, ops, seconds in calls:
        rounds.setdefault(rnd, []).append((ops, seconds))
    return [sum(o for o, _ in c) / sum(s for _, s in c)
            for c in rounds.values() if len(c) == calls_per_round]


def git_sha():
    """HEAD's sha, with "-dirty" when src/ or perfbench/ differ from it."""
    def git(*argv):
        try:
            out = subprocess.run(["git", "-C", ROOT] + list(argv),
                                 capture_output=True, text=True)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    return sha + "-dirty" if dirty else sha


def print_metric(name, value, unit):
    if value is None:
        print("  %-30s %14s" % (name, "n/a"))
    else:
        print("  %-30s %14.6g %s" % (name, value, unit))


def print_layers(workload, layers):
    for name, unit in PER_LAYER.items():
        print_metric(name, layers[name], unit)
    # The layers only some workloads run, under their own names.
    campaign = workload in LAYER_ONLY["avf"]
    rootcause = workload in LAYER_ONLY["rootcause"]
    tail = "avf.trial_p%g_ms (n=%d beyond)" % (layers["op.tail_pct"],
                                              layers["op.tail_n"])
    print_metric("avf.trial_p50_ms",
                 layers["op.p50_ms"] if campaign else None, "ms")
    print_metric(tail, layers["op.tail_ms"] if campaign else None, "ms")
    for name, unit in (("rootcause.bisect_s", "s"),
                       ("rootcause.ms_per_probe", "ms")):
        print_metric(name, layers[name] if rootcause else None, unit)
    for name, unit in (("trace.rounds", "count"),
                       ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
                       ("trace.fidelity_mismatches", "count")):
        print_metric(name, layers[name], unit)
    # Only the sweep's public call returns a host phase profile.
    print_metric("trace.profile_drift_frac",
                 layers["trace.profile_drift_frac"]
                 if workload in LAYER_ONLY["profile"] else None, "ratio")


# -- commands ---------------------------------------------------------

def bench_env(jobs):
    env = dict(os.environ)
    env["TURNPIKE_JOBS"] = str(jobs)
    return env


def run_benchmark(args):
    binary = build()
    if args.workload not in CAMPAIGNS:
        fault_seeds = CAMPAIGN_SEEDS[:1]
    elif args.fault_seed is not None:
        fault_seeds = (args.fault_seed,)
    else:
        k = args.seed % len(CAMPAIGN_SEEDS)
        fault_seeds = CAMPAIGN_SEEDS[k:] + CAMPAIGN_SEEDS[:k]
    env = bench_env(args.jobs)
    tally = Tally(load_reference(args.workload, fault_seeds))

    if args.trace:
        trace_file = os.path.join(
            os.path.dirname(binary),
            "spans-%s-%d.json" % (args.workload, args.seed))
        rc, _ = run_bench(
            bench_cmd(binary, args.workload, fault_seeds, "trace",
                       args.seconds, trace_file), env, tally)
        if tally.layers is None:
            raise BenchError("traced run printed no layer metrics")
        metrics = {name: {"value": tally.layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        setup_s = measure_setup(binary, args.workload, fault_seeds, env,
                                SETUP_REPS)
        rc, peak_mb = run_bench(
            bench_cmd(binary, args.workload, fault_seeds, "run",
                       args.seconds), env, tally)
        rates = round_rates(tally.calls, len(fault_seeds))
        if not rates:
            raise BenchError("campaign_bench finished no round")
        values = {"ops_per_s": statistics.median(rates),
                  "setup_s": setup_s, "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    stamp = dict(tally.stamp)
    stamp["git_sha"] = git_sha()
    stamp["host_metrics_comparable"] = \
        stamp.get("build_type") == "Release"
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("%s --seed %d (fault seeds %s), %d ops in %d calls"
          % (args.workload, args.seed,
             ",".join(seed_key(args.workload, s) for s in fault_seeds),
             tally.attempted, len(tally.calls)))
    if not stamp["host_metrics_comparable"]:
        print("  host metrics of a %s build are not comparable"
              % stamp.get("build_type"))
    if args.trace:
        print_layers(args.workload, tally.layers)
    else:
        for name, m in metrics.items():
            print_metric(name, m["value"], m["unit"])
        print_metric("failed_frac",
                     tally.failed / max(tally.attempted, 1), "ratio")
        if args.workload in CAMPAIGNS and tally.records:
            print_metric("vulnerability", vulnerability(tally.records),
                         "ratio")
        elif tally.records:
            cells = tally.records[fault_seeds[0]]
            for name, v in sweep_overheads(cells).items():
                print_metric(name, v, "ratio")

    correct = rc == 0 and tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if rc == 0 else 1


def regenerate_reference(args):
    """Record one call's records per fault seed for every workload."""
    binary = build()
    env = bench_env(args.jobs)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        seeds = (CAMPAIGN_SEEDS + (HELD_OUT_SEED,)
                 if workload in CAMPAIGNS else CAMPAIGN_SEEDS[:1])
        records = {}
        for seed in seeds:
            tally = Tally({})
            rc, _ = run_bench(
                bench_cmd(binary, workload, (seed,), "run"), env, tally)
            recs = tally.records.get(seed, {})
            if rc != 0 or len(recs) != tally.attempted:
                raise BenchError("reference run of %s (seed %d) failed"
                                 % (workload, seed))
            records[seed_key(workload, seed)] = recs
            log("%s seed %s: %d records" % (workload, seed, len(recs)))
        write_reference(workload, records)


def write_reference(workload, records):
    # One op per line keeps the file diffable.
    lines = ['{"workload": %s, "records": {' % json.dumps(workload)]
    for i, (seed, recs) in enumerate(records.items()):
        ops = ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(v))
                         for k, v in recs.items())
        lines.append(' %s: {\n%s\n }%s' % (
            json.dumps(seed), ops, "," if i + 1 < len(records) else ""))
    lines.append("}}")
    with open(reference_path(workload), "w") as f:
        f.write("\n".join(lines) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="rotates the round of campaign fault seeds")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault-seed", type=int,
                   help="run only this campaign fault seed (e.g. the "
                        "held-out %d)" % HELD_OUT_SEED)
    p.add_argument("--jobs", type=int,
                   default=min(4, os.cpu_count() or 1),
                   help="campaign workers (TURNPIKE_JOBS)")
    p.add_argument("--regenerate-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.regenerate_reference and not args.workload:
        p.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        if args.regenerate_reference:
            regenerate_reference(args)
            return 0
        return run_benchmark(args)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
