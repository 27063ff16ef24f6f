#!/usr/bin/env python3
"""The AVMEM repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the runner
(perfbench/runner.cpp, linked against the library built from this
checkout) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
generates the workload's inputs from --seed, runs the runner, checks its
outputs and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, taken from a run that
records spans (written as Chrome trace-event JSON under the build
directory) and prints an attribution report on stderr.

The line before the result is a JSON report: the machine and build
descriptor, the simulation digest, and the raw per-rep numbers.

Workloads (why each was chosen is recorded in BENCHMARK.json):
  paper-avmon   the paper's 1442-host AVMON/SHA-1 world (warm-up shortened
                to 4 h), then a paper-style operation batch;
  serve-ops     a warm 20k-node scale-avmon world restored from an
                in-memory checkpoint, then an open-loop operation stream.

The benchmark seed is never passed to the program: the simulation seed and
every operation are derived from it here with counter-based draws.
"""

import argparse
import contextlib
import fcntl
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: A second seed, held out while the benchmark was written, for checking a
#: later performance claim on inputs it was not tuned on.
HELD_OUT_SEED = 904_2007

# --- metrics -------------------------------------------------------------------
#
# BENCHMARK.json declares every metric's name, unit and direction. What it
# cannot hold is kept here: for each per-layer metric, the end-to-end
# metrics it should move and the workloads it should move them on.

ALL = ("paper-avmon", "serve-ops")
MOVES = {
    # sim: the event loop, reported from outside.
    "sim.events": ("wall_s", ("paper-avmon", "serve-ops")),
    "sim.events_per_s": ("wall_s", ("paper-avmon", "serve-ops")),
    "sim.unattributed_s": ("wall_s", ("paper-avmon", "serve-ops")),
    # core: membership maintenance (Discovery/Refresh plan/commit).
    "core.plan_s": ("wall_s cpu_s", ALL),
    "core.commit_s": ("wall_s cpu_s", ALL),
    "core.plan_share": ("wall_s cpu_s", ALL),
    "core.rounds": ("wall_s cpu_s", ALL),
    "core.rounds_per_s": ("wall_s cpu_s", ALL),
    "core.feed_candidates": ("wall_s cpu_s", ("serve-ops",)),
    # core: management operations.
    "core.anycast_self_s": ("ops_per_s", ("serve-ops",)),
    "core.anycast_us_per_op": ("ops_per_s", ("serve-ops",)),
    "core.multicast_self_s": ("ops_per_s", ("serve-ops",)),
    "core.multicast_ms_per_op": ("ops_per_s", ("serve-ops",)),
    "core.maint_share": ("ops_per_s", ("serve-ops",)),
    "core.anycast_hops_p50": ("anycast_lat_p50_ms", ("serve-ops",)),
    "core.multicast_spam_ratio": ("multicast_reliability", ("serve-ops",)),
    "core.late_ops": ("ops_per_s", ("serve-ops",)),
    # avmon: the shuffle substrate and the monitoring overlay.
    "avmon.shuffle_plan_s": ("wall_s", ALL),
    "avmon.shuffle_commit_s": ("wall_s", ALL),
    "avmon.shuffles": ("wall_s", ALL),
    "avmon.pings_sent": ("wall_s", ("paper-avmon", "serve-ops")),
    "avmon.ping_bytes": ("wall_s", ("paper-avmon", "serve-ops")),
    "avmon.query_ns": ("wall_s", ("paper-avmon", "serve-ops")),
    "avmon.mae": ("op_success_frac", ("paper-avmon", "serve-ops")),
    # hash: the workload's own pair hash.
    "hash.pair_ns": ("wall_s", ALL),
    # trace: the ground-truth churn model.
    "trace.build_s": ("setup_s", ("paper-avmon",)),
    "trace.model_mb": ("peak_rss_mb", ("paper-avmon",)),
    "trace.query_ns": ("setup_s", ("paper-avmon",)),
    # net: the simulated wire.
    "net.sent": ("ops_per_s", ("serve-ops",)),
    "net.delivered": ("ops_per_s", ("serve-ops",)),
    "net.bytes": ("ops_per_s", ("serve-ops",)),
    "net.ack_timeouts": ("ops_per_s", ("serve-ops",)),
    "net.dropped_offline": ("ops_per_s", ("serve-ops",)),
    "net.rejected": ("ops_per_s", ("serve-ops",)),
    "net.msgs_per_op": ("ops_per_s", ("serve-ops",)),
    # snapshot: checkpoint save/restore.
    "snapshot.save_s": ("setup_s", ("serve-ops",)),
    "snapshot.restore_s": ("setup_s", ("serve-ops",)),
    "snapshot.mb": ("peak_rss_mb", ("serve-ops",)),
    # the benchmark's own span recorder.
    "bench.trace_overhead_share": ("wall_s", ALL),
}


def declared_units(kind):
    """name -> unit of the `kind` ("end_to_end" or "per_layer") metrics
    BENCHMARK.json declares."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


#: Floors a correct run stays above, per workload: a run below them has a
#: broken overlay or broken operations, whatever its digest. They sit well
#: under the lowest value seen over the ~30 seeds tried per workload.
FLOORS = {
    "paper-avmon": {"mean_degree": 6.0, "op_success_frac": 0.6,
                    "multicast_reliability": 0.3},
    "serve-ops": {"mean_degree": 10.0, "op_success_frac": 0.6,
                  "multicast_reliability": 0.3},
}
#: The self-test footprint's worlds barely converge; its floors only catch
#: an overlay or an operation path that does nothing at all.
TINY_FLOORS = {"mean_degree": 1.0, "op_success_frac": 0.05,
               "multicast_reliability": 0.005}


def tail_percentile(samples, want=0.99, beyond=10):
    """The `want` percentile of `samples`, or the highest percentile below
    it that leaves at least `beyond` samples above it (nearest rank).
    Returns (value, percentile used); (nan, 0.0) when no percentile
    leaves that many."""
    n = len(samples)
    if n <= beyond:
        return math.nan, 0.0
    q = min(want, (n - beyond) / n)
    rank = max(1, math.ceil(q * n - 1e-9))
    return sorted(samples)[rank - 1], q


def median(values):
    return statistics.median(values) if values else math.nan


# --- counter-based draws ---------------------------------------------------------

MASK = (1 << 64) - 1


def _mix(x):
    """SplitMix64 finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def draw(seed, stream, i):
    """The i-th 64-bit draw of a named stream: a pure function of
    (seed, stream, i), so inputs never depend on draw order."""
    label = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return _mix(_mix((seed & MASK) ^ label) ^ _mix(i))


def uniform(seed, stream, i, lo, hi):
    return lo + (hi - lo) * (draw(seed, stream, i) >> 11) / float(1 << 53)


# --- workloads -------------------------------------------------------------------

# Anycast targets per initiator band, chosen outside the band so that no
# initiator answers its own anycast: (shape, lower-bound range, width
# range). Ground-truth availability is uptime over the elapsed 20-minute
# epochs, so right after a short warm-up it takes few distinct values (only
# multiples of 1/4 at one hour); every range is at least 0.25 wide, so it
# always holds some of them.
TARGETS = {
    "low": [("thr", (0.55, 0.70), None), ("rng", (0.40, 0.50), (0.25, 0.35))],
    "mid": [("thr", (0.70, 0.80), None), ("rng", (0.00, 0.05), (0.25, 0.30))],
    "high": [("rng", (0.05, 0.10), (0.25, 0.30)), ("rng", (0.30, 0.36), (0.25, 0.30))],
}
BANDS = ("low", "mid", "high")

# Simulated-time slots of the open-loop schedule (an operation due while
# the previous one still runs starts late; the lateness is reported).
FLOOD_SLOT_MS = 45_000   # multicast horizon: 10 s entry + 30 s flood
GOSSIP_SLOT_MS = 115_000  # 10 s entry + (rounds+1) * 24 s gossip + 30 s
SETTLE_MS = 3_000  # after an anycast batch's last launch


def _strata(seed, stream, n, lo, hi):
    """n draws from [lo, hi], one in each of n equal strata, in a seeded
    order: every seed covers the interval evenly, so per-seed aggregates
    vary little from seed to seed."""
    order = sorted(range(n), key=lambda j: draw(seed, stream + ".order", j))
    return [lo + (hi - lo) * (j + uniform(seed, stream, j, 0.0, 1.0)) / n
            for j in order]


def op_stream(seed, batches, per_batch, stagger_ms, multicasts):
    """The operation schedule: `batches` anycast batches of `per_batch` on
    a fixed stagger, cycling through the bands and the two targets of each
    band, with the multicast-type operations (`multicasts`: (kind, mode)
    pairs) spread evenly between them. Targets and initiator bands are
    drawn from the seed; the initiators themselves are drawn inside the
    program from the simulation seed. Each operation is due at a fixed
    simulated time: its predecessors' slots summed."""
    anycasts = [None] * batches
    for band_i, band in enumerate(BANDS):
        for which in (0, 1):
            ks = [k for k in range(batches) if k % 3 == band_i and (k // 3) % 2 == which]
            shape, (lo, hi), width = TARGETS[band][which]
            stream = f"any.{band}.{which}"
            los = _strata(seed, stream, len(ks), lo, hi)
            widths = _strata(seed, stream + ".w", len(ks), *(width or (0.0, 0.0)))
            for k, a, w in zip(ks, los, widths):
                b = min(1.0, a + w) if shape == "rng" else 0.0
                anycasts[k] = ("any", band, "-", shape, a, b, per_batch, stagger_ms)
    n = len(multicasts)
    thresholds = _strata(seed, "mc.thr", n, 0.55, 0.70)
    range_los = _strata(seed, "mc.lo", n, 0.05, 0.60)
    range_ws = _strata(seed, "mc.w", n, 0.25, 0.35)
    mcs = []
    for i, (kind, mode) in enumerate(multicasts):
        band = BANDS[draw(seed, "mc.band", i) % 3]
        if kind == "mc" and i % 2 == 0:
            mcs.append((kind, band, mode, "thr", thresholds[i], 0.0, 1, 0))
        else:
            mcs.append((kind, band, mode, "rng", range_los[i],
                        range_los[i] + range_ws[i], 1, 0))
    mcs = [op for _, op in sorted((draw(seed, "mc.order", i), op)
                                  for i, op in enumerate(mcs))]
    after = {round((j + 1) * batches / (n + 1)): j for j in range(n)}
    ops, due = [], 0
    for k in range(batches + 1):
        if k in after:
            op = mcs[after[k]]
            ops.append(op + (due,))
            due += FLOOD_SLOT_MS if op[2] == "flood" else GOSSIP_SLOT_MS
        if k < batches:
            ops.append(anycasts[k] + (due,))
            due += per_batch * stagger_ms + SETTLE_MS
    return ops


def _mix_of(flood, gossip, agg):
    return [("mc", "flood")] * flood + [("mc", "gossip")] * gossip + \
        [("agg", "flood")] * agg


# Workload shapes. At a 20-minute epoch boundary every node's ground-truth
# availability moves (and every cached one goes stale until its next
# refresh): serve-ops' operation phase (69 to ~79 sim-minutes) ends before
# the 80-minute boundary; paper-avmon's (~32 sim-minutes from 4 h) crosses
# two, where availabilities averaged over 12 and more epochs move by at
# most 1/13.
#
# Every workload plans on one thread (paper-default would anyway). On a
# shared host, a parallel plan phase waits at every barrier for any vCPU
# the host deschedules, and such spells made the wall of the same rep
# vary by up to 4x; no speed probe predicted that well enough. serve-ops'
# warm-up, which is not measured, plans on one thread too: on four it
# took from 12 s to about 70 s, on one a steady 25 s.
WORKLOADS = {
    "paper-avmon": dict(world="paper", hosts=0, warm_s=4 * 3_600, slices=16,
                        prewarm_s=0, setup_reps=15, min_reps=3,
                        ops=lambda seed: op_stream(seed, 60, 50, 200, _mix_of(16, 2, 4))),
    "serve-ops": dict(world="scale-avmon", hosts=20_000, warm_s=0, slices=1,
                      prewarm_s=69 * 60, setup_reps=0, min_reps=3,
                      ops=lambda seed: op_stream(seed, 30, 100, 10, _mix_of(6, 1, 2))),
}

#: The self-test footprint: the same worlds and schedules, shrunk.
TINY = {
    "paper-avmon": dict(warm_s=3_600, setup_reps=2, min_reps=2,
                        ops=lambda seed: op_stream(seed, 6, 10, 200, _mix_of(1, 1, 1))),
    "serve-ops": dict(hosts=1_500, min_reps=2,
                      ops=lambda seed: op_stream(seed, 6, 10, 10, _mix_of(1, 1, 1))),
}


#: Plan-phase threads of the measured reps (see WORKLOADS).
PLAN_THREADS = 1


def make_plan(workload, seed, seconds, trace, trace_out, tiny=False):
    """The runner's stdin: everything the program receives."""
    w = dict(WORKLOADS[workload])
    if tiny:
        w.update(TINY[workload])
    lines = [
        f"world {w['world']}",
        f"hosts {w['hosts']}",
        f"sim_seed {draw(seed, 'sim-seed', 0) | 1}",
        f"threads {PLAN_THREADS}",
        f"warm_s {w['warm_s']}",
        f"slices {w['slices']}",
        f"prewarm_s {w['prewarm_s']}",
        f"seconds {seconds}",
        f"min_reps {w['min_reps']}",
        f"setup_reps {w['setup_reps']}",
        f"probe_every_s {PROBE_EVERY_S}",
        f"trace {int(trace)}",
        f"trace_out {trace_out}",
    ]
    for kind, band, mode, shape, a, b, count, stagger, due in w["ops"](seed):
        lines.append(f"op {kind} {band} {mode} {shape} {a!r} {b!r} "
                     f"{count} {stagger} {due}")
    return "\n".join(lines) + "\n"


# --- build ----------------------------------------------------------------------------


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def source_hash(root):
    """SHA-256 over the sources the runner is built from (the checkout is
    not a git repository, so this stands in for the commit hash)."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in (os.path.join(root, "src"), HERE):
        for d, _, files in sorted(os.walk(top)):
            paths += [os.path.join(d, f) for f in sorted(files)
                      if f.endswith((".cpp", ".hpp", ".txt"))]
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(out):
    """Configure and build the runner; build logs go to stderr."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
        subprocess.run(["cmake", "--build", out, "--target", "perfbench_runner",
                        "-j", str(nproc())],
                       stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(out, "perfbench_runner")


def nproc():
    return len(os.sched_getaffinity(0))


# --- run & check --------------------------------------------------------------------


def run_runner(binary, plan, timeout):
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVMEM_")}
    proc = subprocess.run([binary], input=plan, capture_output=True, text=True,
                          env=env, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with code {proc.returncode}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    out = {"rep": [], "setup": []}
    for line in lines:
        kind = line.pop("type")
        if kind in out:
            out[kind].append(line)
        else:
            out[kind] = line
    return out


def sim_metrics(sim):
    """Simulated (deterministic) metrics and the percentiles they used."""
    sim = {k: math.nan if v is None else v for k, v in sim.items()}
    delivered = sim["anycast_lat_ms"]
    p99, q = tail_percentile(delivered)
    operations = sim["operations"]
    ok = sim["anycasts_delivered"] + sim["multicasts_reached"]
    return {
        "op_success_frac": ok / operations if operations else math.nan,
        "anycast_lat_p50_ms": median(delivered),
        "anycast_lat_p99_ms": p99,
        "multicast_reliability": (sim["mc_delivered"] / sim["mc_eligible"]
                                  if sim["mc_eligible"] else math.nan),
        "multicast_lat_p50_ms": sim["flood_p50_ms"],
        "mean_degree": sim["mean_degree"],
    }, {"anycast_tail_percentile": q, "anycast_samples": len(delivered),
        "flood_deliveries": sim["flood_deliveries"],
        "gossip_lat_p50_ms": sim["gossip_p50_ms"],
        "ops_end_min": sim["end_min"]}


#: Kinds of measured section (runner.cpp's Section): warm-up slices, and
#: the operation phase's idle gaps, anycast batches and multicasts.
OP_SECTIONS = "iam"

# --- host speed ------------------------------------------------------------------
#
# The host's speed drifts by tens of percent over minutes; no estimator
# over one rep's own times filters that. So every rep also times a fixed
# reference work (runner.cpp's SpeedProbe, code of the benchmark's own
# that does not touch the library under test) every PROBE_EVERY_S of
# measured time all through the rep, and around every setup. Host times
# are stated at a fixed probe speed: a rep that took W s while the probe
# took P s on average is reported as W * PROBE_REF_S / P. A change of the
# library moves W and not P.

#: Measured host time between two speed probes.
PROBE_EVERY_S = 0.1
#: The probe time that host times are stated at (about what one probe
#: takes on the unloaded 4-vCPU machine the benchmark was written on).
PROBE_REF_S = 0.01


def host_scale(rep):
    """Factor stating the rep's host wall times at the reference probe speed."""
    return PROBE_REF_S / statistics.fmean(rep["probe_wall_s"])


def cpu_scale(rep):
    """The same for CPU times, from the probe's CPU time."""
    return PROBE_REF_S / statistics.fmean(rep["probe_cpu_s"])


def op_wall(rep):
    """Host wall time of the rep's operation phase (its op sections)."""
    return sum(w for kind, w in zip(rep["sections"], rep["sec_wall_s"])
               if kind in OP_SECTIONS)


def end_to_end(out, sim):
    """Host metrics at the reference probe speed, each the median over the
    reps, and the simulated metrics."""
    reps = out["rep"]
    scale = [host_scale(r) for r in reps]
    # Each setup is scaled by the probes taken around it.
    setups = [(s["setup_s"], s["probe_s"]) for s in out["setup"]] + \
        [(r["setup_s"], r["setup_probe_s"]) for r in reps]
    m = {
        "setup_s": median([w * PROBE_REF_S / p for w, p in setups]),
        "wall_s": median([r["wall_s"] * f for r, f in zip(reps, scale)]),
        "cpu_s": median([r["cpu_s"] * cpu_scale(r) for r in reps]),
        # Over the first rep (the runner restarts the high-water mark after
        # discarding the worlds it built beforehand); later reps only add
        # allocator fragmentation.
        "peak_rss_mb": reps[0]["peak_rss_mb"],
        "ops_per_s": median([r["operations"] / (op_wall(r) * f)
                             for r, f in zip(reps, scale)]),
    }
    m.update(sim)
    return m


def median_rep(reps):
    """The rep whose wall time is the (lower) median: per-layer times all
    come from this one rep, so they add up to its wall."""
    ordered = sorted(reps, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(out):
    r = median_rep(out["rep"])
    wall = r["wall_s"]
    sim = out["sim"]
    ops = r["operations"]
    sections = list(zip(r["sections"], r["sec_wall_s"], r["sec_maint_s"]))
    # An operation's self time: its section minus the maintenance that
    # accrued inside it.
    anycast_self = sum(w - mt for kind, w, mt in sections if kind == "a")
    multicast_self = sum(w - mt for kind, w, mt in sections if kind == "m")
    maint = r["planS"] + r["commitS"] + r["shufflePlanS"] + r["shuffleCommitS"]
    attributed = maint + anycast_self + multicast_self
    checkpoint = out.get("checkpoint")
    m = {
        "sim.events": r["events"],
        "sim.events_per_s": r["events"] / wall,
        "sim.unattributed_s": wall - attributed,
        "core.plan_s": r["planS"],
        "core.commit_s": r["commitS"],
        "core.plan_share": r["planS"] / wall,
        "core.rounds": r["rounds"],
        "core.rounds_per_s": r["rounds"] / wall,
        "core.feed_candidates": r["feedCandidates"],
        "core.anycast_self_s": anycast_self,
        "core.anycast_us_per_op": anycast_self * 1e6 / max(1, sim["anycasts"]),
        "core.multicast_self_s": multicast_self,
        "core.multicast_ms_per_op": multicast_self * 1e3 / max(1, sim["multicasts"]),
        "core.maint_share": maint / wall,
        "core.anycast_hops_p50": median(sim["anycast_hops"]),
        "core.multicast_spam_ratio": (sim["mc_spam"] / sim["mc_eligible"]
                                      if sim["mc_eligible"] else 0.0),
        "core.late_ops": sim["late_ops"],
        "avmon.shuffle_plan_s": r["shufflePlanS"],
        "avmon.shuffle_commit_s": r["shuffleCommitS"],
        "avmon.shuffles": r["shuffles"],
        "avmon.pings_sent": r["pingsSent"],
        "avmon.ping_bytes": r["pingBytes"],
        "avmon.query_ns": r["avmon_query_ns"],
        "avmon.mae": sim["avmon_mae"],
        "hash.pair_ns": r["hash_pair_ns"],
        "trace.build_s": r["trace_build_s"],
        "trace.model_mb": r["model_mb"],
        "trace.query_ns": r["trace_query_ns"],
        "net.sent": r["netSent"],
        "net.delivered": r["netDelivered"],
        "net.bytes": r["netBytes"],
        "net.ack_timeouts": r["ackTimeouts"],
        "net.dropped_offline": r["droppedOffline"],
        "net.rejected": r["rejected"],
        "net.msgs_per_op": r["ops_net_sent"] / max(1, ops),
        "snapshot.save_s": checkpoint["save_s"] if checkpoint else r["probe_save_s"],
        "snapshot.restore_s": r["restore_s"] if checkpoint else r["probe_restore_s"],
        "snapshot.mb": checkpoint["mb"] if checkpoint else r["probe_snapshot_mb"],
        "bench.trace_overhead_share": r["trace_overhead_s"] / wall,
    }
    layers = [
        ("core.plan (membership plan)", r["planS"]),
        ("core.commit (membership commit)", r["commitS"]),
        ("avmon.shuffle_plan", r["shufflePlanS"]),
        ("avmon.shuffle_commit", r["shuffleCommitS"]),
        ("core.anycast (self)", anycast_self),
        ("core.multicast (self)", multicast_self),
        ("sim.unattributed", wall - attributed),
    ]
    report = {"wall_s": wall, "rep": r["i"],
              "scaled_wall_s": median([x["wall_s"] * host_scale(x) for x in out["rep"]]),
              "layers": {name: {"self_s": s, "share": s / wall} for name, s in layers},
              "maint_share": maint / wall,
              "ops_dominate": maint / wall < 0.5,
              "trace_overhead_s": r["trace_overhead_s"],
              "spans": r["spans"]}
    return m, report


def print_attribution(workload, report, untraced_wall):
    err = sys.stderr
    print(f"\nattribution ({workload}, rep {report['rep']}, measured wall "
          f"{report['wall_s']:.4f} s):", file=err)
    for name, v in report["layers"].items():
        print(f"  {name:34s} {v['self_s']:10.4f} s  {100 * v['share']:6.2f} %", file=err)
    print(f"  maintenance share of the wall: {report['maint_share']:.3f} "
          f"({'operations dominate' if report['ops_dominate'] else 'maintenance dominates'})",
          file=err)
    print(f"  tracing overhead: {report['trace_overhead_s'] * 1e3:.3f} ms in the "
          f"span recorder over {report['spans']} spans"
          + (f"; traced/untraced wall_s (at the reference probe speed, both) "
             f"{report['scaled_wall_s'] / untraced_wall:.3f}"
             if untraced_wall else ""), file=err)


@contextlib.contextmanager
def digest_store(out):
    """Digests (and untraced walls) recorded by earlier runs of this build."""
    path = os.path.join(out, "digests.json")
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            with open(path) as f:
                store = json.load(f)
        except (OSError, ValueError):
            store = {}
        yield store
        with open(path + ".tmp", "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)


def check(out, sim, floors, store_entry):
    """Reasons the run is not correct (empty when it is)."""
    problems = []
    digest = out["sim"]["digest"]
    for r in out["rep"]:
        if r["digest"] != digest:
            problems.append(f"rep {r['i']} digest {r['digest']} != {digest}")
        if r["sections"] != out["rep"][0]["sections"]:
            problems.append(f"rep {r['i']} measured other sections than rep 0")
    if store_entry.get("digest", digest) != digest:
        problems.append(f"digest {digest} differs from an earlier run of this "
                        f"workload and seed ({store_entry['digest']})")
    if out["sim"]["inconsistent"]:
        problems.append(f"{out['sim']['inconsistent']} self-contradictory results")
    for name, floor in floors.items():
        if not sim[name] >= floor:
            problems.append(f"{name} {sim[name]} below its floor {floor}")
    for name, value in sim.items():
        if not math.isfinite(value) or value <= 0:
            problems.append(f"{name} is {value}")
    return problems


def _finite(x):
    """`x` with NaN and infinities replaced by null (strict JSON)."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test footprint (small worlds, short schedules)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("run.py: run from the root of an AVMEM source checkout", file=sys.stderr)
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    footprint = "tiny" if args.tiny else "full"
    trace_out = os.path.abspath(os.path.join(
        out_dir, "traces", f"{args.workload}-{footprint}-s{args.seed}.json"))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    plan = make_plan(args.workload, args.seed, args.seconds, args.trace,
                     trace_out, tiny=args.tiny)
    try:
        out = run_runner(binary, plan, timeout=150)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    sim, sim_info = sim_metrics(out["sim"])
    if args.trace:
        metrics, attribution = per_layer(out)
        units = declared_units("per_layer")
    else:
        metrics = end_to_end(out, sim)
        units = declared_units("end_to_end")

    key = f"{footprint}/{args.workload}/{args.seed}"
    with digest_store(out_dir) as store:
        src = source_hash(root)
        if store.get("source") != src:
            store.clear()
            store["source"] = src
        entry = store.setdefault("runs", {}).setdefault(key, {})
        floors = TINY_FLOORS if args.tiny else FLOORS[args.workload]
        problems = check(out, sim, floors, entry)
        problems += [f"{k} is {v}" for k, v in metrics.items() if not math.isfinite(v)]
        untraced_wall = entry.get("untraced_wall_s")
        if not problems:
            entry["digest"] = out["sim"]["digest"]
            if not args.trace:
                entry["untraced_wall_s"] = metrics["wall_s"]

    report = {
        "workload": args.workload, "seed": args.seed, "footprint": footprint,
        "descriptor": dict(out["descriptor"], nproc=nproc(), plan_threads=PLAN_THREADS,
                           effective_plan_threads=out["sim"]["effective_threads"],
                           commit=git_commit(root), source_sha256=src),
        "digest": out["sim"]["digest"], "problems": problems, **sim_info,
        "events": out["rep"][0]["events"],
        "rep_wall_s": [r["wall_s"] for r in out["rep"]],
        "rep_cpu_s": [r["cpu_s"] for r in out["rep"]],
        "rep_probe_ms": [1e3 * statistics.fmean(r["probe_wall_s"]) for r in out["rep"]],
        "setup_samples_s": [s["setup_s"] for s in out["setup"] + out["rep"]],
        "metrics": metrics,
    }
    if args.trace:
        report["attribution"] = attribution
        report["trace_file"] = os.path.relpath(trace_out, root)
        print_attribution(args.workload, attribution, untraced_wall)
    print(json.dumps(_finite(report)))

    correct = not problems
    for p in problems:
        print(f"run.py: INCORRECT: {p}", file=sys.stderr)
    attempted = sum(r["operations"] for r in out["rep"])
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": 0 if correct else int(attempted),
        "metrics": ({k: {"value": metrics[k], "unit": u} for k, u in units.items()}
                    if correct else {}),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
