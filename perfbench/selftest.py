#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it builds the runner like run.py
does). It checks that BENCHMARK.json is well formed and that run.py says,
for each per-layer metric, what it should move; that the percentile helper keeps at least ten samples beyond the
percentile it reports, that inputs are a pure function of the seed, and
it runs a tiny footprint of every workload end to end, untraced and
traced: every declared metric must appear with its unit, the traced run
must reproduce the untraced digest, its Chrome trace must load and its
per-layer self times must add up to the measured wall. Finally it shows
that the digest check can fail: another seed gives another digest, and a
run whose recorded digest was tampered with is reported incorrect, with
no metrics.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def bench(workload, seed, trace):
    """Run run.py on the tiny footprint; (result, report)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"selftest: {workload} seed {seed} trace {trace} printed "
                         f"no result (exit {proc.returncode})\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def check_benchmark_json():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(spec["paths"] == ["perfbench"], "paths")
    expect(spec["command"] == ["python3", "perfbench/run.py"], "command")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "workload names match run.WORKLOADS")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w['name']}")
    for key in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in spec[key]}
        expect(len(declared) == len(spec[key]), f"{key}: duplicate names")
        for name, m in declared.items():
            want = {"name", "unit", "better", "bound"} if key == "end_to_end" else \
                {"name", "unit", "better"}
            expect(set(m) == want, f"{name}: keys")
            expect(NAME.match(name) is not None, f"{name}: name syntax")
            expect(UNIT.match(m["unit"]) is not None, f"{name}: unit syntax")
            expect(m["better"] in ("lower", "higher"), f"{name}: better")
            if key == "end_to_end":
                expect(0 < m["bound"] <= 0.25, f"{name}: bound")
    setup = {m["name"]: m for m in spec["end_to_end"]}.get("setup_s", {})
    expect(setup.get("unit") == "s" and setup.get("better") == "lower", "setup_s")
    expect(setup.get("bound") == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name in (m["name"] for m in spec["per_layer"]):
        moves, on = run.MOVES.get(name, ("", ()))
        expect(moves and all(m in end_to_end for m in moves.split()),
               f"{name}: run.MOVES names no end-to-end metric it moves")
        expect(on and all(w in run.WORKLOADS for w in on), f"{name}: workloads")


def check_percentile():
    for n in (11, 12, 50, 99, 100, 101, 500, 999, 1000, 1001, 5000):
        samples = list(range(n, 0, -1))  # unsorted on purpose
        value, q = run.tail_percentile(samples)
        beyond = sum(1 for s in samples if s > value)
        expect(beyond >= 10, f"percentile n={n}: only {beyond} samples beyond")
        expect(q <= 0.99, f"percentile n={n}: q={q}")
        if n >= 1000:
            expect(q == 0.99 and value == math.ceil(0.99 * n), f"p99 at n={n}")
        else:
            expect(beyond == 10, f"n={n}: not the highest such percentile")
    expect(math.isnan(run.tail_percentile(list(range(10)))[0]), "n=10 has no tail")


def check_host_scale():
    rep = {"wall_s": 4.0, "cpu_s": 4.0, "setup_s": 0.5, "setup_probe_s": 0.01,
           "operations": 10, "peak_rss_mb": 10.0, "sections": "wai",
           "sec_wall_s": [2.0, 1.5, 0.5], "probe_wall_s": [0.01, 0.03],
           "probe_cpu_s": [0.01, 0.03]}
    # The same rep on a host half as fast: every time doubles, the probe's too.
    slow = dict(rep, wall_s=8.0, cpu_s=8.0, setup_s=1.0, setup_probe_s=0.02,
                sec_wall_s=[4.0, 3.0, 1.0], probe_wall_s=[0.02, 0.06],
                probe_cpu_s=[0.02, 0.06])
    # A slower program on the same host: the probe does not move.
    worse = dict(rep, wall_s=8.0, cpu_s=8.0, setup_s=1.0, sec_wall_s=[4.0, 3.0, 1.0])
    fast, half, regressed = (run.end_to_end({"rep": [r], "setup": []}, {})
                             for r in (rep, slow, worse))
    expect(math.isclose(fast["wall_s"], 2.0), "wall at the reference probe speed")
    for name in ("setup_s", "wall_s", "cpu_s", "ops_per_s"):
        expect(math.isclose(fast[name], half[name]), f"host speed moves {name}")
        ratio = regressed[name] / fast[name]
        expect(math.isclose(ratio, 0.5 if name == "ops_per_s" else 2.0),
               f"a slower program moves {name} by {ratio}")


def check_inputs():
    for w in run.WORKLOADS:
        a = run.make_plan(w, 5, 10, 0, "t.json")
        expect(a == run.make_plan(w, 5, 10, 0, "t.json"), f"{w}: plan not pure")
        expect(a != run.make_plan(w, 6, 10, 0, "t.json"), f"{w}: seed unused")
        expect("sim_seed 5\n" not in a, f"{w}: the benchmark seed reaches the program")


def check_runs():
    seed = 3
    for w in run.WORKLOADS:
        untraced, report0 = bench(w, seed, 0)
        traced, report1 = bench(w, seed, 1)
        for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
            units = run.declared_units(kind)
            expect(result["correct"], f"{w}: incorrect: {report0['problems']}"
                   f" {report1['problems']}")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{w}: counts")
            got = result["metrics"]
            expect(set(got) == set(units), f"{w}: metric names")
            for name, unit in units.items():
                m = got.get(name, {})
                expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float))
                       and math.isfinite(m["value"]), f"{w}: {name} = {m}")
        expect(report0["digest"] == report1["digest"], f"{w}: traced digest differs")
        for key in ("compiler", "build_type", "avmem_simd", "nproc", "plan_threads",
                    "effective_plan_threads", "commit", "source_sha256"):
            expect(key in report0["descriptor"], f"{w}: descriptor lacks {key}")
        with open(report1["trace_file"]) as f:
            events = json.load(f)["traceEvents"]
        expect(events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
               f"{w}: trace events")
        att = report1["attribution"]
        total = sum(v["self_s"] for v in att["layers"].values())
        expect(abs(total - att["wall_s"]) <= 1e-9 * max(1.0, att["wall_s"]),
               f"{w}: layers sum to {total}, wall {att['wall_s']}")

    # The digest check can fail.
    _, other = bench("paper-avmon", seed + 1, 0)
    _, same = bench("paper-avmon", seed, 0)
    expect(other["digest"] != same["digest"], "another seed, same digest")
    path = os.path.join(run.build_dir(), "digests.json")
    with open(path) as f:
        store = json.load(f)
    key = f"tiny/paper-avmon/{seed}"
    store["runs"][key]["digest"] = other["digest"]
    with open(path, "w") as f:
        json.dump(store, f)
    tampered, report = bench("paper-avmon", seed, 0)
    expect(not tampered["correct"] and tampered["metrics"] == {}
           and any("differs from an earlier run" in p for p in report["problems"]),
           "a digest mismatch is not reported")
    store["runs"][key]["digest"] = same["digest"]
    with open(path, "w") as f:
        json.dump(store, f)


def main():
    check_benchmark_json()
    check_percentile()
    check_host_scale()
    check_inputs()
    check_runs()
    print(f"selftest: {'FAILED (' + str(len(failures)) + ')' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
