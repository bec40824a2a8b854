#!/usr/bin/env python3
"""Campaign benchmark of the HyperMapper/KFusion stack.

    python3 perfbench/run.py --workload kfusion_dse|kfusion_isolated|served_synthetic
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--save FILE] [--compare FILE]

Builds perfbench_driver and hm_serve from the checkout it sits in (into
.bench_build, or $CARGO_TARGET_DIR), runs one workload, checks the outputs,
prints every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, their times at a
reference host speed (README "Host speed"); with --trace 1 the run is
traced and the metrics are the per-layer ledger. --save writes the full
result with its host/build fingerprint; --compare prints the ratios against
a saved result (or perfbench/baseline.json) and refuses when the
fingerprints differ. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402

WORKLOADS = ("kfusion_dse", "kfusion_isolated", "served_synthetic")
KFUSION = ("kfusion_dse", "kfusion_isolated")
FINGERPRINT_KEYS = ("cpu", "nproc", "compiler", "build_type", "simd", "hm_trace")
BUILD_SECONDS = 840
RUN_SECONDS = 170

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "campaign_tail_s": "s",
    "evals_per_s": "1/s",
    "eval_mean_ms": "ms",
    "eval_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "best_fps_5cm": "FPS",
    "front_hv": "1",
}

KERNEL_OPS = ("downsample", "bilateral", "pyramid", "vertex_normal", "icp",
              "solve", "integrate", "raycast")

PER_LAYER = dict(
    [
        ("dataset.render_s", "s"),
        ("kfusion.frame_s", "s"),
        ("kfusion.tracking_s", "s"),
        ("kfusion.integration_s", "s"),
        ("kfusion.preprocess_s", "s"),
        ("kfusion.outside_frames_s", "s"),
    ]
    + [("kfusion.ops.%s" % k, "count") for k in KERNEL_OPS]
    + [
        ("slambench.eval_busy_s", "s"),
        ("slambench.cache_hit_ratio", "ratio"),
        ("slambench.modeled_s", "s"),
        ("slambench.host_s", "s"),
        ("thread_pool.batch_wall_s", "s"),
        ("thread_pool.idle_share", "ratio"),
        ("thread_pool.tasks", "count"),
        ("thread_pool.steals", "count"),
        ("hypermapper.propose_s", "s"),
        ("hypermapper.propose_share", "ratio"),
        ("hypermapper.batches", "count"),
        ("hypermapper.evals", "count"),
        ("hypermapper.quarantined", "count"),
        ("rf.fit_s", "s"),
        ("rf.predict_s", "s"),
        ("sandbox.eval_p50_ms", "ms"),
        ("sandbox.spawns", "count"),
        ("sandbox.requests", "count"),
        ("sandbox.recycles", "count"),
        ("sandbox.protocol_errors", "count"),
        ("sandbox.fallbacks", "count"),
        ("journal.records", "count"),
        ("journal.bytes", "bytes"),
        ("serve.ping_p50_ms", "ms"),
        ("serve.ping_tail_ms", "ms"),
        ("serve.progress_frames", "count"),
        ("serve.busy", "count"),
        ("serve.overhead_s", "s"),
        ("serve.evals_delivered", "count"),
        ("serve.retries", "count"),
        ("serve.journal_bytes", "bytes"),
        ("serve.tree_pss_mb", "MiB"),
    ]
    + [(line, "s") for line in ledger.LEDGER_LINES]
    + [
        ("ledger.campaign_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("host.core_slowdown", "ratio"),
        ("host.steal_share", "ratio"),
        ("error_rate", "ratio"),
    ]
)

# Fixed hypervolume reference points (objective 0, objective 1): KFusion
# runtime per frame (s) and max ATE (m); the served scenario's two
# synthetic objectives.
HV_REFERENCE = {
    "kfusion_dse": (0.1, 0.1),
    "kfusion_isolated": (0.1, 0.1),
    "served_synthetic": (1.2, 1.2),
}

# The host-speed probe's reading on the baseline host (baseline.json): CPU
# seconds per thread of perfbench_driver's probe_cpu_seconds(). Every
# end-to-end time is taken to the reference host speed with it and the
# steal share the driver reads around each measured interval (README "Host
# speed"), so a co-tenant slowing the host between runs does not read as a
# change of the program.
REFERENCE_PROBE_CPU_S = 0.080


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def environment(out_dir):
    """The environment for the build and the driver: temporary files (the
    compiler's among them) stay inside the build tree."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir, env):
    """Configures (once) and builds the driver and the daemon; returns the
    driver's path. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no repository sources next to perfbench/")
        return None
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DHM_SANITIZE="])
    steps.append(["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "hm_serve"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env,
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_SECONDS)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("perfbench: build step failed: %s" % error)
            return None
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(step))
            return None
    return os.path.join(out_dir, "perfbench_driver")


def run_driver(driver, args, work_dir, env):
    out_file = os.path.join(work_dir, "raw.json")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
               "--out", out_file, "--work-dir", work_dir,
               "--hv-ref", "%r,%r" % HV_REFERENCE[args.workload]]
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, 9)
        process.wait()
        log("perfbench: driver timed out")
        return None
    finally:
        # The driver reaps its daemon and workers; this only catches strays.
        try:
            os.killpg(process.pid, 9)
        except ProcessLookupError:
            pass
    if code != 0:
        log("perfbench: driver exited with %d" % code)
        return None
    with open(out_file) as handle:
        return json.load(handle)


def kfusion_metrics(raw, at_reference, core):
    """End-to-end figures; `at_reference(steal_share)` is the factor that
    takes a wall time to the reference host speed, `core` the cores'
    slowdown that CPU times are divided by. Campaign k's times take the
    steal share over its own call."""
    campaigns = raw["campaigns"]
    factors = [at_reference(c["steal_share"]) for c in campaigns]
    walls = [c["wall_s"] * f for c, f in zip(campaigns, factors)]
    ok_evals = sum(c["evals_ok"] for c in campaigns)
    # Pooled over the run's campaigns. The mean, not the median: waits for a
    # sandbox worker lease differ campaign to campaign and the median sits
    # where the latency distribution is steep (kfusion_isolated's median
    # spread 13-22 % over ten runs, its mean ~6 %).
    latencies = [ms * f for c, f in zip(campaigns, factors) for ms in c["latency_ms"]]
    e2e = {
        "campaign_s": ledger.median(walls),
        "evals_per_s": ok_evals / sum(c["call_s"] * f for c, f in zip(campaigns, factors)),
        "eval_mean_ms": sum(latencies) / len(latencies),
        "eval_tail_ms": ledger.percentile(latencies, 90.0),
        "cpu_s": raw["cpu_s"] / core / len(campaigns),
    }
    return e2e, walls


def served_metrics(raw, at_reference, core):
    """As kfusion_metrics; a served campaign's times take the steal share
    over its round."""
    campaigns = raw["campaigns"]
    factors = [at_reference(s) for s in raw["round_steal_share"]]
    walls = [c["wall_s"] * factors[int(c["round"])] for c in campaigns]
    reports = sum(1 for c in campaigns if c["status"] == "report")
    phase_wall_s = sum(w * f for w, f in zip(raw["round_wall_s"], factors))
    e2e = {
        "campaign_s": ledger.median(walls),
        "evals_per_s": reports * raw["evals_ok_per_campaign"] / phase_wall_s,
        "cpu_s": raw["cpu_s"] / core / len(campaigns),
    }
    # The daemon's evaluations are invisible to a client, and the sandbox
    # round trip of a microsecond evaluation is too noisy on a shared host to
    # gate on (it is sandbox.eval_p50_ms), so these read the served campaign
    # latency per evaluation.
    per_eval_ms = 1e3 / (raw["evals_ok_per_campaign"] + raw["evals_failed_per_campaign"])
    e2e["eval_mean_ms"] = e2e["campaign_s"] * per_eval_ms
    e2e["eval_tail_ms"] = ledger.tail_percentile(walls)[1] * per_eval_ms
    return e2e, walls


def host_speed(raw):
    """The cores' slowdown over the run, and the steal share over each of its
    measured intervals (the set-ups first)."""
    core = ledger.core_slowdown(raw["probe_cpu_s"], REFERENCE_PROBE_CPU_S)
    if raw["workload"] in KFUSION:
        shares = [c["steal_share"] for c in raw["campaigns"]]
    else:
        shares = raw["round_steal_share"]
    return core, [raw["setup_steal_share"]] + shares


def end_to_end(raw, normalize=True):
    """Every end-to-end metric, plus the printed-only extras. Times are at
    the reference host speed, or as measured when `normalize` is false."""
    core = host_speed(raw)[0] if normalize else 1.0

    def at_reference(steal_share):
        return ledger.reference_speed_factor(steal_share, core) if normalize else 1.0

    if raw["workload"] in KFUSION:
        e2e, walls = kfusion_metrics(raw, at_reference, core)
    else:
        e2e, walls = served_metrics(raw, at_reference, core)
    tail_p, tail_value, tail_beyond = ledger.tail_percentile(walls)
    e2e["setup_s"] = ledger.median(raw["setup_s"]) * at_reference(raw["setup_steal_share"])
    e2e["campaign_tail_s"] = tail_value
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    e2e["best_fps_5cm"] = raw["best_fps_5cm"]
    e2e["front_hv"] = raw["front_hv"]
    notes = {
        "campaign_tail": "p%.1f of %d campaigns, %d beyond%s" % (
            tail_p, len(walls), tail_beyond,
            "" if tail_beyond >= ledger.MIN_BEYOND
            else " (too few campaigns for a tail; reporting the median)"),
        "error_rate": raw["failed"] / raw["attempted"],
    }
    return e2e, notes


def per_layer(raw):
    """Every per-layer metric; layers a workload does not exercise read 0."""
    layers = dict.fromkeys(PER_LAYER, 0.0)
    workload = raw["workload"]
    spans = raw["spans"]
    campaigns = raw["campaigns"]
    traced = [c for c in campaigns if c["traced"]]
    untraced = [c for c in campaigns if not c["traced"]]
    layers["error_rate"] = raw["failed"] / raw["attempted"]
    core, steal_shares = host_speed(raw)
    layers["host.core_slowdown"] = core
    layers["host.steal_share"] = ledger.median(steal_shares[1:])
    if "render_s" in raw:
        layers["dataset.render_s"] = ledger.median(raw["render_s"])
    if traced and untraced:
        layers["trace.overhead_share"] = (
            ledger.median([c["wall_s"] for c in traced])
            / ledger.median([c["wall_s"] for c in untraced]) - 1.0)

    def med(records, key, sub=None):
        values = [(r[sub] if sub else r)[key] for r in records]
        return ledger.median(values)

    if workload in KFUSION:
        for kernel in KERNEL_OPS:
            layers["kfusion.ops.%s" % kernel] = raw["ops"][kernel]
        layers["slambench.modeled_s"] = raw["modeled_s"]
        layers["slambench.host_s"] = raw["host_eval_s"]
        hits = med(campaigns, "cache_hits")
        misses = med(campaigns, "cache_misses")
        if hits + misses > 0:
            layers["slambench.cache_hit_ratio"] = hits / (hits + misses)
        layers["thread_pool.batch_wall_s"] = med(campaigns, "batch_wall_s")
        layers["thread_pool.tasks"] = med(campaigns, "tasks")
        layers["thread_pool.steals"] = med(campaigns, "steals")
        layers["thread_pool.idle_share"] = ledger.median([
            ledger.idle_share(sum(c["latency_ms"]) / 1e3, c["lanes"], c["batch_wall_s"])
            for c in campaigns])
        layers["hypermapper.propose_s"] = med(campaigns, "propose_s")
        layers["hypermapper.propose_share"] = ledger.median(
            [c["propose_s"] / c["wall_s"] for c in campaigns])
        layers["hypermapper.batches"] = med(campaigns, "batches")
        layers["hypermapper.evals"] = med(campaigns, "evals_ok")
        layers["hypermapper.quarantined"] = med(campaigns, "evals_failed")
        if workload == "kfusion_isolated":
            layers["sandbox.eval_p50_ms"] = ledger.percentile(
                [ms for c in campaigns for ms in c["latency_ms"]], 50.0)
            for key in ("spawns", "requests", "recycles", "protocol_errors", "fallbacks"):
                layers["sandbox.%s" % key] = med(campaigns, key, "sandbox")
            layers["journal.records"] = med(campaigns, "journal_records")
            layers["journal.bytes"] = med(campaigns, "journal_bytes")
        folds = []
        for c in traced:
            folds.append(ledger.fold_kfusion(
                ledger.campaign_spans(spans, c["trace_id"]), c["lanes"]))
        if folds:
            _fold_into(layers, folds)
    else:
        replays = raw["replays"]
        walls = [c["wall_s"] for c in campaigns]
        replay_walls = [r["wall_s"] for r in replays]
        overhead = ledger.median(walls) - ledger.median(replay_walls)
        layers["serve.overhead_s"] = overhead
        layers["hypermapper.propose_s"] = med(replays, "propose_s")
        layers["hypermapper.propose_share"] = ledger.median(
            [r["propose_s"] / r["wall_s"] for r in replays])
        layers["hypermapper.batches"] = med(replays, "batches")
        layers["hypermapper.evals"] = raw["evals_ok_per_campaign"]
        layers["sandbox.eval_p50_ms"] = ledger.percentile(
            [ms for r in replays for ms in r["latency_ms"]], 50.0)
        for key in ("spawns", "requests", "recycles", "protocol_errors", "fallbacks"):
            layers["sandbox.%s" % key] = med(replays, key, "sandbox")
        layers["journal.records"] = med(replays, "journal_records")
        pings = raw["pings_ms"]
        if pings:
            layers["serve.ping_p50_ms"] = ledger.percentile(pings, 50.0)
            layers["serve.ping_tail_ms"] = ledger.tail_percentile(pings)[1]
        layers["serve.progress_frames"] = med(campaigns, "progress_frames")
        layers["serve.busy"] = sum(1 for c in campaigns if c["status"] == "busy")
        scrape = ledger.prometheus_sums(raw["scrape"])
        layers["serve.evals_delivered"] = scrape.get("hm_campaign_evals_delivered", 0.0)
        layers["serve.retries"] = scrape.get("hm_campaign_retries", 0.0)
        layers["serve.journal_bytes"] = scrape.get("hm_campaign_journal_bytes", 0.0)
        layers["journal.bytes"] = layers["serve.journal_bytes"] / max(1, len(campaigns))
        layers["serve.tree_pss_mb"] = raw["tree_pss_mb"]
        traced_replays = [r for r in replays if r["traced"]]
        if traced and traced_replays:
            replay_folds = [ledger.fold_kfusion(
                ledger.campaign_spans(spans, r["trace_id"]), r["lanes"])
                for r in traced_replays]
            proposal = {
                "rf_s": ledger.median([f[1]["ledger.rf_s"] for f in replay_folds]),
                "hypermapper_s": ledger.median(
                    [f[1]["ledger.hypermapper_s"] for f in replay_folds]),
                "sandbox_s": med(traced_replays, "batch_wall_s"),
            }
            layers["rf.fit_s"] = ledger.median([f[2]["rf.fit_s"] for f in replay_folds])
            layers["rf.predict_s"] = ledger.median(
                [f[2]["rf.predict_s"] for f in replay_folds])
            folds = [ledger.fold_served(ledger.campaign_spans(spans, c["trace_id"]),
                                        proposal, overhead)
                     for c in traced]
            _fold_into(layers, [(w, l, {}) for w, l in folds])
    return layers


def _fold_into(layers, folds):
    """Averages per-campaign folds (wall, ledger, layers) into `layers`."""
    count = len(folds)
    layers["ledger.campaign_s"] = sum(f[0] for f in folds) / count
    for line in ledger.LEDGER_LINES:
        layers[line] = sum(f[1][line] for f in folds) / count
    for key in folds[0][2]:
        layers[key] = sum(f[2][key] for f in folds) / count


def check(raw):
    """perfbench_driver's own checks plus an independent hypervolume recomputation."""
    failures = [c for c in raw["checks"] if not c["ok"]]
    for c in raw["checks"]:
        log("check %-30s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    for c in raw["campaigns"]:
        if c.get("status", "report") != "report":
            log("campaign ended %s: %s" % (c["status"], c["message"]))
    expected = ledger.hypervolume_2d(raw["front"], HV_REFERENCE[raw["workload"]])
    hv_ok = math.isclose(expected, raw["front_hv"], rel_tol=1e-9, abs_tol=1e-15)
    log("check %-30s %s  %.12g vs %.12g" % ("hypervolume_recomputed",
                                            "ok" if hv_ok else "FAILED",
                                            raw["front_hv"], expected))
    fingerprint = raw["fingerprint"]
    release = fingerprint["build_type"] == "Release" and not fingerprint["sanitize"]
    if not release:
        log("check %-30s FAILED  not a plain Release build" % "build_fingerprint")
    return not failures and hv_ok and release


def compare(result, path):
    with open(path) as handle:
        other = json.load(handle)
    if "workloads" in other:  # the baseline file: one entry per workload
        reference = other["workloads"].get(result["workload"], {})
        reference = dict(reference, fingerprint=other["fingerprint"])
    else:
        reference = other
    mismatched = [k for k in FINGERPRINT_KEYS
                  if reference.get("fingerprint", {}).get(k) != result["fingerprint"].get(k)]
    if mismatched:
        log("perfbench: refusing to compare across fingerprints (%s differ)"
            % ", ".join(mismatched))
        return False
    for name, value in result["metrics"].items():
        base = reference.get("metrics", {}).get(name)
        if base:
            log("compare %-28s %12.6g vs %12.6g  (%+.1f%%)"
                % (name, value, base, 100.0 * (value / base - 1.0)))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    out_dir = build_dir()
    env = environment(out_dir)
    driver = build(out_dir, env)
    if driver is None:
        return 1
    work_dir = os.path.join(out_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        raw = run_driver(driver, args, work_dir, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if raw is None:
        return 1

    correct = check(raw)
    e2e, notes = end_to_end(raw)
    measured, _ = end_to_end(raw, normalize=False)
    fingerprint = raw["fingerprint"]
    print("workload %s  seed %d  %s" % (raw["workload"], args.seed,
                                        "traced" if args.trace else "untraced"))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    if args.trace:
        values = per_layer(raw)
        units = PER_LAYER
    else:
        values = e2e
        units = END_TO_END
        print("%-28s %s" % ("campaign_tail", notes["campaign_tail"]))
        print("%-28s %.6g ratio" % ("error_rate", notes["error_rate"]))
        core, steal_shares = host_speed(raw)
        print("%-28s core slowdown %.4g, steal share %.4g over the set-ups, "
              "%.4g to %.4g over the measured intervals"
              % ("host_speed", core, steal_shares[0], min(steal_shares[1:]),
                 max(steal_shares[1:])))
    for name in units:
        extra = ""
        if not args.trace and measured[name] != values[name]:
            extra = "  (as measured: %.9g)" % measured[name]
        print("%-28s %.9g %s%s" % (name, values[name], units[name], extra))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "workload": raw["workload"],
        "seed": args.seed,
        "fingerprint": fingerprint,
        "metrics": {name: values[name] for name in units},
    }
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    if args.compare and not compare(result, args.compare):
        return 2
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
