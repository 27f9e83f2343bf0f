#!/usr/bin/env python3
"""Schema validation for BENCH_core.json (the `mintri bench` report).

Usage:
  validate_bench_json.py [--smoke] [--compare=BASELINE.json] BENCH_core.json
  validate_bench_json.py --batch-stats STATS.json

Checks the shape produced by src/bench/bench_suites.cc:WriteBenchJson so the
CI bench-smoke job fails loudly when the schema drifts instead of uploading
a silently broken artifact. Exits 0 on success, 1 with a message otherwise.

--compare=BASELINE.json is a smoke hook for the bench-diff CI gate: it
matches the report against a baseline using the exact entry identity that
scripts/bench_diff.py diffs with (imported from there, so the two tools
cannot drift apart) and fails when the overlap is empty.

--batch-stats switches to validating the aggregate-stats JSON written by
`mintri batch --stats-json=...` (src/cli/batch_shard.cc:WriteBatchStatsJson).
"""

import json
import os
import sys

TOP_LEVEL = {
    "schema_version": int,
    "git_sha": str,
    "time_scale": float,
    "smoke": bool,
    "suites": list,
    "entries": list,
}

ENTRY = {
    "suite": str,
    "family": str,
    "graph": str,
    "n": int,
    "m": int,
    "threads": int,
    "count": int,
    "wall_ms": float,
    "results_per_sec": float,
    "init_seconds": float,
    "cost": str,
    "candidate_evals": int,
    "combine_calls": int,
    "index_updates": int,
    "range_queries": int,
    "cache_hit_rate": float,
    "best_cost": float,
    "best_count": int,
    "tier": str,
    "status": str,
}

KNOWN_SUITES = {"minseps", "pmc", "ranked", "ckk", "appcost", "huge"}
# ms-terminated / pmc-terminated are the Fig. 5 taxonomy of which context
# initialization stage hit its limits; cost-error marks an appcost case
# whose cost model could not be constructed; disconnected marks a ckk entry
# on a graph the CKK baseline cannot run on.
KNOWN_STATUSES = {"complete", "truncated", "ms-terminated", "pmc-terminated",
                  "cost-error", "disconnected"}
# The application costs the appcost suite ranks by.
APPCOST_COSTS = {"hypertree", "fhw", "state-space"}
# The tiered pipeline's truthful stream labels (huge-suite entries only;
# every other suite runs the direct exact stack and emits "").
KNOWN_TIERS = {"exact", "atom-exact", "heuristic"}


def fail(message):
    print(f"validate_bench_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, spec, where):
    for key, expected in spec.items():
        if key not in obj:
            fail(f"{where}: missing key {key!r}")
        value = obj[key]
        # ints are acceptable where floats are expected (JSON "1" vs "1.0").
        if expected is float and isinstance(value, int):
            continue
        if not isinstance(value, expected):
            fail(f"{where}: {key!r} has type {type(value).__name__}, "
                 f"expected {expected.__name__}")


# The aggregate shape written by `mintri batch --stats-json=...`; one
# worker_stats element per shard ("in-process" pseudo-worker at --workers=1).
BATCH_STATS = {
    "batch_stats_version": int,
    "workers": int,
    "threads": int,
    "inner_threads": int,
    "cost": str,
    "instances": int,
    "ok": int,
    "failed": int,
    "wall_seconds": float,
    "init_seconds_total": float,
    "cache_lookups": int,
    "cache_hits": int,
    "cache_misses": int,
    "cache_hit_rate": float,
    "tier_exact": int,
    "tier_atom_exact": int,
    "tier_heuristic": int,
    "atoms": int,
    "reduced_vertices": int,
    "preprocess_seconds_total": float,
    "tier1_seconds_total": float,
    "tier2_seconds_total": float,
    "worker_stats": list,
}

WORKER_STATS = {
    "worker": int,
    "first": int,
    "count": int,
    "ok": int,
    "failed": int,
    "wall_seconds": float,
    "termination": str,
}


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def validate_batch_stats(path):
    stats = load_json(path)
    check_fields(stats, BATCH_STATS, "batch stats")
    if stats["batch_stats_version"] != 1:
        fail(f"unsupported batch_stats_version "
             f"{stats['batch_stats_version']}")
    for key in ("workers", "threads", "inner_threads"):
        if stats[key] < 1:
            fail(f"{key} must be >= 1, got {stats[key]}")
    if stats["instances"] != stats["ok"] + stats["failed"]:
        fail(f"instances {stats['instances']} != ok {stats['ok']} + "
             f"failed {stats['failed']}")
    if stats["wall_seconds"] < 0 or stats["init_seconds_total"] < 0:
        fail("negative timing")
    if stats["cache_lookups"] != stats["cache_hits"] + stats["cache_misses"]:
        fail(f"cache_lookups {stats['cache_lookups']} != hits + misses")
    if not 0 <= stats["cache_hit_rate"] <= 1:
        fail(f"cache_hit_rate {stats['cache_hit_rate']} outside [0, 1]")
    tier_total = (stats["tier_exact"] + stats["tier_atom_exact"]
                  + stats["tier_heuristic"])
    if tier_total > stats["ok"]:
        fail(f"tier counters sum to {tier_total}, more than ok={stats['ok']}")
    if any(stats[k] < 0 for k in ("tier_exact", "tier_atom_exact",
                                  "tier_heuristic", "atoms",
                                  "reduced_vertices")):
        fail("negative tier/preprocess counter")
    if any(stats[k] < 0 for k in ("preprocess_seconds_total",
                                  "tier1_seconds_total",
                                  "tier2_seconds_total")):
        fail("negative per-tier timing")

    workers = stats["worker_stats"]
    if len(workers) != stats["workers"]:
        fail(f"worker_stats has {len(workers)} elements, "
             f"expected {stats['workers']}")
    next_first = 0
    for i, w in enumerate(workers):
        where = f"worker_stats[{i}]"
        check_fields(w, WORKER_STATS, where)
        if w["first"] != next_first:
            fail(f"{where}: shard starts at {w['first']}, "
                 f"expected {next_first} (non-contiguous partition)")
        if w["count"] < 0 or w["ok"] + w["failed"] != w["count"]:
            fail(f"{where}: ok {w['ok']} + failed {w['failed']} != "
                 f"count {w['count']}")
        if w["wall_seconds"] < 0:
            fail(f"{where}: negative wall_seconds")
        if not w["termination"]:
            fail(f"{where}: empty termination")
        next_first += w["count"]
    if next_first != stats["instances"]:
        fail(f"shards cover [0, {next_first}), "
         f"expected [0, {stats['instances']})")
    print(f"validate_bench_json: OK: batch stats for {stats['instances']} "
          f"instances across {stats['workers']} worker(s), "
          f"{stats['ok']} ok / {stats['failed']} failed")


def compare_smoke(report, baseline_path):
    """Overlap sanity against a baseline, via bench_diff's entry identity."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import bench_diff
    try:
        baseline = bench_diff.load_report(baseline_path)
    except bench_diff.BenchDiffError as e:
        fail(str(e))
    base_index = bench_diff.index_entries(baseline["entries"])
    new_index = bench_diff.index_entries(report["entries"])
    matched = len(set(base_index) & set(new_index))
    if matched == 0:
        fail(f"no overlap with baseline {baseline_path} "
             f"(wrong artifact pair?)")
    print(f"validate_bench_json: compare: {matched} entries match baseline, "
          f"{len(base_index) - matched} only in baseline, "
          f"{len(new_index) - matched} only in this report")


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    smoke = "--smoke" in sys.argv[1:]
    batch_stats = "--batch-stats" in sys.argv[1:]
    compare_baseline = None
    for a in sys.argv[1:]:
        if a.startswith("--compare="):
            compare_baseline = a[len("--compare="):]
    if len(args) != 1:
        fail("usage: validate_bench_json.py [--smoke] [--compare=BASELINE] "
             "BENCH_core.json | --batch-stats STATS.json")
    if batch_stats:
        validate_batch_stats(args[0])
        return

    report = load_json(args[0])

    check_fields(report, TOP_LEVEL, "top level")
    if report["schema_version"] != 2:
        fail(f"unsupported schema_version {report['schema_version']}")
    if not report["git_sha"]:
        fail("git_sha is empty")
    if report["time_scale"] <= 0:
        fail(f"time_scale must be positive, got {report['time_scale']}")
    if smoke and not report["smoke"]:
        fail("expected a --smoke report")

    suites = report["suites"]
    if not suites or not set(suites) <= KNOWN_SUITES:
        fail(f"suites must be a non-empty subset of {sorted(KNOWN_SUITES)}, "
             f"got {suites}")

    entries = report["entries"]
    if not entries:
        fail("entries is empty")
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        check_fields(entry, ENTRY, where)
        if entry["suite"] not in suites:
            fail(f"{where}: suite {entry['suite']!r} not in {suites}")
        if entry["status"] not in KNOWN_STATUSES:
            fail(f"{where}: unknown status {entry['status']!r}")
        if entry["n"] < 0 or entry["m"] < 0 or entry["count"] < 0:
            fail(f"{where}: negative n/m/count")
        if entry["threads"] < 1:
            fail(f"{where}: threads must be >= 1, got {entry['threads']}")
        if entry["wall_ms"] < 0 or entry["results_per_sec"] < 0:
            fail(f"{where}: negative timing")
        if entry["init_seconds"] < 0:
            fail(f"{where}: negative init_seconds")
        if not 0 <= entry["cache_hit_rate"] <= 1:
            fail(f"{where}: cache_hit_rate {entry['cache_hit_rate']} "
                 f"outside [0, 1]")
        if any(entry[k] < 0 for k in ("candidate_evals", "combine_calls",
                                      "index_updates", "range_queries")):
            fail(f"{where}: negative solver counter")
        if not 0 <= entry["best_count"] <= entry["count"]:
            fail(f"{where}: best_count {entry['best_count']} outside "
                 f"[0, count={entry['count']}]")
        if entry["suite"] == "appcost":
            if entry["cost"] not in APPCOST_COSTS:
                fail(f"{where}: appcost entry has cost {entry['cost']!r}, "
                     f"expected one of {sorted(APPCOST_COSTS)}")
        if entry["suite"] == "huge":
            if entry["tier"] not in KNOWN_TIERS:
                fail(f"{where}: huge entry has tier {entry['tier']!r}, "
                     f"expected one of {sorted(KNOWN_TIERS)}")
            if entry["n"] < 1000:
                fail(f"{where}: huge entry has n={entry['n']}, "
                     f"expected a PACE-scale graph (n >= 1000)")
        elif entry["tier"]:
            fail(f"{where}: non-huge entry has tier {entry['tier']!r}")

    per_suite = {s: sum(1 for e in entries if e["suite"] == s)
                 for s in suites}
    print(f"validate_bench_json: OK: {len(entries)} entries "
          f"({', '.join(f'{s}: {c}' for s, c in sorted(per_suite.items()))}), "
          f"git {report['git_sha']}")

    if compare_baseline is not None:
        compare_smoke(report, compare_baseline)


if __name__ == "__main__":
    main()
