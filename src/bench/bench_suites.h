#ifndef MINTRI_BENCH_BENCH_SUITES_H_
#define MINTRI_BENCH_BENCH_SUITES_H_

#include <ostream>
#include <string>
#include <vector>

namespace mintri {
namespace bench {

/// One benchmarked (suite, graph, cost) point of BENCH_core.json.
struct BenchEntry {
  std::string suite;   // "minseps" | "pmc" | "ranked" | "ckk" | "appcost"
                       // | "huge"
  std::string family;  // workload family name (Fig. 5 naming)
  std::string graph;   // graph name within the family
  int n = 0;           // vertices
  int m = 0;           // edges
  int threads = 1;     // enumeration worker threads for this run
  long long count = 0;          // results produced within budget
  double wall_ms = 0.0;         // wall time spent on this graph
  /// count / wall seconds; the ranked and huge suites instead report
  /// triangulations per second *after the first result*, the paper's
  /// enumeration-rate measure.
  double results_per_sec = 0.0;
  /// Initialization (seconds) for the suites that build a context
  /// (ranked/appcost/huge); 0 elsewhere.
  double init_seconds = 0.0;
  /// The cost the results are measured by ("width" | "fill" for ranked and
  /// ckk; "hypertree" | "fhw" | "state-space" for appcost; "width" for huge;
  /// empty for minseps/pmc, which rank nothing).
  std::string cost;
  /// The lowest cost among the entry's results, and how many results reach
  /// it (Table 2's min-w/min-f and #min columns); 0 and 0 when the entry
  /// has no results or ranks nothing.
  double best_cost = 0.0;
  long long best_count = 0;
  /// Memoized bag-score cache hit rate in [0, 1] (appcost entries under
  /// the edge-cover costs; 0 where no cache runs).
  double cache_hit_rate = 0.0;
  /// Solver repair cost for the ranked suite (0 elsewhere): candidate
  /// evaluations, evaluations that reached the base Combine, and the
  /// segment-tree point updates / range-min queries.
  long long candidate_evals = 0;
  long long combine_calls = 0;
  long long index_updates = 0;
  long long range_queries = 0;
  /// "complete" | "truncated" | "ms-terminated" | "pmc-terminated"
  /// (the last two are the Fig. 5 taxonomy of which init stage gave up),
  /// "cost-error" (appcost) or "disconnected" (ckk on a graph CKK does not
  /// take).
  std::string status;
  /// The tiered pipeline's truthful stream label for the huge suite
  /// ("exact" | "atom-exact" | "heuristic"); empty for the suites that run
  /// the direct exact stack.
  std::string tier;
};

/// The machine-readable benchmark report (serialized as BENCH_core.json).
/// Schema history: v2 added the per-entry solver + repair-counter fields,
/// then the huge suite's per-entry tier label, then best_cost/best_count
/// (same version: each field is emitted for every entry). Entries no
/// longer carry the v2 solver field.
struct BenchReport {
  int schema_version = 2;
  std::string git_sha;
  double time_scale = 1.0;
  bool smoke = false;
  std::vector<std::string> suites;
  std::vector<BenchEntry> entries;
};

struct BenchRunOptions {
  /// Subset of AllSuiteNames(); empty means all.
  std::vector<std::string> suites;
  /// Smoke mode: a few cheap families, capped graphs per family, and a
  /// fixed result cap per ranking entry, so that its counts repeat from
  /// run to run — sized for a CI gate, not for trend analysis.
  bool smoke = false;
  /// Worker threads. 0 (the default) sweeps the minseps/pmc/ranked suites
  /// over {1, parallel::DefaultParallelThreads()} so the report always
  /// carries a serial baseline next to the parallel numbers; a positive
  /// value runs every suite but the serial ckk at exactly that count.
  int threads = 0;
};

const std::vector<std::string>& AllSuiteNames();
bool IsKnownSuite(const std::string& name);

/// Runs the selected suites over the src/workloads families. When `progress`
/// is non-null, one line per (suite, graph) is streamed to it.
BenchReport RunBenchSuites(const BenchRunOptions& options,
                           std::ostream* progress);

/// Serializes the report as pretty-printed JSON (the BENCH_core.json
/// schema; see README "Benchmarks" and scripts/validate_bench_json.py).
void WriteBenchJson(const BenchReport& report, std::ostream& out);

/// The git sha baked in at configure time; the MINTRI_GIT_SHA environment
/// variable overrides it, and "unknown" is the fallback.
std::string GitSha();

}  // namespace bench
}  // namespace mintri

#endif  // MINTRI_BENCH_BENCH_SUITES_H_
