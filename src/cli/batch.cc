#include "cli/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "cli/batch_shard.h"
#include "cli/flags.h"
#include "cost/cost_model_registry.h"
#include "enumeration/tiered_enum.h"
#include "parallel/thread_pool.h"
#include "util/json_util.h"
#include "util/timer.h"

namespace mintri {

namespace {

// Infinite costs (uncoverable bags under hypertree/fhw) have no JSON float
// representation; they serialize as null.
void AppendJsonCost(CostValue v, std::ostream& out) {
  if (std::isinf(v) || std::isnan(v)) {
    out << "null";
    return;
  }
  std::ostringstream os;
  os.precision(12);
  os << v;
  out << os.str();
}

BatchRecord RunOneInstance(const std::string& spec,
                           const BatchOptions& options) {
  BatchRecord record;
  record.instance = spec;
  record.cost_name = options.cost;

  std::string error;
  std::optional<CostModelInstance> instance = LoadInstance(spec, &error);
  if (!instance.has_value()) {
    record.status = "load-error";
    record.error = error;
    return record;
  }
  record.n = instance->graph.NumVertices();
  record.m = instance->graph.NumEdges();

  std::optional<CostModel> model =
      MakeCostModel(options.cost, *instance, options.cache, &error);
  if (!model.has_value()) {
    record.status = "cost-error";
    record.error = error;
    return record;
  }
  if (options.cost == "width-then-fill" &&
      instance->graph.ConnectedComponents().size() > 1) {
    record.status = "cost-error";
    record.error = "width-then-fill requires a connected graph";
    return record;
  }

  ContextOptions ctx_options;
  ctx_options.separator_limits.time_limit_seconds = options.time_limit;
  ctx_options.pmc_limits.time_limit_seconds = options.time_limit;
  ctx_options.num_threads = options.inner_threads;
  TierOptions tier_options;
  tier_options.mode = options.tier == "exact"
                          ? TierOptions::Mode::kExact
                          : options.tier == "heuristic"
                                ? TierOptions::Mode::kHeuristic
                                : TierOptions::Mode::kAuto;
  tier_options.decomposable_cost = IsTierDecomposableCost(options.cost);
  tier_options.exact_budget_seconds = options.time_limit;
  TieredEnumerator enumerator(instance->graph, *model->cost,
                              model->composition, ctx_options, {},
                              tier_options);
  record.init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    record.status = "init-failed";
    record.error = enumerator.init_info().TerminationName();
    return record;
  }
  record.tier = TierName(enumerator.tier());
  record.atoms = enumerator.preprocess_info().num_atoms;
  record.reduced_vertices = enumerator.preprocess_info().vertices_removed;
  record.preprocess_seconds = enumerator.preprocess_info().seconds;
  record.tier1_seconds = enumerator.tier1_seconds();
  record.tier2_seconds = enumerator.tier2_seconds();
  for (long long rank = 1; rank <= options.top; ++rank) {
    std::optional<TieredResult> t = enumerator.Next();
    if (!t.has_value()) break;
    BatchRecord::Row row;
    row.rank = static_cast<int>(rank);
    row.cost = t->triangulation.cost;
    row.width = t->triangulation.Width();
    row.fill = t->triangulation.FillIn(instance->graph);
    row.bags = static_cast<int>(t->triangulation.bags.size());
    record.results.push_back(row);
  }
  if (model->cache != nullptr) {
    const BagScoreCache::Stats stats = model->cache->stats();
    record.cache_lookups = stats.lookups;
    record.cache_hits = stats.hits;
    record.cache_misses = stats.misses;
  }
  record.status = "ok";
  return record;
}

// Fault-injection hook for the sharded-batch failure-path tests: the
// MINTRI_BATCH_FAULT environment variable ("crash:<spec>" or "hang:<spec>")
// makes the worker that owns <spec> die mid-record (an unterminated
// JSON line, then _Exit) or emit the record and hang until the
// coordinator's --deadline kills it. Inert unless the variable is set.
struct FaultSpec {
  bool crash = false;  // otherwise hang
  std::string instance;
};

std::optional<FaultSpec> ParseFaultSpec() {
  const char* raw = std::getenv("MINTRI_BATCH_FAULT");
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  const std::string value(raw);
  FaultSpec fault;
  if (value.rfind("crash:", 0) == 0) {
    fault.crash = true;
    fault.instance = value.substr(6);
  } else if (value.rfind("hang:", 0) == 0) {
    fault.crash = false;
    fault.instance = value.substr(5);
  } else {
    return std::nullopt;
  }
  return fault;
}

// Writes records as JSON Lines, honoring the fault hook. Returns the
// per-instance (status, error) pairs for the shared failure summary.
std::vector<std::pair<std::string, std::string>> WriteRecordsWithFaults(
    const std::vector<BatchRecord>& records, std::ostream& sink) {
  const std::optional<FaultSpec> fault = ParseFaultSpec();
  std::vector<std::pair<std::string, std::string>> statuses;
  for (const BatchRecord& r : records) {
    std::ostringstream os;
    WriteBatchRecord(r, os);
    const std::string line = os.str();
    if (fault.has_value() && fault->crash && r.instance == fault->instance) {
      sink.write(line.data(), static_cast<std::streamsize>(line.size() / 2));
      sink.flush();
      std::_Exit(70);
    }
    sink << line;
    if (fault.has_value() && !fault->crash && r.instance == fault->instance) {
      sink.flush();
      std::this_thread::sleep_for(std::chrono::hours(1));
    }
    statuses.emplace_back(r.status, r.error);
  }
  return statuses;
}

BatchAggregateStats AggregateInProcessStats(
    const std::vector<BatchRecord>& records, const BatchOptions& options,
    double wall_seconds) {
  BatchAggregateStats stats;
  stats.workers = 1;
  stats.threads = options.threads;
  stats.inner_threads = options.inner_threads;
  stats.cost = options.cost;
  stats.instances = static_cast<int>(records.size());
  stats.wall_seconds = wall_seconds;
  WorkerShardStats ws;
  ws.worker = 0;
  ws.first = 0;
  ws.count = static_cast<int>(records.size());
  ws.wall_seconds = wall_seconds;
  ws.termination = "in-process";
  for (const BatchRecord& r : records) {
    if (r.status == "ok") {
      ++stats.ok;
      ++ws.ok;
      stats.init_seconds_total += r.init_seconds;
    } else {
      ++stats.failed;
      ++ws.failed;
    }
    stats.cache_lookups += r.cache_lookups;
    stats.cache_hits += r.cache_hits;
    stats.cache_misses += r.cache_misses;
    if (r.tier == "exact") ++stats.tier_exact;
    if (r.tier == "atom-exact") ++stats.tier_atom_exact;
    if (r.tier == "heuristic") ++stats.tier_heuristic;
    stats.atoms_total += r.atoms;
    stats.reduced_vertices_total += r.reduced_vertices;
    stats.preprocess_seconds_total += r.preprocess_seconds;
    stats.tier1_seconds_total += r.tier1_seconds;
    stats.tier2_seconds_total += r.tier2_seconds;
  }
  stats.worker_stats.push_back(std::move(ws));
  return stats;
}

constexpr char kBatchUsage[] =
    "usage: mintri batch <file-of-instances> [options]\n"
    "\n"
    "Rank-enumerates every instance listed in the file (one spec per line;\n"
    "'#' comments). A spec is a path (.gr graph, .hg hypergraph, .uai\n"
    "factor list) or a builtin: tpch:<q> (TPC-H query hypergraph),\n"
    "tpch-graph:<q> (join graph), gm:<name> (graphical model). Instances\n"
    "fan out across a thread pool — parallel across queries — and one JSON\n"
    "record per instance is emitted in input order, identical at every\n"
    "--threads value. --workers=N additionally shards the list across N\n"
    "child processes (contiguous ranges, deterministic in-order merge: the\n"
    "output stream is byte-identical to --workers=1); a worker that\n"
    "crashes or exceeds --deadline yields per-instance error records\n"
    "instead of hanging the run.\n"
    "\n"
    "  --cost=NAME        width|fill|width-then-fill|state-space|\n"
    "                     hypertree|fhw              (default width)\n"
    "  --top=K            ranked results per instance (default 3)\n"
    "  --threads=N        instances processed concurrently (default 1)\n"
    "  --inner-threads=N  context-build threads per instance (default 1)\n"
    "  --workers=N        shard across N child processes (default 1 =\n"
    "                     in-process)\n"
    "  --deadline=SEC     per-shard wall budget; a straggling worker is\n"
    "                     killed and its unfinished instances reported as\n"
    "                     worker-timeout records (default: none)\n"
    "  --time-limit=SEC   per-stage initialization budget (default 30)\n"
    "  --tier=auto|exact|heuristic  solve pipeline per instance (default\n"
    "                     auto); see `mintri rank --help`. Each record\n"
    "                     carries the truthful tier label\n"
    "  --no-cache         disable the memoized bag-score cache\n"
    "  --stats            per-worker + aggregate summary on stderr\n"
    "  --stats-json=FILE  machine-readable aggregate stats (validated by\n"
    "                     scripts/validate_bench_json.py --batch-stats)\n"
    "  --worker-binary=P  mintri binary to spawn as workers (default:\n"
    "                     this executable)\n"
    "  --mask-timings     zero init_seconds in records, for byte-exact\n"
    "                     output comparison (testing hook)\n"
    "  --out=FILE         output path (default '-' for stdout)\n"
    "  --help             show this message and exit\n";

}  // namespace

std::vector<BatchRecord> RunBatch(const std::vector<std::string>& specs,
                                  const BatchOptions& options) {
  std::vector<BatchRecord> records(specs.size());
  std::atomic<size_t> cursor{0};
  const int threads = std::max(
      1, std::min(options.threads, static_cast<int>(specs.size())));
  parallel::RunOnThreads(threads, [&](int) {
    while (true) {
      const size_t i = cursor.fetch_add(1);
      if (i >= specs.size()) break;
      records[i] = RunOneInstance(specs[i], options);
    }
  });
  if (options.mask_timings) {
    for (BatchRecord& r : records) {
      r.init_seconds = 0;
      r.preprocess_seconds = 0;
      r.tier1_seconds = 0;
      r.tier2_seconds = 0;
    }
  }
  return records;
}

void WriteBatchRecord(const BatchRecord& r, std::ostream& out) {
  out << "{\"instance\": ";
  AppendJsonString(r.instance, out);
  out << ", \"cost\": ";
  AppendJsonString(r.cost_name, out);
  out << ", \"status\": ";
  AppendJsonString(r.status, out);
  out << ", \"n\": " << r.n << ", \"m\": " << r.m << ", \"init_seconds\": ";
  AppendJsonCost(r.init_seconds, out);
  out << ", \"cache_lookups\": " << r.cache_lookups
      << ", \"cache_hits\": " << r.cache_hits
      << ", \"cache_misses\": " << r.cache_misses << ", \"tier\": ";
  AppendJsonString(r.tier, out);
  out << ", \"atoms\": " << r.atoms
      << ", \"reduced_vertices\": " << r.reduced_vertices
      << ", \"preprocess_seconds\": ";
  AppendJsonCost(r.preprocess_seconds, out);
  out << ", \"tier1_seconds\": ";
  AppendJsonCost(r.tier1_seconds, out);
  out << ", \"tier2_seconds\": ";
  AppendJsonCost(r.tier2_seconds, out);
  if (!r.error.empty()) {
    out << ", \"error\": ";
    AppendJsonString(r.error, out);
  }
  out << ", \"results\": [";
  for (size_t i = 0; i < r.results.size(); ++i) {
    const BatchRecord::Row& row = r.results[i];
    if (i > 0) out << ", ";
    out << "{\"rank\": " << row.rank << ", \"cost\": ";
    AppendJsonCost(row.cost, out);
    out << ", \"width\": " << row.width << ", \"fill\": " << row.fill
        << ", \"bags\": " << row.bags << "}";
  }
  out << "]}\n";
}

void WriteBatchJson(const std::vector<BatchRecord>& records,
                    std::ostream& out) {
  for (const BatchRecord& r : records) WriteBatchRecord(r, out);
}

int RunBatchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  BatchOptions options;
  std::string list_path;
  std::string out_path = "-";
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << kBatchUsage;
      return 0;
    } else if (arg.rfind("--cost=", 0) == 0) {
      options.cost = arg.substr(7);
    } else if (arg.rfind("--top=", 0) == 0) {
      if (!flags::ParseNumber(arg.substr(6), &options.top) ||
          options.top < 1) {
        err << "invalid value for --top: " << arg.substr(6)
            << " (expected an integer >= 1)\n";
        return 1;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!flags::ParseThreads(arg.substr(10), &options.threads)) {
        err << "invalid value for --threads: " << arg.substr(10)
            << " (expected an integer in 1.." << flags::MaxThreads()
            << ")\n";
        return 1;
      }
    } else if (arg.rfind("--inner-threads=", 0) == 0) {
      if (!flags::ParseThreads(arg.substr(16), &options.inner_threads)) {
        err << "invalid value for --inner-threads: " << arg.substr(16)
            << " (expected an integer in 1.." << flags::MaxThreads()
            << ")\n";
        return 1;
      }
    } else if (arg.rfind("--workers=", 0) == 0) {
      // Worker processes obey the same 1..MaxThreads() ceiling as threads:
      // each worker is at least one OS thread on this box.
      if (!flags::ParseThreads(arg.substr(10), &options.workers)) {
        err << "invalid value for --workers: " << arg.substr(10)
            << " (expected an integer in 1.." << flags::MaxThreads()
            << ")\n";
        return 1;
      }
    } else if (arg.rfind("--deadline=", 0) == 0) {
      if (!flags::ParseNumber(arg.substr(11), &options.deadline) ||
          !(options.deadline > 0)) {
        err << "invalid value for --deadline: " << arg.substr(11)
            << " (expected a positive number of seconds)\n";
        return 1;
      }
    } else if (arg.rfind("--time-limit=", 0) == 0) {
      if (!flags::ParseNumber(arg.substr(13), &options.time_limit) ||
          !(options.time_limit > 0)) {
        err << "invalid value for --time-limit: " << arg.substr(13)
            << " (expected a positive number of seconds)\n";
        return 1;
      }
    } else if (arg.rfind("--tier=", 0) == 0) {
      options.tier = arg.substr(7);
      if (options.tier != "auto" && options.tier != "exact" &&
          options.tier != "heuristic") {
        err << "invalid value for --tier: " << options.tier
            << " (expected auto, exact, or heuristic)\n";
        return 1;
      }
    } else if (arg == "--no-cache") {
      options.cache = false;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      options.stats_json = arg.substr(13);
      if (options.stats_json.empty()) {
        err << "invalid value for --stats-json: expected a file path\n";
        return 1;
      }
    } else if (arg.rfind("--worker-binary=", 0) == 0) {
      options.worker_binary = arg.substr(16);
      if (options.worker_binary.empty()) {
        err << "invalid value for --worker-binary: expected a binary path\n";
        return 1;
      }
    } else if (arg == "--mask-timings") {
      options.mask_timings = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown option: " << arg << "\n";
      return 1;
    } else if (list_path.empty()) {
      list_path = arg;
    } else {
      err << "unexpected argument: " << arg << "\n";
      return 1;
    }
  }
  if (list_path.empty()) {
    err << kBatchUsage;
    return 1;
  }

  std::ifstream list(list_path);
  if (!list) {
    err << "cannot open " << list_path << "\n";
    return 1;
  }
  std::vector<std::string> specs;
  std::string line;
  while (std::getline(list, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    specs.push_back(line.substr(begin, end - begin + 1));
  }
  if (specs.empty()) {
    err << list_path << ": no instances listed\n";
    return 1;
  }

  std::ofstream file;
  if (out_path != "-") {
    file.open(out_path);
    if (!file) {
      err << "cannot write " << out_path << "\n";
      return 1;
    }
  }
  std::ostream& sink = out_path == "-" ? out : file;

  std::vector<std::pair<std::string, std::string>> statuses;
  BatchAggregateStats stats;
  if (options.workers > 1) {
    std::string error;
    const int failures =
        RunShardedBatch(specs, options, sink, &statuses, &stats, &error);
    if (failures < 0) {
      err << error << "\n";
      return 1;
    }
  } else {
    WallTimer timer;
    std::vector<BatchRecord> records = RunBatch(specs, options);
    statuses = WriteRecordsWithFaults(records, sink);
    stats = AggregateInProcessStats(records, options, timer.Seconds());
  }

  int failures = 0;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].first != "ok") {
      err << specs[i] << ": " << statuses[i].first
          << (statuses[i].second.empty() ? "" : " (" + statuses[i].second + ")")
          << "\n";
      ++failures;
    }
  }
  if (options.stats) PrintBatchStats(stats, err);
  if (!options.stats_json.empty()) {
    std::ofstream stats_file(options.stats_json);
    if (!stats_file) {
      err << "cannot write " << options.stats_json << "\n";
      return 1;
    }
    WriteBatchStatsJson(stats, stats_file);
  }
  err << stats.ok << "/" << statuses.size() << " instances ranked (cost "
      << options.cost << ", " << options.workers << " workers, "
      << options.threads << " threads)\n";
  return failures == 0 ? 0 : 2;
}

}  // namespace mintri
