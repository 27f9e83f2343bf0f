#include "cli/cli.h"

#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "bench/bench_suites.h"
#include "cli/batch.h"
#include "cli/flags.h"
#include "cost/cost_model_registry.h"
#include "cost/standard_costs.h"
#include "enumeration/ckk.h"
#include "enumeration/tiered_enum.h"
#include "enumeration/tree_decomposition.h"
#include "graph/graph_io.h"
#include "parallel/thread_pool.h"

namespace mintri {

namespace {

struct Options {
  std::string cost = "width";
  long long top = 5;
  std::string algo = "ranked";
  int bound = -1;
  std::string format = "summary";
  std::string input = "gr";  // stdin format: gr | hg | uai
  double time_limit = 30.0;
  int threads = 1;
  std::string tier = "auto";
  bool no_cache = false;
  bool stats = false;
  bool help = false;
  std::string file;  // empty: stdin
};

constexpr char kUsage[] =
    "usage: mintri [rank] [options] [instance]\n"
    "       mintri batch <file-of-instances> [options]  (mintri batch"
    " --help)\n"
    "       mintri bench [suite...] [options]           (mintri bench"
    " --help)\n"
    "\n"
    "Reads a problem instance and prints its minimal triangulations in\n"
    "ranked order. The instance is a path — .gr (DIMACS/PACE graph), .hg\n"
    "(hypergraph; its primal graph is triangulated), .uai (factor list;\n"
    "its moral graph is triangulated) — or a builtin spec: tpch:<q> (the\n"
    "TPC-H query-q hypergraph), tpch-graph:<q>, gm:<name>. With no\n"
    "instance argument, stdin is parsed per --input.\n"
    "\n"
    "  --cost=NAME        width|fill|width-then-fill|state-space|\n"
    "                     hypertree|fhw                 (default width)\n"
    "                     hypertree/fhw need a hypergraph instance;\n"
    "                     state-space uses the model's domain sizes when\n"
    "                     the instance carries them (uniform 2 otherwise)\n"
    "  --top=K            stop after K results          (default 5)\n"
    "  --algo=ranked|ckk  ranked enumeration or the CKK baseline\n"
    "  --bound=B          width bound (MinTriangB contexts)\n"
    "  --format=summary|td   per-result line, or PACE .td blocks\n"
    "  --input=gr|hg|uai  stdin format                  (default gr)\n"
    "  --time-limit=SEC   per-stage initialization budget: the MinSep and\n"
    "                     PMC enumeration limits of every context build\n"
    "                     (default 30); under --tier=auto also the exact\n"
    "                     budget that all atoms share\n"
    "  --threads=N        worker threads for the separator/PMC enumeration\n"
    "                     during initialization (default 1 = serial)\n"
    "  --tier=auto|exact|heuristic  solve pipeline (default auto): exact is\n"
    "                     the classic full enumeration (fails on graphs\n"
    "                     whose MinSep/PMC enumeration exceeds the budget);\n"
    "                     auto preprocesses, solves per atom, and degrades\n"
    "                     to the LB-Triang-seeded heuristic family when an\n"
    "                     atom blows the budget; heuristic skips the exact\n"
    "                     attempts. Every result line carries the truthful\n"
    "                     tier label (exact|atom-exact|heuristic)\n"
    "  --no-cache         disable the memoized bag-score cache\n"
    "  --stats            print initialization + cache statistics to\n"
    "                     stderr\n"
    "  --help             show this message and exit\n";

bool ParseArgs(const std::vector<std::string>& args, Options* options,
               std::ostream& err) {
  for (const std::string& arg : args) {
    auto value_of = [&](const std::string& prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto cost = value_of("--cost=")) {
      options->cost = *cost;
    } else if (auto top = value_of("--top=")) {
      if (!flags::ParseNumber(*top, &options->top)) {
        err << "invalid value for --top: " << *top << "\n";
        return false;
      }
    } else if (auto algo = value_of("--algo=")) {
      options->algo = *algo;
    } else if (auto bound = value_of("--bound=")) {
      if (!flags::ParseNumber(*bound, &options->bound)) {
        err << "invalid value for --bound: " << *bound << "\n";
        return false;
      }
    } else if (auto format = value_of("--format=")) {
      options->format = *format;
    } else if (auto input = value_of("--input=")) {
      if (*input != "gr" && *input != "hg" && *input != "uai") {
        err << "invalid value for --input: " << *input
            << " (expected gr, hg, or uai)\n";
        return false;
      }
      options->input = *input;
    } else if (auto time_limit = value_of("--time-limit=")) {
      if (!flags::ParseNumber(*time_limit, &options->time_limit)) {
        err << "invalid value for --time-limit: " << *time_limit << "\n";
        return false;
      }
    } else if (auto threads = value_of("--threads=")) {
      if (!flags::ParseThreads(*threads, &options->threads)) {
        err << "invalid value for --threads: " << *threads
            << " (expected an integer in 1.." << flags::MaxThreads() << ")\n";
        return false;
      }
    } else if (auto tier = value_of("--tier=")) {
      if (*tier != "auto" && *tier != "exact" && *tier != "heuristic") {
        err << "invalid value for --tier: " << *tier
            << " (expected auto, exact, or heuristic)\n";
        return false;
      }
      options->tier = *tier;
    } else if (arg == "--no-cache") {
      options->no_cache = true;
    } else if (arg == "--stats") {
      options->stats = true;
    } else if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown option: " << arg << "\n";
      return false;
    } else {
      options->file = arg;
    }
  }
  return true;
}

constexpr char kBenchUsage[] =
    "usage: mintri bench [suite...] [options]\n"
    "\n"
    "Runs the named benchmark suites over the built-in workload families and\n"
    "writes a machine-readable BENCH_core.json report. Suites: minseps (one\n"
    "ListMinimalSeparators pass per graph), pmc (minimal separators + PMC\n"
    "enumeration), ranked (ranked enumeration under width and under fill,\n"
    "with per-entry init_seconds, after-first-result throughput and the\n"
    "best cost reached, context init at the entry's thread count), ckk (the\n"
    "CKK baseline over the same graphs and costs, serial), appcost (ranked\n"
    "enumeration under the application costs — hypertree/fhw over the TPC-H\n"
    "query hypergraphs, state-space over the graphical-model instances —\n"
    "with bag-score cache hit rates), huge (the tiered pipeline on\n"
    "PACE-scale graphs of >= 1000 vertices, with the per-entry tier label).\n"
    "With no suite arguments (or the keyword 'all'), all suites run.\n"
    "\n"
    "  --out=FILE   output path (default BENCH_core.json; '-' for stdout)\n"
    "  --smoke      CI-sized run: few families, capped graphs, and at most\n"
    "               100 results per entry, so that its counts repeat\n"
    "  --threads=N  run every suite but ckk at exactly N threads; default\n"
    "               is the sweep {1, hardware_concurrency} for\n"
    "               minseps/pmc/ranked\n"
    "  --quiet      no per-graph progress on stderr\n"
    "  --help       show this message and exit\n"
    "\n"
    "Budgets scale with the MINTRI_TIME_SCALE environment variable; the\n"
    "report's git_sha comes from configure time (MINTRI_GIT_SHA overrides).\n";

int RunBenchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  bench::BenchRunOptions options;
  std::string out_path = "BENCH_core.json";
  bool quiet = false;
  bool all_suites = false;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << kBenchUsage;
      return 0;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::string value = arg.substr(10);
      if (!flags::ParseThreads(value, &options.threads)) {
        err << "invalid value for --threads: " << value
            << " (expected an integer in 1.." << flags::MaxThreads() << ")\n";
        return 1;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown option: " << arg << "\n";
      return 1;
    } else if (arg == "all") {
      all_suites = true;
    } else if (bench::IsKnownSuite(arg)) {
      options.suites.push_back(arg);
    } else {
      err << "unknown suite: " << arg
          << " (expected minseps, pmc, ranked, ckk, appcost, huge, or all)\n";
      return 1;
    }
  }
  if (all_suites) options.suites.clear();  // empty = every suite

  bench::BenchReport report =
      bench::RunBenchSuites(options, quiet ? nullptr : &err);
  if (out_path == "-") {
    bench::WriteBenchJson(report, out);
  } else {
    std::ofstream file(out_path);
    if (!file) {
      err << "cannot write " << out_path << "\n";
      return 1;
    }
    bench::WriteBenchJson(report, file);
    err << "wrote " << out_path << " (" << report.entries.size()
        << " entries, git " << report.git_sha << ")\n";
  }
  return 0;
}

void PrintResult(const Options& options, const Graph& g, int rank,
                 Triangulation t, std::ostream& out,
                 const char* tier = nullptr) {
  if (options.format == "td") {
    out << "c result " << rank << " cost " << t.cost << " width "
        << t.Width() << " fill " << t.FillIn(g);
    if (tier != nullptr) out << " tier " << tier;
    out << "\n";
    WritePaceTd(CliqueTreeOf(std::move(t)), g.NumVertices(), out);
  } else {
    out << "#" << rank << " cost=" << t.cost << " width=" << t.Width()
        << " fill=" << t.FillIn(g) << " bags=" << t.bags.size();
    if (tier != nullptr) out << " tier=" << tier;
    out << "\n";
  }
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err) {
  if (!args.empty() && args[0] == "bench") {
    return RunBenchCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  if (!args.empty() && args[0] == "batch") {
    return RunBatchCommand(
        std::vector<std::string>(args.begin() + 1, args.end()), out, err);
  }
  // `mintri rank ...` is the canonical spelling; the bare invocation stays
  // supported as the historical alias.
  std::vector<std::string> rank_args =
      (!args.empty() && args[0] == "rank")
          ? std::vector<std::string>(args.begin() + 1, args.end())
          : args;
  Options options;
  if (!ParseArgs(rank_args, &options, err)) return 1;
  if (options.help) {
    out << kUsage;
    return 0;
  }

  std::string error;
  std::optional<CostModelInstance> instance;
  if (options.file.empty()) {
    InstanceKind kind = InstanceKind::kGraph;
    if (options.input == "hg") kind = InstanceKind::kHypergraph;
    if (options.input == "uai") kind = InstanceKind::kModel;
    instance = ReadInstance(in, kind, "<stdin>", &error);
  } else {
    instance = LoadInstance(options.file, &error);
  }
  if (!instance.has_value()) {
    err << error << "\n";
    return 1;
  }
  const Graph& g = instance->graph;

  std::optional<CostModel> model =
      MakeCostModel(options.cost, *instance, !options.no_cache, &error);
  if (!model.has_value()) {
    err << error << "\n";
    return 1;
  }
  const BagCost& cost = *model->cost;

  auto print_cache_stats = [&]() {
    if (!options.stats || model->cache == nullptr) return;
    const BagScoreCache::Stats stats = model->cache->stats();
    err << "bag-score cache: lookups=" << stats.lookups
        << " hits=" << stats.hits << " misses=" << stats.misses
        << " hit_rate=" << stats.HitRate() << "\n";
  };

  if (options.algo == "ckk") {
    if (!g.IsConnected()) {
      err << "the CKK baseline requires a connected graph\n";
      return 1;
    }
    CkkEnumerator e(g, &cost);
    for (long long rank = 1; rank <= options.top; ++rank) {
      auto t = e.Next();
      if (!t.has_value()) break;
      PrintResult(options, g, static_cast<int>(rank), std::move(*t), out);
    }
    print_cache_stats();
    return 0;
  }
  if (options.algo != "ranked") {
    err << "unknown algorithm: " << options.algo << "\n";
    return 1;
  }

  ContextOptions ctx_options;
  ctx_options.width_bound = options.bound;
  ctx_options.separator_limits.time_limit_seconds = options.time_limit;
  ctx_options.pmc_limits.time_limit_seconds = options.time_limit;
  ctx_options.num_threads = options.threads;
  // width-then-fill encodes (width, fill) in one number, so no single
  // CostComposition is exact across components; stay exact by requiring a
  // connected graph (single-component ranked product).
  if (options.cost == "width-then-fill" &&
      g.ConnectedComponents().size() > 1) {
    err << "width-then-fill requires a connected graph\n";
    return 1;
  }

  TierOptions tier_options;
  tier_options.mode = options.tier == "exact"
                          ? TierOptions::Mode::kExact
                          : options.tier == "heuristic"
                                ? TierOptions::Mode::kHeuristic
                                : TierOptions::Mode::kAuto;
  tier_options.decomposable_cost = IsTierDecomposableCost(options.cost);
  tier_options.exact_budget_seconds = options.time_limit;
  TieredEnumerator e(g, cost, model->composition, ctx_options, {},
                     tier_options);
  const ContextBuildInfo& info = e.init_info();
  if (!e.init_ok()) {
    err << "initialization " << info.TerminationName() << " after "
        << info.total_seconds << "s (budget " << options.time_limit
        << "s per stage; minseps " << info.minsep_seconds << "s/"
        << info.num_minseps << ", pmcs " << info.pmc_seconds << "s/"
        << info.num_pmcs << ") — graph not poly-MS feasible at this budget\n";
    return 2;
  }
  if (options.stats) {
    err << "graph: n=" << g.NumVertices() << " m=" << g.NumEdges() << "\n";
    err << "init: total=" << info.total_seconds << "s minseps="
        << info.minsep_seconds << "s (" << info.num_minseps << ") pmcs="
        << info.pmc_seconds << "s (" << info.num_pmcs << ") blocks="
        << info.blocks_seconds << "s (" << info.num_blocks << ") wiring="
        << info.wiring_seconds << "s threads=" << options.threads
        << " pmc_tests=" << info.num_pmc_tests << "\n";
    const PreprocessInfo& pre = e.preprocess_info();
    err << "tier[" << options.tier << "]: " << TierName(e.tier())
        << " atoms=" << pre.num_atoms
        << " reduced_vertices=" << pre.vertices_removed
        << " preprocess=" << pre.seconds << "s builds=" << info.num_builds
        << " ms_terminated=" << info.num_ms_terminated
        << " pmc_terminated=" << info.num_pmc_terminated << "\n";
  }
  long long results = 0;
  while (results < options.top) {
    auto t = e.Next();
    if (!t.has_value()) break;
    ++results;
    PrintResult(options, g, static_cast<int>(results),
                std::move(t->triangulation), out, TierName(t->tier));
  }
  if (options.stats) {
    err << "solver: optimizer_calls=" << e.num_optimizer_calls()
        << " candidate_evals=" << e.num_candidate_evals()
        << " combine_calls=" << e.num_combine_calls()
        << " index_updates=" << e.num_index_updates()
        << " range_queries=" << e.num_range_queries()
        << " results=" << results << "\n";
  }
  print_cache_stats();
  return 0;
}

}  // namespace mintri
