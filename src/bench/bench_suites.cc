#include "bench/bench_suites.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "cost/cost_model_registry.h"
#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "parallel/thread_pool.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "util/json_util.h"
#include "util/timer.h"
#include "workloads/families.h"
#include "workloads/inference_models.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"
#include "workloads/tpch_queries.h"

#ifndef MINTRI_GIT_SHA
#define MINTRI_GIT_SHA "unknown"
#endif

namespace mintri {
namespace bench {

namespace {

// Smoke mode trims the sweep to a CI-sized gate: cheap, deterministic,
// always-tractable families, few graphs each, tight budgets.
constexpr int kSmokeGraphsPerFamily = 3;
constexpr double kSmokeBudgetFactor = 0.25;
const char* const kSmokeFamilies[] = {"Grids", "CSP", "TPC-H"};

struct SuiteContext {
  bool smoke = false;
  double budget_factor = 1.0;
  int threads = 1;
};

bool SmokeIncludesFamily(const std::string& name) {
  for (const char* f : kSmokeFamilies) {
    if (name == f) return true;
  }
  return false;
}

BenchEntry MakeEntry(const std::string& suite, const SuiteContext& ctx,
                     const workloads::DatasetFamily& family,
                     const workloads::DatasetGraph& dg) {
  BenchEntry e;
  e.suite = suite;
  e.family = family.name;
  e.graph = dg.name;
  e.n = dg.graph.NumVertices();
  e.m = dg.graph.NumEdges();
  e.threads = ctx.threads;
  return e;
}

void FinishEntry(BenchEntry* e, long long count, double wall_seconds,
                 const std::string& status) {
  e->count = count;
  e->wall_ms = wall_seconds * 1000.0;
  e->results_per_sec = wall_seconds > 0 ? count / wall_seconds : 0.0;
  e->status = status;
}

BenchEntry RunMinSeps(const SuiteContext& ctx,
                      const workloads::DatasetFamily& family,
                      const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("minseps", ctx, family, dg);
  EnumerationLimits limits;
  limits.time_limit_seconds = MinSepBudget() * ctx.budget_factor;
  limits.max_results = kMaxSeparators;
  limits.num_threads = ctx.threads;
  WallTimer timer;
  MinimalSeparatorsResult r = ListMinimalSeparators(dg.graph, limits);
  FinishEntry(&e, static_cast<long long>(r.separators.size()),
              timer.Seconds(),
              r.status == EnumerationStatus::kComplete ? "complete"
                                                       : "truncated");
  return e;
}

BenchEntry RunPmc(const SuiteContext& ctx,
                  const workloads::DatasetFamily& family,
                  const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("pmc", ctx, family, dg);
  EnumerationLimits sep_limits;
  sep_limits.time_limit_seconds = MinSepBudget() * ctx.budget_factor;
  sep_limits.max_results = kMaxSeparators;
  sep_limits.num_threads = ctx.threads;
  WallTimer timer;
  MinimalSeparatorsResult seps = ListMinimalSeparators(dg.graph, sep_limits);
  if (seps.status != EnumerationStatus::kComplete) {
    FinishEntry(&e, 0, timer.Seconds(), "ms-terminated");
    return e;
  }
  PmcOptions options;
  options.limits.time_limit_seconds = PmcBudget() * ctx.budget_factor;
  options.limits.num_threads = ctx.threads;
  timer.Reset();
  PmcResult pmcs =
      ListPotentialMaximalCliques(dg.graph, seps.separators, options);
  FinishEntry(&e, static_cast<long long>(pmcs.pmcs.size()), timer.Seconds(),
              pmcs.status == EnumerationStatus::kComplete ? "complete"
                                                          : "truncated");
  return e;
}

ContextOptions MakeContextOptions(const SuiteContext& ctx, double budget) {
  ContextOptions options;
  options.separator_limits.time_limit_seconds = budget;
  options.separator_limits.max_results = kMaxSeparators;
  options.pmc_limits.time_limit_seconds = budget;
  options.num_threads = ctx.threads;
  return options;
}

// The enum, ranked and appcost suites measure the exact ranked product over
// the connected components: no Tier 0, no shared budget, no fallback.
TierOptions ExactTierOptions() {
  TierOptions tier_options;
  tier_options.mode = TierOptions::Mode::kExact;
  return tier_options;
}

BenchEntry RunEnum(const SuiteContext& ctx,
                   const workloads::DatasetFamily& family,
                   const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("enum", ctx, family, dg);
  e.cost = "width";
  const double budget = EnumBudget() * ctx.budget_factor;
  ContextOptions options = MakeContextOptions(ctx, budget);
  WidthCost cost;
  WallTimer timer;
  TieredEnumerator enumerator(dg.graph, cost, CostComposition::kMax, options,
                              {}, ExactTierOptions());
  e.init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    FinishEntry(&e, 0, timer.Seconds(),
                enumerator.init_info().TerminationName());
    return e;
  }
  long long count = 0;
  bool finished = false;
  while (timer.Seconds() < budget &&
         count < static_cast<long long>(kMaxResults)) {
    if (!enumerator.Next().has_value()) {
      finished = true;
      break;
    }
    ++count;
  }
  FinishEntry(&e, count, timer.Seconds(),
              finished ? "complete" : "truncated");
  return e;
}

// The ranked suite is the Fig. 5 / Table 2 experiment class end to end:
// context initialization at the entry's thread count, then ranked
// enumeration, reporting init_seconds and the after-first-result
// throughput (the paper's enumeration-rate measure, which excludes the
// one-off initialization the pipeline amortizes). The enumeration budget
// doubles as a solver deadline, so a repair pass that overruns is cut
// inside the loop and reported truthfully as truncated rather than
// blowing past the budget.
BenchEntry RunRanked(const SuiteContext& ctx,
                     const workloads::DatasetFamily& family,
                     const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("ranked", ctx, family, dg);
  e.cost = "width";
  const double budget = EnumBudget() * ctx.budget_factor;
  ContextOptions options = MakeContextOptions(ctx, budget);
  WidthCost cost;
  WallTimer timer;
  TieredEnumerator enumerator(dg.graph, cost, CostComposition::kMax, options,
                              {}, ExactTierOptions());
  e.init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    FinishEntry(&e, 0, timer.Seconds(),
                enumerator.init_info().TerminationName());
    return e;
  }
  const Deadline deadline(budget);
  enumerator.SetDeadline(&deadline);
  long long count = 0;
  double first_result_seconds = 0;
  bool finished = false;
  while (timer.Seconds() < budget &&
         count < static_cast<long long>(kMaxResults)) {
    if (!enumerator.Next().has_value()) {
      finished = !enumerator.truncated();
      break;
    }
    ++count;
    if (count == 1) first_result_seconds = timer.Seconds();
  }
  const double wall = timer.Seconds();
  FinishEntry(&e, count, wall, finished ? "complete" : "truncated");
  e.results_per_sec = (count > 1 && wall > first_result_seconds)
                          ? (count - 1) / (wall - first_result_seconds)
                          : 0.0;
  e.candidate_evals = enumerator.num_candidate_evals();
  e.combine_calls = enumerator.num_combine_calls();
  e.index_updates = enumerator.num_index_updates();
  e.range_queries = enumerator.num_range_queries();
  return e;
}

// The huge suite's own family: PACE-scale graphs (>= 1000 vertices) that
// the direct exact stack cannot initialize within the scaled budgets —
// the tiered pipeline's territory. Not part of workloads::AllFamilies(),
// so the exact-path suites never stall on them. Smoke keeps only the grid.
std::vector<workloads::DatasetFamily> HugeFamilies(bool smoke) {
  workloads::DatasetFamily f;
  f.name = "Huge";
  f.graphs.push_back({"grid-32x32", workloads::Grid(32, 32)});
  if (!smoke) {
    f.graphs.push_back({"cycle-2000", workloads::Cycle(2000)});
    f.graphs.push_back({"tree-4096", workloads::RandomTree(4096, 7)});
    f.graphs.push_back(
        {"er-1500", workloads::ConnectedErdosRenyi(1500, 0.002, 11)});
  }
  return {std::move(f)};
}

// The huge suite: the tiered pipeline (auto mode) on PACE-scale graphs.
// Unlike the ranked suite, the enumeration loop gets its own budget after
// initialization — the init phase deliberately spends the exact budget
// before degrading, and the point of the suite is the post-degradation
// ranked stream, not an init-dominated zero.
BenchEntry RunHuge(const SuiteContext& ctx,
                   const workloads::DatasetFamily& family,
                   const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("huge", ctx, family, dg);
  e.cost = "width";
  const double budget = EnumBudget() * ctx.budget_factor;
  ContextOptions options = MakeContextOptions(ctx, budget);
  TierOptions tier_options;
  tier_options.decomposable_cost = true;  // width
  tier_options.exact_budget_seconds = budget;
  WidthCost cost;
  TieredEnumerator enumerator(dg.graph, cost, CostComposition::kMax, options,
                              {}, tier_options);
  e.init_seconds = enumerator.init_seconds();
  e.tier = TierName(enumerator.tier());
  WallTimer timer;
  const Deadline deadline(budget);
  enumerator.SetDeadline(&deadline);
  long long count = 0;
  double first_result_seconds = 0;
  bool finished = false;
  while (timer.Seconds() < budget &&
         count < static_cast<long long>(kMaxResults)) {
    if (!enumerator.Next().has_value()) {
      finished = !enumerator.truncated();
      break;
    }
    ++count;
    if (count == 1) first_result_seconds = timer.Seconds();
  }
  const double wall = timer.Seconds();
  FinishEntry(&e, count, wall, finished ? "complete" : "truncated");
  e.results_per_sec = (count > 1 && wall > first_result_seconds)
                          ? (count - 1) / (wall - first_result_seconds)
                          : 0.0;
  return e;
}

// One appcost instance: an application cost over a loaded problem instance
// (the paper's headline workloads — TPC-H conjunctive queries under the
// edge-cover costs, graphical models under the junction-tree state space).
struct AppCostCase {
  std::string family;
  std::string graph;
  std::string cost;
  CostModelInstance instance;
};

std::vector<AppCostCase> AppCostCases() {
  std::vector<AppCostCase> cases;
  // Grouped by family (the smoke cap counts per contiguous family run).
  for (const char* cost : {"hypertree", "fhw"}) {
    for (const workloads::TpchQuery& q : workloads::AllTpchQueries()) {
      if (q.graph.NumEdges() == 0) continue;  // joinless: nothing to cover
      CostModelInstance instance;
      instance.name = "q" + std::to_string(q.number);
      Hypergraph h = workloads::TpchQueryHypergraph(q);
      instance.graph = h.PrimalGraph();
      instance.hypergraph = std::move(h);
      cases.push_back({std::string("TPC-H-") + cost, instance.name, cost,
                       std::move(instance)});
    }
  }
  for (workloads::NamedModel& nm : workloads::InferenceModels()) {
    CostModelInstance instance;
    instance.name = nm.name;
    instance.graph = nm.model.MarkovGraph();
    instance.model = std::move(nm.model);
    cases.push_back(
        {"GraphicalModels", instance.name, "state-space", std::move(instance)});
  }
  return cases;
}

// The appcost suite: ranked enumeration under the application costs, with
// the memoized bag-score cache in front of the edge-cover scores — the
// reported hit rate is the fraction of candidate evaluations the ranked
// stack avoided re-solving.
BenchEntry RunAppCost(const SuiteContext& ctx, const AppCostCase& acase) {
  BenchEntry e;
  e.suite = "appcost";
  e.family = acase.family;
  e.graph = acase.graph;
  e.n = acase.instance.graph.NumVertices();
  e.m = acase.instance.graph.NumEdges();
  e.threads = ctx.threads;
  e.cost = acase.cost;
  std::string error;
  std::optional<CostModel> model =
      MakeCostModel(acase.cost, acase.instance, /*enable_cache=*/true,
                    &error);
  if (!model.has_value()) {
    // A case list entry whose instance lacks the payload its cost needs
    // (registry bug or a future mis-wired case) — report, don't crash.
    FinishEntry(&e, 0, 0.0, "cost-error");
    return e;
  }
  const double budget = EnumBudget() * ctx.budget_factor;
  ContextOptions options = MakeContextOptions(ctx, budget);
  WallTimer timer;
  TieredEnumerator enumerator(acase.instance.graph, *model->cost,
                              model->composition, options, {},
                              ExactTierOptions());
  e.init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    FinishEntry(&e, 0, timer.Seconds(),
                enumerator.init_info().TerminationName());
    return e;
  }
  long long count = 0;
  bool finished = false;
  while (timer.Seconds() < budget &&
         count < static_cast<long long>(kMaxResults)) {
    if (!enumerator.Next().has_value()) {
      finished = true;
      break;
    }
    ++count;
  }
  FinishEntry(&e, count, timer.Seconds(),
              finished ? "complete" : "truncated");
  if (model->cache != nullptr) {
    e.cache_hit_rate = model->cache->stats().HitRate();
  }
  return e;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << v;
  std::string s = os.str();
  // Trim trailing zeros (keep at least one decimal digit so the value stays
  // a JSON float).
  size_t last = s.find_last_not_of('0');
  if (s[last] == '.') ++last;
  return s.substr(0, last + 1);
}

}  // namespace

double TimeScale() {
  const char* env = std::getenv("MINTRI_TIME_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

double MinSepBudget() { return 0.5 * TimeScale(); }
double PmcBudget() { return 2.5 * TimeScale(); }
double EnumBudget() { return 1.5 * TimeScale(); }

const std::vector<std::string>& AllSuiteNames() {
  static const std::vector<std::string> kNames = {
      "minseps", "pmc", "enum", "ranked", "appcost", "huge"};
  return kNames;
}

bool IsKnownSuite(const std::string& name) {
  const std::vector<std::string>& all = AllSuiteNames();
  return std::find(all.begin(), all.end(), name) != all.end();
}

std::string GitSha() {
  const char* env = std::getenv("MINTRI_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
  return MINTRI_GIT_SHA;
}

BenchReport RunBenchSuites(const BenchRunOptions& options,
                           std::ostream* progress) {
  BenchReport report;
  report.git_sha = GitSha();
  report.time_scale = TimeScale();
  report.smoke = options.smoke;
  report.suites = options.suites.empty() ? AllSuiteNames() : options.suites;

  SuiteContext ctx;
  ctx.smoke = options.smoke;
  ctx.budget_factor = options.smoke ? kSmokeBudgetFactor : 1.0;

  for (const std::string& suite : report.suites) {
    // The appcost suite runs its own instance list (application costs over
    // TPC-H hypergraphs and graphical models), not the plain-graph
    // families.
    if (suite == "appcost") {
      SuiteContext app_ctx = ctx;
      app_ctx.threads = options.threads > 0 ? options.threads : 1;
      int used_in_family = 0;
      std::string current_family;
      for (const AppCostCase& acase : AppCostCases()) {
        if (acase.family != current_family) {
          current_family = acase.family;
          used_in_family = 0;
        }
        if (app_ctx.smoke && used_in_family >= kSmokeGraphsPerFamily) {
          continue;
        }
        ++used_in_family;
        BenchEntry entry = RunAppCost(app_ctx, acase);
        if (progress != nullptr) {
          *progress << "appcost[" << entry.cost << "] " << entry.family
                    << "/" << entry.graph << ": " << entry.count
                    << " results in " << FormatDouble(entry.wall_ms)
                    << " ms (" << entry.status << ", cache "
                    << FormatDouble(entry.cache_hit_rate) << ")\n";
        }
        report.entries.push_back(std::move(entry));
      }
      continue;
    }
    // The huge suite runs its own PACE-scale family through the tiered
    // pipeline, one serial point per graph (the tier-2 path is serial; the
    // exact attempts inside still honor --threads).
    if (suite == "huge") {
      SuiteContext huge_ctx = ctx;
      huge_ctx.threads = options.threads > 0 ? options.threads : 1;
      for (const workloads::DatasetFamily& family :
           HugeFamilies(ctx.smoke)) {
        for (const workloads::DatasetGraph& dg : family.graphs) {
          BenchEntry entry = RunHuge(huge_ctx, family, dg);
          if (progress != nullptr) {
            *progress << "huge[t=" << huge_ctx.threads << ", " << entry.tier
                      << "] " << family.name << "/" << dg.name << ": "
                      << entry.count << " results in "
                      << FormatDouble(entry.wall_ms) << " ms ("
                      << entry.status << ")\n";
          }
          report.entries.push_back(std::move(entry));
        }
      }
      continue;
    }
    // The parallel-capable suites sweep serial vs. all-hardware so every
    // report carries its own baseline; --threads=N pins a single point. The
    // ranked suite sweeps too — its thread count drives the context
    // initialization phase (the enumeration itself is serial); the legacy
    // enum suite stays a single serial point.
    std::vector<int> thread_points;
    if (options.threads > 0) {
      thread_points = {options.threads};
    } else if (suite == "enum") {
      thread_points = {1};
    } else {
      thread_points = {1, parallel::DefaultParallelThreads()};
    }
    for (int threads : thread_points) {
      ctx.threads = threads;
      for (const workloads::DatasetFamily& family :
           workloads::AllFamilies()) {
        if (ctx.smoke && !SmokeIncludesFamily(family.name)) continue;
        int used = 0;
        for (const workloads::DatasetGraph& dg : family.graphs) {
          if (ctx.smoke && used >= kSmokeGraphsPerFamily) break;
          ++used;
          BenchEntry entry;
          if (suite == "minseps") {
            entry = RunMinSeps(ctx, family, dg);
          } else if (suite == "pmc") {
            entry = RunPmc(ctx, family, dg);
          } else if (suite == "ranked") {
            entry = RunRanked(ctx, family, dg);
          } else {
            entry = RunEnum(ctx, family, dg);
          }
          if (progress != nullptr) {
            *progress << suite << "[t=" << threads << "] " << family.name
                      << "/" << dg.name << ": " << entry.count
                      << " results in " << FormatDouble(entry.wall_ms)
                      << " ms (" << entry.status << ")\n";
          }
          report.entries.push_back(std::move(entry));
        }
      }
    }
  }
  return report;
}

void WriteBenchJson(const BenchReport& report, std::ostream& out) {
  out << "{\n";
  out << "  \"schema_version\": " << report.schema_version << ",\n";
  out << "  \"git_sha\": ";
  AppendJsonString(report.git_sha, out);
  out << ",\n";
  out << "  \"time_scale\": " << FormatDouble(report.time_scale) << ",\n";
  out << "  \"smoke\": " << (report.smoke ? "true" : "false") << ",\n";
  out << "  \"suites\": [";
  for (size_t i = 0; i < report.suites.size(); ++i) {
    if (i > 0) out << ", ";
    AppendJsonString(report.suites[i], out);
  }
  out << "],\n";
  out << "  \"entries\": [\n";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& e = report.entries[i];
    out << "    {\"suite\": ";
    AppendJsonString(e.suite, out);
    out << ", \"family\": ";
    AppendJsonString(e.family, out);
    out << ", \"graph\": ";
    AppendJsonString(e.graph, out);
    out << ", \"n\": " << e.n << ", \"m\": " << e.m
        << ", \"threads\": " << e.threads << ", \"count\": " << e.count
        << ", \"wall_ms\": " << FormatDouble(e.wall_ms)
        << ", \"results_per_sec\": " << FormatDouble(e.results_per_sec)
        << ", \"init_seconds\": " << FormatDouble(e.init_seconds)
        << ", \"cost\": ";
    AppendJsonString(e.cost, out);
    out << ", \"candidate_evals\": " << e.candidate_evals
        << ", \"combine_calls\": " << e.combine_calls
        << ", \"index_updates\": " << e.index_updates
        << ", \"range_queries\": " << e.range_queries
        << ", \"cache_hit_rate\": " << FormatDouble(e.cache_hit_rate)
        << ", \"tier\": ";
    AppendJsonString(e.tier, out);
    out << ", \"status\": ";
    AppendJsonString(e.status, out);
    out << "}" << (i + 1 < report.entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace bench
}  // namespace mintri
