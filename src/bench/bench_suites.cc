#include "bench/bench_suites.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>

#include "cost/cost_model_registry.h"
#include "enumeration/ckk.h"
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

// All wall-clock budgets are the paper's limits scaled down so a full run
// finishes in minutes (the paper's Section 7 runs take server-days).
// MINTRI_TIME_SCALE multiplies every budget (e.g. MINTRI_TIME_SCALE=10 for a
// slower, more faithful run).
double TimeScale() {
  const char* env = std::getenv("MINTRI_TIME_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

double MinSepBudget() { return 0.5 * TimeScale(); }  // paper: 60 s
double PmcBudget() { return 2.5 * TimeScale(); }     // paper: 30 min
double EnumBudget() { return 1.5 * TimeScale(); }    // paper: 30 min

constexpr size_t kMaxSeparators = 200000;
constexpr long long kMaxResults = 100000;

// Smoke mode trims the sweep to a CI-sized gate: cheap, always-tractable
// families and few graphs each. It keeps the full budgets and instead caps
// every ranking entry at a fixed number of results, so that its counts are
// fixed work and repeat from run to run.
constexpr int kSmokeGraphsPerFamily = 3;
constexpr long long kSmokeMaxResults = 100;
const char* const kSmokeFamilies[] = {"Grids", "CSP", "TPC-H"};

// The ranked and ckk suites run every graph once per cost: Table 2's width
// and fill-in columns.
const char* const kTableCosts[] = {"width", "fill"};

struct SuiteContext {
  bool smoke = false;
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

// What the timed loop saw of one ranked (or CKK) result stream.
struct StreamRun {
  long long count = 0;
  double first_result_seconds = 0;
  bool exhausted = false;  // the stream ended before the budget or the cap
};

// The timed loop of every suite that ranks. `next_cost` yields the cost of
// the stream's next result, or std::nullopt when the stream ends. Pulls
// results until then, until `timer` reaches `budget` or until the result
// cap; records the first-result time, and into `e` the lowest cost among
// the results and how many results reach it.
template <typename NextCost>
StreamRun DrainStream(const SuiteContext& ctx, double budget,
                      const WallTimer& timer, NextCost next_cost,
                      BenchEntry* e) {
  const long long cap = ctx.smoke ? kSmokeMaxResults : kMaxResults;
  StreamRun run;
  while (timer.Seconds() < budget && run.count < cap) {
    std::optional<CostValue> cost = next_cost();
    if (!cost.has_value()) {
      run.exhausted = true;
      break;
    }
    if (++run.count == 1) run.first_result_seconds = timer.Seconds();
    if (run.count == 1 || *cost < e->best_cost) {
      e->best_cost = *cost;
      e->best_count = 1;
    } else if (*cost == e->best_cost) {
      ++e->best_count;
    }
  }
  return run;
}

std::optional<CostValue> NextCost(TieredEnumerator& enumerator) {
  std::optional<TieredResult> r = enumerator.Next();
  if (!r.has_value()) return std::nullopt;
  return r->triangulation.cost;
}

std::optional<CostValue> NextCost(CkkEnumerator& enumerator) {
  std::optional<Triangulation> t = enumerator.Next();
  if (!t.has_value()) return std::nullopt;
  return t->cost;
}

// Triangulations per second after the first result: the paper's
// enumeration-rate measure, which leaves out the one-off initialization.
double RateAfterFirstResult(const StreamRun& run, double wall_seconds) {
  return (run.count > 1 && wall_seconds > run.first_result_seconds)
             ? (run.count - 1) / (wall_seconds - run.first_result_seconds)
             : 0.0;
}

// Builds a plain-graph cost ("width" or "fill") through the registry, the
// same way `mintri rank --cost=` does.
CostModel GraphCostModel(const std::string& cost_name) {
  std::optional<CostModel> model =
      MakeCostModel(cost_name, CostModelInstance{}, /*enable_cache=*/false,
                    /*error=*/nullptr);
  assert(model.has_value());
  return std::move(*model);
}

BenchEntry RunMinSeps(const SuiteContext& ctx,
                      const workloads::DatasetFamily& family,
                      const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("minseps", ctx, family, dg);
  EnumerationLimits limits;
  limits.time_limit_seconds = MinSepBudget();
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
  sep_limits.time_limit_seconds = MinSepBudget();
  sep_limits.max_results = kMaxSeparators;
  sep_limits.num_threads = ctx.threads;
  WallTimer timer;
  MinimalSeparatorsResult seps = ListMinimalSeparators(dg.graph, sep_limits);
  if (seps.status != EnumerationStatus::kComplete) {
    FinishEntry(&e, 0, timer.Seconds(), "ms-terminated");
    return e;
  }
  PmcOptions options;
  options.limits.time_limit_seconds = PmcBudget();
  options.limits.num_threads = ctx.threads;
  timer.Reset();
  PmcResult pmcs = ListPotentialMaximalCliques(dg.graph, options);
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

// The ranked and appcost suites measure the exact ranked product over the
// connected components: no Tier 0, no shared budget, no fallback.
TierOptions ExactTierOptions() {
  TierOptions tier_options;
  tier_options.mode = TierOptions::Mode::kExact;
  return tier_options;
}

// The ranked suite is RankedTriang's side of Table 2 end to end: context
// initialization at the entry's thread count, then ranked enumeration,
// reporting init_seconds and the after-first-result throughput. The
// enumeration budget doubles as a solver deadline, so a repair pass that
// overruns is cut inside the loop and reported truthfully as truncated
// rather than blowing past the budget.
BenchEntry RunRanked(const SuiteContext& ctx,
                     const workloads::DatasetFamily& family,
                     const workloads::DatasetGraph& dg,
                     const std::string& cost_name) {
  BenchEntry e = MakeEntry("ranked", ctx, family, dg);
  e.cost = cost_name;
  const CostModel model = GraphCostModel(cost_name);
  const double budget = EnumBudget();
  ContextOptions options = MakeContextOptions(ctx, budget);
  WallTimer timer;
  TieredEnumerator enumerator(dg.graph, *model.cost, model.composition,
                              options, {}, ExactTierOptions());
  e.init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    FinishEntry(&e, 0, timer.Seconds(),
                enumerator.init_info().TerminationName());
    return e;
  }
  const Deadline deadline(budget);
  enumerator.SetDeadline(&deadline);
  const StreamRun run = DrainStream(
      ctx, budget, timer, [&] { return NextCost(enumerator); }, &e);
  const double wall = timer.Seconds();
  FinishEntry(&e, run.count, wall,
              run.exhausted && !enumerator.truncated() ? "complete"
                                                       : "truncated");
  e.results_per_sec = RateAfterFirstResult(run, wall);
  e.candidate_evals = enumerator.num_candidate_evals();
  e.combine_calls = enumerator.num_combine_calls();
  e.index_updates = enumerator.num_index_updates();
  e.range_queries = enumerator.num_range_queries();
  return e;
}

// The ckk suite is Table 2's baseline: the CKK enumerator over the same
// graphs, budget and costs as the ranked suite. It has no initialization
// and no order, so the cost only scores its results. CKK needs a connected
// graph (as `mintri rank --algo=ckk` does); a disconnected one gets an
// entry without results.
BenchEntry RunCkk(const SuiteContext& ctx,
                  const workloads::DatasetFamily& family,
                  const workloads::DatasetGraph& dg,
                  const std::string& cost_name) {
  BenchEntry e = MakeEntry("ckk", ctx, family, dg);
  e.cost = cost_name;
  if (!dg.graph.IsConnected()) {
    FinishEntry(&e, 0, 0.0, "disconnected");
    return e;
  }
  const CostModel model = GraphCostModel(cost_name);
  WallTimer timer;
  CkkEnumerator enumerator(dg.graph, model.cost.get());
  const StreamRun run = DrainStream(
      ctx, EnumBudget(), timer, [&] { return NextCost(enumerator); }, &e);
  FinishEntry(&e, run.count, timer.Seconds(),
              run.exhausted ? "complete" : "truncated");
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
  const CostModel model = GraphCostModel(e.cost);
  const double budget = EnumBudget();
  ContextOptions options = MakeContextOptions(ctx, budget);
  TierOptions tier_options;
  tier_options.decomposable_cost = true;  // width
  tier_options.exact_budget_seconds = budget;
  TieredEnumerator enumerator(dg.graph, *model.cost, model.composition,
                              options, {}, tier_options);
  e.init_seconds = enumerator.init_seconds();
  e.tier = TierName(enumerator.tier());
  WallTimer timer;
  const Deadline deadline(budget);
  enumerator.SetDeadline(&deadline);
  const StreamRun run = DrainStream(
      ctx, budget, timer, [&] { return NextCost(enumerator); }, &e);
  const double wall = timer.Seconds();
  FinishEntry(&e, run.count, wall,
              run.exhausted && !enumerator.truncated() ? "complete"
                                                       : "truncated");
  e.results_per_sec = RateAfterFirstResult(run, wall);
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
  const double budget = EnumBudget();
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
  const StreamRun run = DrainStream(
      ctx, budget, timer, [&] { return NextCost(enumerator); }, &e);
  FinishEntry(&e, run.count, timer.Seconds(),
              run.exhausted ? "complete" : "truncated");
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

const std::vector<std::string>& AllSuiteNames() {
  static const std::vector<std::string> kNames = {
      "minseps", "pmc", "ranked", "ckk", "appcost", "huge"};
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
    // initialization phase (the enumeration itself is serial). CKK is
    // serial throughout, so ckk is always one serial point.
    std::vector<int> thread_points;
    if (suite == "ckk") {
      thread_points = {1};
    } else if (options.threads > 0) {
      thread_points = {options.threads};
    } else {
      thread_points = {1, parallel::DefaultParallelThreads()};
    }
    std::vector<std::string> costs = {""};
    if (suite == "ranked" || suite == "ckk") {
      costs.assign(std::begin(kTableCosts), std::end(kTableCosts));
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
          for (const std::string& cost : costs) {
            BenchEntry entry;
            if (suite == "minseps") {
              entry = RunMinSeps(ctx, family, dg);
            } else if (suite == "pmc") {
              entry = RunPmc(ctx, family, dg);
            } else if (suite == "ranked") {
              entry = RunRanked(ctx, family, dg, cost);
            } else {
              entry = RunCkk(ctx, family, dg, cost);
            }
            if (progress != nullptr) {
              *progress << suite << "[t=" << threads
                        << (cost.empty() ? "" : ", " + cost) << "] "
                        << family.name << "/" << dg.name << ": "
                        << entry.count << " results in "
                        << FormatDouble(entry.wall_ms) << " ms ("
                        << entry.status << ")\n";
            }
            report.entries.push_back(std::move(entry));
          }
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
        << ", \"best_cost\": " << FormatDouble(e.best_cost)
        << ", \"best_count\": " << e.best_count
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
