#include "traced_run.h"

#include <optional>

#include "cost/standard_costs.h"
#include "enumeration/ranked_enum.h"
#include "enumeration/tiered_enum.h"
#include "graph/graph_io.h"
#include "pmc/potential_maximal_cliques.h"
#include "preprocess/preprocess.h"
#include "separators/minimal_separators.h"
#include "triang/context.h"
#include "triang/triangulation.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The options `mintri rank --tier=auto --threads=1` uses with its default
// --time-limit of 30 seconds.
constexpr double kCliTimeLimit = 30.0;

mintri::ContextOptions CliContextOptions() {
  mintri::ContextOptions options;
  options.separator_limits.time_limit_seconds = kCliTimeLimit;
  options.pmc_limits.time_limit_seconds = kCliTimeLimit;
  options.num_threads = 1;
  return options;
}

struct TieredPass {
  std::string error;
  double init_s = 0;
  std::vector<double> next_ms;
  std::vector<double> clique_tree_ms;
  std::vector<double> evaluate_ms;
  long long units = 0;
  std::vector<mintri::Triangulation> results;
  double wall_s = 0;  // start of parsing until the k-th result's re-runs
  std::optional<mintri::Graph> graph;
};

// Parse, construct the tiered enumerator and pull k results, as the CLI
// does. After each Next (outside its span) TriangulationFromChordal and
// BagCost::Evaluate are re-run on the result while the enumerator is still
// alive, so they see the same heap as the calls inside Next. Spans only
// when the tracer is enabled; the work is the same either way.
TieredPass RunTiered(const std::string& graph_text, long long k,
                     const mintri::BagCost& cost, Tracer* tracer) {
  TieredPass pass;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(tracer, "tiered.parse");
    pass.graph = mintri::ParseDimacsString(graph_text);
  }
  if (!pass.graph.has_value()) {
    pass.error = "tiered pass: the graph does not parse";
    return pass;
  }
  const mintri::Graph& g = *pass.graph;
  mintri::TierOptions tier_options;
  tier_options.mode = mintri::TierOptions::Mode::kAuto;
  tier_options.decomposable_cost = mintri::IsTierDecomposableCost("width");
  tier_options.exact_budget_seconds = kCliTimeLimit;
  ScopedSpan init_span(tracer, "tiered.init");
  mintri::TieredEnumerator enumerator(g, cost, mintri::CostComposition::kMax,
                                      CliContextOptions(), {}, tier_options);
  pass.init_s = init_span.Close();
  pass.units = enumerator.preprocess_info().num_atoms;
  pass.results.reserve(k);
  for (long long i = 0; i < k; ++i) {
    ScopedSpan next_span(tracer, "tiered.next");
    std::optional<mintri::TieredResult> r = enumerator.Next();
    pass.next_ms.push_back(next_span.Close() * 1e3);
    if (!r.has_value()) {
      pass.error = "tiered pass: stream ended after " + std::to_string(i) +
                   " results";
      return pass;
    }
    const mintri::Triangulation& t = r->triangulation;
    {
      ScopedSpan span(tracer, "chordal.clique_tree");
      mintri::Triangulation again =
          mintri::TriangulationFromChordal(g, t.filled, t.cost);
      pass.clique_tree_ms.push_back(span.Close() * 1e3);
      if (again.bags.size() != t.bags.size()) {
        pass.error = "TriangulationFromChordal disagrees on a result's bags";
        return pass;
      }
    }
    {
      ScopedSpan span(tracer, "cost.evaluate");
      const mintri::CostValue value = cost.Evaluate(g, t.bags);
      pass.evaluate_ms.push_back(span.Close() * 1e3);
      if (value != t.cost) {
        pass.error = "BagCost::Evaluate disagrees with a result's cost";
        return pass;
      }
    }
    pass.results.push_back(std::move(r->triangulation));
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

// Converts library results to the checker's form.
std::vector<Result> ToResults(const mintri::Graph& g,
                              const std::vector<mintri::Triangulation>& ts) {
  std::vector<Result> results;
  for (const mintri::Triangulation& t : ts) {
    Result r;
    r.rank = static_cast<long long>(results.size()) + 1;
    r.cost = t.cost;
    r.width = t.Width();
    r.fill = t.FillIn(g);
    for (const mintri::VertexSet& bag : t.bags) {
      r.bags.push_back(bag.ToVector());
    }
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace

LayerRep RunLayers(const std::string& graph_text, long long k,
                   Tracer* tracer) {
  LayerRep rep;
  const mintri::WidthCost cost;
  ScopedSpan rep_span(tracer, "rep");

  std::optional<mintri::Graph> parsed;
  {
    ScopedSpan span(tracer, "graph.parse");
    parsed = mintri::ParseDimacsString(graph_text);
    rep.parse_s = span.Close();
  }
  if (!parsed.has_value()) {
    rep.error = "the graph does not parse";
    return rep;
  }
  const mintri::Graph& g = *parsed;

  mintri::PreprocessResult pre;
  {
    ScopedSpan span(tracer, "preprocess");
    pre = mintri::Preprocess(g);
    rep.preprocess_s = span.Close();
  }
  rep.atoms = static_cast<long long>(pre.atoms.size());
  rep.reduced_vertices = pre.info.vertices_removed;

  // Each atom is a unit of the tiered pipeline; rank on the largest one.
  std::optional<mintri::TriangulationContext> largest;
  for (const mintri::VertexSet& atom : pre.atoms) {
    const mintri::Graph unit = pre.reduced.InducedSubgraph(atom);
    mintri::MinimalSeparatorsResult seps;
    {
      ScopedSpan span(tracer, "separators");
      seps = mintri::ListMinimalSeparators(unit);
      rep.separators_s += span.Close();
    }
    rep.separators_count += static_cast<long long>(seps.separators.size());
    {
      ScopedSpan span(tracer, "pmc");
      mintri::PmcResult pmcs =
          mintri::ListPotentialMaximalCliques(unit, seps.separators);
      rep.pmc_s += span.Close();
      rep.pmc_count += static_cast<long long>(pmcs.pmcs.size());
    }
    mintri::ContextBuildInfo info;
    std::optional<mintri::TriangulationContext> ctx;
    {
      ScopedSpan span(tracer, "context.build");
      ctx = mintri::TriangulationContext::Build(unit, CliContextOptions(),
                                                &info);
      rep.context_s +=
          span.Close() - info.minsep_seconds - info.pmc_seconds;
    }
    if (!ctx.has_value()) {
      rep.error = std::string("context build ") + info.TerminationName();
      return rep;
    }
    rep.context_blocks += static_cast<long long>(info.num_blocks);
    if (!largest.has_value() ||
        unit.NumVertices() > largest->graph().NumVertices()) {
      largest = std::move(ctx);
    }
  }

  if (largest.has_value()) {
    mintri::RankedTriangulationEnumerator ranked(*largest, cost);
    for (long long i = 0; i < k; ++i) {
      ScopedSpan span(tracer, "ranked.next");
      std::optional<mintri::Triangulation> t = ranked.Next();
      const double ms = span.Close() * 1e3;
      if (!t.has_value()) break;
      rep.ranked_next_ms.push_back(ms);
    }
    rep.ranked_results = static_cast<long long>(rep.ranked_next_ms.size());
    rep.optimizer_calls = ranked.num_optimizer_calls();
    rep.candidate_evals = ranked.num_candidate_evals();
    rep.combine_calls = ranked.num_combine_calls();
  }

  TieredPass pass;
  {
    ScopedSpan span(tracer, "tiered");
    pass = RunTiered(graph_text, k, cost, tracer);
  }
  if (!pass.error.empty()) {
    rep.error = pass.error;
    return rep;
  }
  rep.tiered_init_s = pass.init_s;
  rep.tiered_next_ms = std::move(pass.next_ms);
  rep.tiered_units = pass.units;
  rep.traced_wall_s = pass.wall_s;

  rep.clique_tree_ms = std::move(pass.clique_tree_ms);
  rep.evaluate_ms = std::move(pass.evaluate_ms);
  rep.results = ToResults(*pass.graph, pass.results);
  return rep;
}

double UntracedTieredWall(const std::string& graph_text, long long k) {
  Tracer off(false);
  const mintri::WidthCost cost;
  TieredPass pass = RunTiered(graph_text, k, cost, &off);
  return pass.error.empty() ? pass.wall_s : -1;
}

}  // namespace perfbench
