#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <string>
#include <vector>

#include "checker.h"
#include "trace.h"

namespace perfbench {

/// One traced repetition: the pipeline `mintri rank --tier=auto` runs,
/// re-driven layer by layer from the benchmark through each layer's public
/// functions, with a span around every call.
struct LayerRep {
  std::string error;  // empty on success

  double parse_s = 0;  // ParseDimacsString
  double preprocess_s = 0;  // Preprocess on the whole graph
  long long atoms = 0;
  long long reduced_vertices = 0;

  // Per atom (the units the tiered pipeline solves), summed.
  double separators_s = 0;  // ListMinimalSeparators
  long long separators_count = 0;
  double pmc_s = 0;  // ListPotentialMaximalCliques
  long long pmc_count = 0;
  double context_s = 0;  // TriangulationContext::Build minus its two stages
  long long context_blocks = 0;

  // RankedTriangulationEnumerator::Next on the largest atom's context,
  // built above, for up to k results.
  std::vector<double> ranked_next_ms;
  long long ranked_results = 0;
  long long optimizer_calls = 0;
  long long candidate_evals = 0;
  long long combine_calls = 0;

  // TieredEnumerator: construction, then k calls of Next, each followed by
  // the two re-runs below.
  double tiered_init_s = 0;
  std::vector<double> tiered_next_ms;
  long long tiered_units = 0;
  std::vector<Result> results;  // the tiered stream, for the checker

  // Re-run on each tiered result right after its Next, outside that span.
  std::vector<double> clique_tree_ms;  // TriangulationFromChordal
  std::vector<double> evaluate_ms;     // BagCost::Evaluate

  // Start of parsing until the k-th tiered result and its re-runs, with
  // spans recorded.
  double traced_wall_s = 0;
};

/// Runs one traced repetition on a .gr text with `k` results.
LayerRep RunLayers(const std::string& graph_text, long long k,
                   Tracer* tracer);

/// The tiered path of RunLayers (parse, construct, k results with their
/// re-runs) with no spans: its wall time in seconds, -1 on failure.
double UntracedTieredWall(const std::string& graph_text, long long k);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
