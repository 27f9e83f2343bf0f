#ifndef MINTRI_COST_COST_MODEL_REGISTRY_H_
#define MINTRI_COST_COST_MODEL_REGISTRY_H_

#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cost/bag_cost.h"
#include "cost/bag_score_cache.h"
#include "hypergraph/hypergraph.h"
#include "inference/model_io.h"

namespace mintri {

/// A loaded problem instance: the graph the ranked stack triangulates plus
/// the application payload (hypergraph for edge-cover costs, graphical
/// model for the state-space cost) when the input format carries one.
struct CostModelInstance {
  std::string name;
  Graph graph;
  std::optional<Hypergraph> hypergraph;  // .hg inputs, tpch:<q> builtins
  std::optional<GraphicalModel> model;   // .uai inputs, gm:<name> builtins
};

/// How ReadInstance should interpret a stream.
enum class InstanceKind { kGraph, kHypergraph, kModel };

/// Loads an instance from a spec — either a file path whose extension
/// selects the format (.hg → hypergraph whose primal graph is
/// triangulated, .uai → factor list whose moral graph is triangulated, any
/// other path → DIMACS/PACE .gr graph) or a builtin:
///   tpch:<q>        the hypergraph (CQ) view of TPC-H query q (1..22)
///   tpch-graph:<q>  the plain TPC-H join graph
///   gm:<name>       a workloads::InferenceModelByName graphical model
/// Returns std::nullopt with a human-readable *error on failure.
std::optional<CostModelInstance> LoadInstance(const std::string& spec,
                                              std::string* error);

/// Stream variant (stdin support): parses `in` as `kind`.
std::optional<CostModelInstance> ReadInstance(std::istream& in,
                                              InstanceKind kind,
                                              const std::string& name,
                                              std::string* error);

/// A constructed application cost: the BagCost to rank by, how it composes
/// across connected components, and — for the edge-cover costs — the
/// memoized bag-score cache sitting in front of the WeightedWidthCost
/// (null when the cost has no memoizable bag score or caching was
/// disabled). The instance must outlive the CostModel: the cost closures
/// reference its hypergraph/model in place.
struct CostModel {
  std::unique_ptr<BagCost> cost;
  CostComposition composition = CostComposition::kMax;
  std::shared_ptr<BagScoreCache> cache;
};

/// The registry's cost names: width, fill, width-then-fill, state-space,
/// hypertree, fhw. hypertree/fhw require an instance with a hypergraph;
/// state-space uses the model's domain sizes when present and uniform
/// domains of 2 otherwise.
const std::vector<std::string>& KnownCostNames();

/// Constructs the named cost over `instance`. `enable_cache` wires the
/// bag-score cache in front of the edge-cover scores (hypertree/fhw).
/// Returns std::nullopt with a human-readable *error for unknown names or
/// instances missing the required payload.
std::optional<CostModel> MakeCostModel(const std::string& cost_name,
                                       const CostModelInstance& instance,
                                       bool enable_cache, std::string* error);

}  // namespace mintri

#endif  // MINTRI_COST_COST_MODEL_REGISTRY_H_
