#include "enumeration/tiered_enum.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "chordal/clique_tree.h"
#include "chordal/lb_triang.h"
#include "triang/triangulation.h"
#include "util/timer.h"

namespace mintri {

const char* TierName(SolveTier tier) {
  switch (tier) {
    case SolveTier::kExact:
      return "exact";
    case SolveTier::kAtomExact:
      return "atom-exact";
    default:
      return "heuristic";
  }
}

bool IsTierDecomposableCost(const std::string& cost_name) {
  return cost_name == "width" || cost_name == "fill" ||
         cost_name == "hypertree" || cost_name == "fhw";
}

TieredEnumerator::TieredEnumerator(const Graph& g, const BagCost& cost,
                                   CostComposition composition,
                                   const ContextOptions& options,
                                   const SolverOptions&,
                                   const TierOptions& tier_options)
    : g_(g), cost_(cost), composition_(composition) {
  // Exact mode: the units are the connected components, and only the
  // per-stage ContextOptions limits apply (no shared budget to clip to).
  const bool exact = tier_options.mode == TierOptions::Mode::kExact;
  WallTimer budget_timer;
  auto remaining_budget = [&] {
    return exact ? std::numeric_limits<double>::infinity()
                 : tier_options.exact_budget_seconds - budget_timer.Seconds();
  };
  for (const VertexSet& comp_vertices : g.ConnectedComponents()) {
    std::vector<int> comp_old_of_new(comp_vertices.Count());
    int next = 0;
    comp_vertices.ForEach([&](int v) { comp_old_of_new[next++] = v; });
    Graph sub = g.InducedSubgraph(comp_vertices);

    if (exact || !tier_options.decomposable_cost) {
      if (!AddUnit(sub, std::move(comp_old_of_new), options, tier_options,
                   remaining_budget())) {
        init_ok_ = false;
        return;
      }
      continue;
    }

    // Tier 0: stream-safe reduction + atom decomposition of this component.
    PreprocessResult pre = Preprocess(sub);
    preprocess_info_.vertices_removed += pre.info.vertices_removed;
    preprocess_info_.num_atoms += pre.info.num_atoms;
    preprocess_info_.seconds += pre.info.seconds;
    preprocess_info_.largest_atom =
        std::max(preprocess_info_.largest_atom, pre.info.largest_atom);
    if (pre.info.smallest_atom > 0) {
      preprocess_info_.smallest_atom =
          preprocess_info_.smallest_atom == 0
              ? pre.info.smallest_atom
              : std::min(preprocess_info_.smallest_atom,
                         pre.info.smallest_atom);
    }
    if (pre.info.vertices_removed > 0 || pre.atoms.size() > 1) {
      lifted_ = true;
    }
    for (const EliminatedVertex& ev : pre.eliminated) {
      VertexSet bag(g_.NumVertices());
      ev.bag.ForEach([&](int v) { bag.Insert(comp_old_of_new[v]); });
      fixed_bags_.push_back(std::move(bag));
    }
    for (const VertexSet& atom : pre.atoms) {
      std::vector<int> atom_old_to_new;
      Graph asub = sub.InducedSubgraph(atom, &atom_old_to_new);
      std::vector<int> old_of_new(asub.NumVertices());
      atom.ForEach([&](int v) {
        old_of_new[atom_old_to_new[v]] = comp_old_of_new[v];
      });
      AddUnit(asub, std::move(old_of_new), options, tier_options,
              remaining_budget());
    }
  }

  // Fold the Tier-0 summary into the aggregate build info: unit build infos
  // were already accumulated above, these are the Tier-0 extras.
  init_info_.reduced_vertices =
      static_cast<size_t>(preprocess_info_.vertices_removed);
  init_info_.num_atoms = static_cast<size_t>(preprocess_info_.num_atoms);
  init_info_.preprocess_seconds = preprocess_info_.seconds;

  tier_ = SolveTier::kExact;
  for (const Unit& unit : units_) {
    if (unit.tier == SolveTier::kHeuristic) tier_ = SolveTier::kHeuristic;
  }
  if (tier_ != SolveTier::kHeuristic && lifted_) tier_ = SolveTier::kAtomExact;

  if (units_.empty()) {
    // Either the graph is empty (no results, matching the exact path) or
    // Tier 0 fully reduced it — the input is chordal and its unique minimal
    // triangulation is the graph itself: emit exactly one result.
    if (g_.NumVertices() > 0) queue_.push({0, {}, 0});
    return;
  }

  std::vector<size_t> first(units_.size(), 0);
  bool feasible = true;
  for (size_t c = 0; c < units_.size(); ++c) {
    if (!Materialize(static_cast<int>(c), 0)) feasible = false;
  }
  if (feasible) queue_.push({Compose(first), first, 0});
}

bool TieredEnumerator::AddUnit(const Graph& sub, std::vector<int> old_of_new,
                               const ContextOptions& options,
                               const TierOptions& tier_options,
                               double remaining_budget) {
  Unit unit;
  unit.old_of_new = std::move(old_of_new);
  // The unit subgraph renumbers vertices, so vertex-dependent costs
  // (hypergraph edge covers, per-vertex domains, weighted fill) must be
  // re-anchored to the original labels. Only the whole graph keeps the
  // shared cost unrestricted (a unit this large is the single component of a
  // connected, unreduced, unsplit graph).
  bool identity = sub.NumVertices() == g_.NumVertices();
  if (!identity) {
    unit.restricted_cost = cost_.RestrictTo(unit.old_of_new, g_.NumVertices());
  }

  bool built = false;
  if (tier_options.mode != TierOptions::Mode::kHeuristic) {
    if (remaining_budget > 0) {
      ContextOptions unit_options = options;
      unit_options.separator_limits.time_limit_seconds =
          std::min(unit_options.separator_limits.time_limit_seconds,
                   remaining_budget);
      unit_options.pmc_limits.time_limit_seconds = std::min(
          unit_options.pmc_limits.time_limit_seconds, remaining_budget);
      ContextBuildInfo unit_info;
      auto ctx = TriangulationContext::Build(sub, unit_options, &unit_info);
      init_info_.Accumulate(unit_info);
      tier1_seconds_ += unit_info.total_seconds;
      if (ctx.has_value()) {
        unit.context =
            std::make_unique<TriangulationContext>(std::move(*ctx));
        unit.tier = SolveTier::kExact;
        built = true;
      } else if (tier_options.mode == TierOptions::Mode::kExact) {
        return false;  // exact mode has no Tier 2 to fall back on
      }
    } else {
      // The shared exact budget ran out before this unit: a truthful
      // ms-terminated tally without burning wall clock on a doomed build.
      ContextBuildInfo skipped;
      skipped.termination = ContextBuildInfo::Termination::kMsTerminated;
      skipped.num_builds = 1;
      skipped.num_ms_terminated = 1;
      init_info_.Accumulate(skipped);
    }
  }

  if (!built) {
    // Tier 2: a restricted family seeded by two LB-Triang minimal
    // triangulations (min-degree + identity order). Parra–Scheffler: the
    // minimal separators / maximal cliques of a minimal triangulation are
    // genuine minimal separators / PMCs of the graph, and each seed's
    // clique tree wires completely within its own family, so the DP stream
    // is never empty and its first result costs at most the cheaper seed.
    Graph h1 = LbTriangMinDegree(sub);
    std::vector<int> order(sub.NumVertices());
    std::iota(order.begin(), order.end(), 0);
    Graph h2 = LbTriang(sub, order);
    std::vector<VertexSet> minseps = MinimalSeparatorsOfChordal(h1);
    std::vector<VertexSet> more_seps = MinimalSeparatorsOfChordal(h2);
    minseps.insert(minseps.end(),
                   std::make_move_iterator(more_seps.begin()),
                   std::make_move_iterator(more_seps.end()));
    std::vector<VertexSet> pmcs = MaximalCliquesOfChordal(h1);
    std::vector<VertexSet> more_pmcs = MaximalCliquesOfChordal(h2);
    pmcs.insert(pmcs.end(), std::make_move_iterator(more_pmcs.begin()),
                std::make_move_iterator(more_pmcs.end()));
    if (options.width_bound >= 0) {
      // Honor a width bound in the fallback too: keep only family members
      // within the bound; a PMC that then loses a block is dropped by the
      // partial wiring, so an infeasible bound yields an empty stream,
      // never an over-bound result.
      minseps.erase(std::remove_if(minseps.begin(), minseps.end(),
                                   [&](const VertexSet& s) {
                                     return s.Count() > options.width_bound;
                                   }),
                    minseps.end());
      pmcs.erase(std::remove_if(pmcs.begin(), pmcs.end(),
                                [&](const VertexSet& p) {
                                  return p.Count() > options.width_bound + 1;
                                }),
                 pmcs.end());
    }
    ContextBuildInfo family_info;
    unit.context =
        std::make_unique<TriangulationContext>(TriangulationContext::
            BuildFromFamily(sub, std::move(minseps), std::move(pmcs),
                            &family_info));
    init_info_.Accumulate(family_info);
    tier2_seconds_ += family_info.total_seconds;
    unit.tier = SolveTier::kHeuristic;
  }

  unit.enumerator = std::make_unique<RankedTriangulationEnumerator>(
      *unit.context,
      unit.restricted_cost != nullptr ? *unit.restricted_cost : cost_);
  units_.push_back(std::move(unit));
  return true;
}

void TieredEnumerator::SetDeadline(const Deadline* deadline) {
  for (Unit& unit : units_) {
    if (unit.enumerator != nullptr) unit.enumerator->SetDeadline(deadline);
  }
}

bool TieredEnumerator::truncated() const {
  for (const Unit& unit : units_) {
    if (unit.enumerator != nullptr && unit.enumerator->truncated()) {
      return true;
    }
  }
  return false;
}

long long TieredEnumerator::SumOverUnits(
    long long (RankedTriangulationEnumerator::*stat)() const) const {
  long long sum = 0;
  for (const Unit& unit : units_) {
    if (unit.enumerator != nullptr) sum += ((*unit.enumerator).*stat)();
  }
  return sum;
}

long long TieredEnumerator::num_optimizer_calls() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_optimizer_calls);
}

long long TieredEnumerator::num_candidate_evals() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_candidate_evals);
}

long long TieredEnumerator::num_combine_calls() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_combine_calls);
}

long long TieredEnumerator::num_index_updates() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_index_updates);
}

long long TieredEnumerator::num_range_queries() const {
  return SumOverUnits(&RankedTriangulationEnumerator::num_range_queries);
}

bool TieredEnumerator::Materialize(int unit_id, size_t i) {
  Unit& unit = units_[unit_id];
  while (unit.produced.size() <= i && !unit.exhausted) {
    auto t = unit.enumerator->Next();
    if (!t.has_value()) {
      unit.exhausted = true;
      break;
    }
    unit.produced.push_back(std::move(*t));
  }
  return unit.produced.size() > i;
}

CostValue TieredEnumerator::Compose(const std::vector<size_t>& indices) const {
  CostValue acc = composition_ == CostComposition::kMax ? -kInfiniteCost : 0;
  for (size_t c = 0; c < indices.size(); ++c) {
    CostValue v = units_[c].produced[indices[c]].cost;
    acc = composition_ == CostComposition::kMax ? std::max(acc, v) : acc + v;
  }
  return acc;
}

Triangulation TieredEnumerator::Assemble(const std::vector<size_t>& indices) {
  if (!lifted_) {
    // No Tier-0 rewriting happened: the units are exactly the connected
    // components, and the clique tree is a forest with one root per unit.
    Triangulation out;
    out.filled = g_;
    const int n = g_.NumVertices();
    for (size_t c = 0; c < indices.size(); ++c) {
      const Unit& unit = units_[c];
      const Triangulation& part = unit.produced[indices[c]];
      int bag_offset = static_cast<int>(out.bags.size());
      for (size_t b = 0; b < part.bags.size(); ++b) {
        VertexSet bag(n);
        part.bags[b].ForEach([&](int v) { bag.Insert(unit.old_of_new[v]); });
        out.filled.SaturateSet(bag);
        out.bags.push_back(std::move(bag));
        out.parent.push_back(part.parent[b] < 0 ? -1
                                                : part.parent[b] + bag_offset);
      }
      for (const VertexSet& s : part.separators) {
        VertexSet sep(n);
        s.ForEach([&](int v) { sep.Insert(unit.old_of_new[v]); });
        out.separators.push_back(std::move(sep));
      }
    }
    std::sort(out.separators.begin(), out.separators.end());
    out.cost = Compose(indices);
    return out;
  }

  // Tier-0 lifting: glue the atom triangulations (adjacent atoms overlap in
  // clique separators, so the union of their fills is chordal and minimal —
  // Leimer) and re-attach the eliminated simplicial bags, then repackage as
  // a canonical clique tree. The emitted cost is re-evaluated on the final
  // bag set, so it is truthful even though the queue was ordered by the
  // composed per-unit costs (a monotone function of it for every
  // tier-decomposable cost).
  const int n = g_.NumVertices();
  Graph filled = g_;
  for (size_t c = 0; c < indices.size(); ++c) {
    const Unit& unit = units_[c];
    const Triangulation& part = unit.produced[indices[c]];
    for (const VertexSet& b : part.bags) {
      VertexSet bag(n);
      b.ForEach([&](int v) { bag.Insert(unit.old_of_new[v]); });
      filled.SaturateSet(bag);
    }
  }
  for (const VertexSet& bag : fixed_bags_) filled.SaturateSet(bag);
  Triangulation out = TriangulationFromChordal(g_, std::move(filled));
  out.cost = cost_.Evaluate(g_, out.bags);
  return out;
}

std::optional<TieredResult> TieredEnumerator::Next() {
  if (queue_.empty()) return std::nullopt;
  QueueEntry top = queue_.top();
  queue_.pop();

  // Successors: bump one coordinate c >= top.last at a time. A tuple's only
  // parent is itself with its last nonzero coordinate decremented, so each
  // tuple is pushed exactly once, after a parent that is no more expensive
  // and lexicographically smaller.
  for (size_t c = top.last; c < top.indices.size(); ++c) {
    std::vector<size_t> next_indices = top.indices;
    ++next_indices[c];
    if (!Materialize(static_cast<int>(c), next_indices[c])) continue;
    CostValue cost = Compose(next_indices);
    queue_.push({cost, std::move(next_indices), c});
  }
  return TieredResult{Assemble(top.indices), tier_};
}

}  // namespace mintri
