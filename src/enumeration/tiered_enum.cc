#include "enumeration/tiered_enum.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

#include "chordal/clique_tree.h"
#include "chordal/lb_triang.h"
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
  std::vector<std::vector<int>> comp_labels;
  std::vector<Graph> comp_subgraphs = g.ComponentSubgraphs(&comp_labels);
  for (size_t comp = 0; comp < comp_subgraphs.size(); ++comp) {
    const Graph& sub = comp_subgraphs[comp];
    std::vector<int>& comp_old_of_new = comp_labels[comp];

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
    // Sorted g labels: comp_old_of_new is increasing.
    auto relabel = [&](const VertexSet& set) {
      std::vector<int> out;
      set.ForEach([&](int v) { out.push_back(comp_old_of_new[v]); });
      return out;
    };
    for (const EliminatedVertex& ev : pre.eliminated) {
      std::vector<int> neighbors = relabel(ev.bag);
      const int vertex = comp_old_of_new[ev.vertex];
      neighbors.erase(std::find(neighbors.begin(), neighbors.end(), vertex));
      lifts_.push_back({vertex, std::move(neighbors)});
    }
    // Orient the atom tree away from each tree's first atom, parents first,
    // so Assemble attaches every atom's clique tree to an already glued one.
    const int first_unit = static_cast<int>(units_.size());
    std::vector<std::vector<const AtomLink*>> links_of_atom(pre.atoms.size());
    for (const AtomLink& link : pre.atom_links) {
      links_of_atom[link.a].push_back(&link);
      links_of_atom[link.b].push_back(&link);
    }
    std::vector<bool> reached(pre.atoms.size(), false);
    for (size_t root = 0; root < pre.atoms.size(); ++root) {
      if (reached[root]) continue;
      reached[root] = true;
      std::vector<int> frontier = {static_cast<int>(root)};
      for (size_t i = 0; i < frontier.size(); ++i) {
        const int atom = frontier[i];
        for (const AtomLink* link : links_of_atom[atom]) {
          const int other = link->a == atom ? link->b : link->a;
          if (reached[other]) continue;
          reached[other] = true;
          frontier.push_back(other);
          links_.push_back({first_unit + atom, first_unit + other,
                            relabel(link->separator)});
        }
      }
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
  // Glue the result from the units' clique trees, without rebuilding one
  // over the whole graph (Leimer): adjacent atoms overlap in a clique
  // separator, so linking one bag ⊇ it on each side keeps the junction
  // property, and a simplicial lift bag N[v] hangs on any bag ⊇ N(v). With
  // no Tier-0 rewriting there is nothing to glue, and the result is the
  // units' clique trees side by side, one tree per connected component.
  const int n = g_.NumVertices();
  Triangulation out;
  out.filled = g_;
  std::vector<VertexSet>& bags = out.bags;
  std::vector<int>& parent = out.parent;
  std::vector<int> unit_offset(units_.size() + 1, 0);
  for (size_t c = 0; c < indices.size(); ++c) {
    const Unit& unit = units_[c];
    const Triangulation& part = unit.produced[indices[c]];
    const int offset = static_cast<int>(bags.size());
    unit_offset[c] = offset;
    for (size_t b = 0; b < part.bags.size(); ++b) {
      VertexSet bag(n);
      part.bags[b].ForEach([&](int v) { bag.Insert(unit.old_of_new[v]); });
      out.filled.SaturateSet(bag);
      bags.push_back(std::move(bag));
      parent.push_back(part.parent[b] < 0 ? -1 : part.parent[b] + offset);
    }
  }
  unit_offset[indices.size()] = static_cast<int>(bags.size());

  // holders_[v]: the bags that contain v.
  holders_.resize(n);
  for (std::vector<int>& h : holders_) h.clear();
  for (int id = 0; id < static_cast<int>(bags.size()); ++id) {
    bags[id].ForEach([&](int v) { holders_[v].push_back(id); });
  }
  // A bag ⊇ set (non-empty) with id in [lo, hi), found among the holders
  // of the set's rarest vertex.
  auto find_bag = [&](const std::vector<int>& set, int lo, int hi) {
    int rarest = set.front();
    for (const int v : set) {
      if (holders_[v].size() < holders_[rarest].size()) rarest = v;
    }
    const auto contains_set = [&](int id) {
      return std::all_of(set.begin(), set.end(),
                         [&](int v) { return bags[id].Contains(v); });
    };
    for (const int id : holders_[rarest]) {
      if (id >= lo && id < hi && contains_set(id)) return id;
    }
    assert(false && "a clique of the glued triangulation lies in no bag");
    return -1;
  };

  // Re-root each child atom's tree at a bag y ⊇ its separator and hang it
  // on a bag x ⊇ the separator in the parent atom. An atom holds a full
  // component of each separator it contains, so the separator is no PMC of
  // the atom and neither bag equals it: x and y stay maximal cliques.
  for (const Link& link : links_) {
    const int x = find_bag(link.separator, unit_offset[link.parent_unit],
                           unit_offset[link.parent_unit + 1]);
    const int y = find_bag(link.separator, unit_offset[link.child_unit],
                           unit_offset[link.child_unit + 1]);
    for (int prev = x, at = y; at >= 0;) {
      const int up = parent[at];
      parent[at] = prev;
      prev = at;
      at = up;
    }
  }

  // Lift bags in reverse elimination order: each N(v) is a clique of g
  // (so N[v] adds no fill) and of the triangulation glued so far, so some
  // bag contains it. A bag equal to
  // N(v) is the only one, and it would lie inside N[v]: it absorbs the lift
  // bag in place, keeping its tree edges. An empty N(v) starts a new tree.
  for (auto it = lifts_.rbegin(); it != lifts_.rend(); ++it) {
    const std::vector<int>& neighbors = it->neighbors;
    VertexSet bag(n);
    for (const int v : neighbors) bag.Insert(v);
    bag.Insert(it->vertex);
    const int z = neighbors.empty()
                      ? -1
                      : find_bag(neighbors, 0, static_cast<int>(bags.size()));
    if (z >= 0 && bags[z].Count() == static_cast<int>(neighbors.size())) {
      holders_[it->vertex].push_back(z);
      bags[z] = std::move(bag);
    } else {
      const int id = static_cast<int>(bags.size());
      for (const int v : neighbors) holders_[v].push_back(id);
      holders_[it->vertex].push_back(id);
      bags.push_back(std::move(bag));
      parent.push_back(z);
    }
  }

  for (size_t id = 0; id < bags.size(); ++id) {
    if (parent[id] < 0) continue;
    VertexSet adhesion = bags[id].Intersect(bags[parent[id]]);
    if (!adhesion.Empty()) out.separators.push_back(std::move(adhesion));
  }
  std::sort(out.separators.begin(), out.separators.end());
  out.separators.erase(
      std::unique(out.separators.begin(), out.separators.end()),
      out.separators.end());
  // The queue is ordered by the composed unit costs, a monotone function of
  // the true cost for every tier-decomposable cost; once Tier 0 rewrote the
  // graph the emitted cost is re-evaluated on the final bags.
  out.cost = lifted_ ? cost_.Evaluate(g_, out.bags) : Compose(indices);
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
