#ifndef MINTRI_ENUMERATION_CKK_H_
#define MINTRI_ENUMERATION_CKK_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cost/bag_cost.h"
#include "graph/graph.h"
#include "separators/minimal_separators.h"
#include "triang/triangulation.h"

namespace mintri {

/// Deduplication of minimal triangulations by their sorted fill-edge sets
/// (a bijective key for minimal triangulations of a fixed graph). Keyed by
/// a 64-bit hash for speed but compared by the actual fill sets, so a hash
/// collision costs one extra equality check instead of silently dropping a
/// distinct triangulation (the bug this replaced: dedup on the bare hash).
/// The hash is injectable so the collision path is unit-testable.
class FillSetDedup {
 public:
  using FillSet = std::vector<std::pair<int, int>>;
  using HashFn = std::function<size_t(const FillSet&)>;

  FillSetDedup() : seen_(0, HashFn(&DefaultHash)) {}
  explicit FillSetDedup(HashFn hash) : seen_(0, std::move(hash)) {}

  /// True iff `fill` was not seen before (and is now recorded).
  bool Insert(FillSet fill) { return seen_.insert(std::move(fill)).second; }

  size_t Size() const { return seen_.size(); }

  /// FNV-style mix over the edge list (the production hash).
  static size_t DefaultHash(const FillSet& fill) {
    size_t h = fill.size() * 1469598103934665603ULL;
    for (const auto& [u, v] : fill) {
      h = (h ^ (static_cast<size_t>(u) * 131071 + v)) * 1099511628211ULL;
    }
    return h;
  }

 private:
  std::unordered_set<FillSet, HashFn> seen_;
};

/// The CKK baseline: the enumeration algorithm of Carmeli, Kenig and
/// Kimelfeld (PODS 2017), which the paper compares against in Section 7.
///
/// Minimal triangulations correspond one-to-one to maximal independent sets
/// of the graph over MinSep(G) with crossing edges (Parra–Scheffler,
/// Theorem 2.5). CKK enumerates these maximal independent sets in
/// incremental polynomial time with the classic exchange step — from a
/// printed triangulation H and a known separator S, re-extend the seed
/// {S} ∪ {T ∈ MinSep(H) : T parallel S} to a maximal set — where extension
/// is delegated to a black-box minimal triangulator (LB-Triang, as in the
/// paper's experiments) applied to G with the seed separators saturated.
///
/// New separators enter the exchange pool from two sources: the separator
/// sets of printed triangulations, and a *lazily consumed* Berry–Bordat–
/// Cogis stream (MinimalSeparatorEnumerator) that is only advanced when the
/// pending pool runs dry — CKK never pays a full upfront enumeration.
///
/// Two properties matter for the experimental comparison:
///  - there is NO initialization step (the first result is one LB-Triang
///    call away), and
///  - there is NO guarantee on the order of results.
class CkkEnumerator {
 public:
  /// If `cost` is non-null, each produced Triangulation carries
  /// cost->Evaluate(g, bags) in its `cost` field (CKK itself ignores costs).
  /// Both references must outlive the enumerator.
  explicit CkkEnumerator(const Graph& g, const BagCost* cost = nullptr);

  /// The next minimal triangulation (arbitrary order), or std::nullopt when
  /// all minimal triangulations have been produced.
  std::optional<Triangulation> Next();

  /// Number of LB-Triang invocations so far (for the experiment harness).
  long long num_triangulator_calls() const { return num_triangulator_calls_; }

 private:
  // Produces the minimal triangulation of G extending the pairwise-parallel
  // seed (CKK Theorem: minimal triangulations of G with the seed saturated
  // are exactly the minimal triangulations of the seed-saturated graph).
  Triangulation Extend(const std::vector<VertexSet>& seed);

  // Exchange step: offers Extend({S} ∪ {T ∈ M : T ∥ S}) if unseen.
  void TryExchange(const std::vector<VertexSet>& m, const VertexSet& s);

  bool Offer(Triangulation t);  // dedup by fill set; true if new

  const Graph& g_;
  const BagCost* cost_;
  MinimalSeparatorEnumerator separator_stream_;
  std::deque<Triangulation> pending_;
  std::vector<std::vector<VertexSet>> printed_separator_sets_;
  std::vector<VertexSet> known_seps_;
  std::unordered_set<VertexSet, VertexSetHash> known_sep_set_;
  FillSetDedup seen_fills_;
  long long num_triangulator_calls_ = 0;
};

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_CKK_H_
