#ifndef MINTRI_UTIL_RANGE_MIN_TREE_H_
#define MINTRI_UTIL_RANGE_MIN_TREE_H_

#include <cstddef>
#include <vector>

#include "cost/bag_cost.h"

namespace mintri {

/// A flat, iterative range-min segment tree over CostValue leaves with
/// *first-minimum* tie-breaking: every query returns the smallest leaf index
/// among the equal minima, exactly the answer a left-to-right "first strict
/// improvement wins" scan produces. That property is what lets the
/// incremental MinTriang DP swap its per-block candidate-list scans for
/// point updates + range-min queries without perturbing the choice tables
/// (and with them the ranked enumeration order) by even a byte.
///
/// Leaves are padded to the next power of two with +infinity; since the
/// merge prefers the left operand on ties and all real leaves sit left of
/// the padding, an all-infinite tree still reports leaf 0 (callers treat an
/// infinite minimum as "no feasible candidate", same as the scan).
///
/// Assign is O(n); Update is O(log n), and stops early once the argmin
/// above the leaf settles; MinIndex() over the whole range reads the root
/// in O(1); the general MinIndex(begin, end) is O(log n).
class RangeMinTree {
 public:
  RangeMinTree() = default;
  explicit RangeMinTree(const std::vector<CostValue>& values) {
    Assign(values.data(), static_cast<int>(values.size()));
  }

  /// Rebuilds the tree over the n values at `values` (O(n)).
  void Assign(const CostValue* values, int n) {
    n_ = n;
    size_ = 1;
    while (size_ < n_) size_ <<= 1;
    values_.assign(static_cast<size_t>(size_), kInfiniteCost);
    for (int i = 0; i < n_; ++i) values_[i] = values[i];
    best_.resize(static_cast<size_t>(2 * size_));
    for (int i = 0; i < size_; ++i) best_[size_ + i] = i;
    for (int node = size_ - 1; node >= 1; --node) {
      best_[node] = Merge(best_[2 * node], best_[2 * node + 1]);
    }
  }

  /// Sets leaf `k` to `v` and re-merges its root path (O(log n)). The walk
  /// stops at the first node whose argmin stays the same leaf other than
  /// k: that leaf's value did not change, so every ancestor would compare
  /// the same values as before.
  void Update(int k, CostValue v) {
    values_[k] = v;
    for (int node = (size_ + k) / 2; node >= 1; node /= 2) {
      const int best = Merge(best_[2 * node], best_[2 * node + 1]);
      if (best == best_[node] && best != k) return;
      best_[node] = best;
    }
  }

  /// Smallest index among the minima of all leaves (-1 when empty).
  int MinIndex() const { return n_ == 0 ? -1 : best_[1]; }

  /// Smallest index among the minima of [begin, end) (-1 when empty). The
  /// disjoint cover segments are folded left-to-right, so the first-minimum
  /// tie-break holds on sub-ranges too.
  int MinIndex(int begin, int end) const {
    int left = -1;
    int right = -1;
    for (int lo = size_ + begin, hi = size_ + end; lo < hi; lo /= 2, hi /= 2) {
      if (lo & 1) left = Merge(left, best_[lo++]);
      if (hi & 1) right = Merge(best_[--hi], right);
    }
    return Merge(left, right);
  }

  CostValue ValueAt(int k) const { return values_[k]; }
  int size() const { return n_; }

 private:
  // Leftmost-min merge: `a` is always the left operand, so <= resolves ties
  // to the smaller index. -1 marks an empty side.
  int Merge(int a, int b) const {
    if (a < 0) return b;
    if (b < 0) return a;
    return values_[a] <= values_[b] ? a : b;
  }

  int n_ = 0;
  int size_ = 1;
  std::vector<CostValue> values_;  // size_ leaves, padded with +infinity
  std::vector<int> best_;         // best_[1] is the whole-range argmin
};

}  // namespace mintri

#endif  // MINTRI_UTIL_RANGE_MIN_TREE_H_
