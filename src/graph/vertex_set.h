#ifndef MINTRI_GRAPH_VERTEX_SET_H_
#define MINTRI_GRAPH_VERTEX_SET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/bitset_kernels.h"

namespace mintri {

/// A set of vertices over a fixed universe {0, ..., capacity-1}, stored as a
/// bitset. This is the workhorse type of the library: minimal separators,
/// potential maximal cliques, blocks and bags are all VertexSets, and the hot
/// predicates of the Bouchitté–Todinca machinery (subset tests, neighborhood
/// unions, component expansion) are word-parallel.
///
/// The hash is commutative (XOR of a per-vertex mix), cached, and maintained
/// incrementally by Insert/Erase; word-parallel mutators invalidate the cache
/// and Hash() recomputes it on demand. Enumeration hot paths (the separator
/// arena, PMC dedup) key their hash tables on this cached value, so hashing a
/// set that is repeatedly looked up costs one pass over its bits, once.
///
/// All binary operations require both operands to share the same capacity;
/// a mismatch aborts with a diagnostic in every build type (not just when
/// asserts are live — see CheckSameCapacity). The word loops themselves are
/// delegated to graph/bitset_kernels.h, one scalar word-loop layer.
class VertexSet {
 public:
  /// Empty set over an empty universe.
  VertexSet() = default;

  /// Empty set over {0, ..., capacity-1}.
  explicit VertexSet(int capacity)
      : capacity_(capacity), words_((capacity + 63) / 64, 0) {}

  /// The full universe {0, ..., capacity-1}.
  static VertexSet All(int capacity);

  /// {v} over {0, ..., capacity-1}.
  static VertexSet Single(int capacity, int v);

  /// Builds a set from a list of vertices.
  static VertexSet Of(int capacity, std::initializer_list<int> vs);
  static VertexSet FromVector(int capacity, const std::vector<int>& vs);

  int capacity() const { return capacity_; }

  /// Empties the set over a (possibly new) universe, reusing the existing
  /// word buffer when it is large enough. Scratch-set workhorse.
  void Reset(int capacity);

  /// Makes this the full universe {0, ..., capacity-1}, reusing storage.
  void ResetAll(int capacity);

  /// *this = a ∪ b in a single word pass, reusing storage.
  void AssignUnionOf(const VertexSet& a, const VertexSet& b);

  /// *this = complement of s in a single word pass, reusing storage.
  void AssignComplementOf(const VertexSet& s);

  void Insert(int v) {
    uint64_t& word = words_[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    if ((word & bit) == 0) {
      word |= bit;
      if (hash_valid_) hash_ ^= MixVertex(v);
    }
  }
  void Erase(int v) {
    uint64_t& word = words_[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    if ((word & bit) != 0) {
      word &= ~bit;
      if (hash_valid_) hash_ ^= MixVertex(v);
    }
  }
  bool Contains(int v) const { return (words_[v >> 6] >> (v & 63)) & 1; }

  /// Read-only view of the underlying words, low bit of word 0 = vertex 0.
  /// Bits at positions >= capacity() are always zero. For the kernel layer's
  /// tests and external word-parallel consumers; mutation stays inside the
  /// class so the hash cache cannot be bypassed.
  const uint64_t* word_data() const { return words_.data(); }
  size_t word_count() const { return words_.size(); }

  bool Empty() const;
  int Count() const;

  /// Smallest element, or -1 if empty.
  int First() const;

  bool IsSubsetOf(const VertexSet& other) const;
  bool Intersects(const VertexSet& other) const;

  void UnionWith(const VertexSet& other);
  void IntersectWith(const VertexSet& other);
  void MinusWith(const VertexSet& other);

  VertexSet Union(const VertexSet& other) const;
  VertexSet Intersect(const VertexSet& other) const;
  VertexSet Minus(const VertexSet& other) const;

  /// Complement within the universe.
  VertexSet Complement() const;

  /// Applies `fn(v)` to every element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        int v = static_cast<int>(w * 64) + __builtin_ctzll(bits);
        fn(v);
        bits &= bits - 1;
      }
    }
  }

  /// Applies `fn(v)` in increasing order while it returns true. Returns
  /// false iff the iteration was cut short.
  template <typename Fn>
  bool ForEachWhile(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        int v = static_cast<int>(w * 64) + __builtin_ctzll(bits);
        if (!fn(v)) return false;
        bits &= bits - 1;
      }
    }
    return true;
  }

  std::vector<int> ToVector() const;

  /// Renders as "{v0,v1,...}".
  std::string ToString() const;

  /// Equality of both the universe and the element set: sets over different
  /// capacities are never equal, even when their words coincide. (The
  /// capacity check comes first — it also guarantees equal word counts for
  /// the word comparison.)
  bool operator==(const VertexSet& other) const {
    if (capacity_ != other.capacity_) return false;
    if (hash_valid_ && other.hash_valid_ && hash_ != other.hash_) {
      return false;
    }
    return bitset::Equal(words_.data(), other.words_.data(), words_.size());
  }
  bool operator!=(const VertexSet& other) const { return !(*this == other); }
  /// Total order — by capacity first, then lexicographic on the words —
  /// suitable for std::map keys and canonical sorting. Comparing capacity
  /// first keeps the order consistent with operator== for mixed-universe
  /// sets (equal-word sets over different universes are unequal and must
  /// not compare equivalent); within one universe (the canonical-sort case
  /// everywhere in the library) it is plain lexicographic order.
  bool operator<(const VertexSet& other) const {
    if (capacity_ != other.capacity_) return capacity_ < other.capacity_;
    return words_ < other.words_;
  }

  /// True while the words live inline in the object (capacity <= 128 and
  /// the set never held a wider universe) — the small-buffer regime where
  /// construction, copy, and destruction are allocation-free. Exposed so
  /// the spill-boundary tests can pin the storage class itself.
  bool StoredInline() const { return words_.is_inline(); }

  /// Moves the word buffer to the heap even when it fits inline (one
  /// allocation, kept across Reset). For LONG-LIVED SCRATCH sets that
  /// tight kernel loops write through — the component scanner's
  /// accumulators, an enumerator's removed-set — heap words measurably
  /// beat inline ones: with the buffer inside the object, the optimizer
  /// must assume every word store may alias the set's own (or a
  /// neighboring member's) bookkeeping, and the serial-minseps A/B showed
  /// ~10% on 1-word graphs from exactly that. Short-lived sets should
  /// stay inline: for them the allocation-free construction/copy/destroy
  /// wins dominate. Idempotent and cheap to re-call.
  void PinWordsToHeap() { words_.force_heap(); }

  /// Order-independent 64-bit hash of the element set. Cached: repeated
  /// calls on an unchanged set are O(1).
  uint64_t Hash() const {
    if (!hash_valid_) RecomputeHash();
    return hash_;
  }

 private:
  // The component scanner fuses its BFS update into single passes over the
  // raw words (and re-flags the hash cache itself).
  friend class ComponentScanner;

  // Aborts with a diagnostic when a binary operation mixes universes. This
  // is the checked policy for the capacity precondition: always on, in
  // Release and sanitizer builds alike — one predicted-not-taken integer
  // compare ahead of a multi-word kernel is noise, and a silent mixed-
  // capacity word loop is a determinism bug factory. (Defined out of line
  // in vertex_set.cc so the cold abort path stays off the fast path.)
  void CheckSameCapacity(const VertexSet& other, const char* op) const {
    if (capacity_ != other.capacity_) CapacityMismatch(other, op);
  }
  [[noreturn]] void CapacityMismatch(const VertexSet& other,
                                     const char* op) const;

  static uint64_t MixVertex(int v) {
    // SplitMix64 finalizer: decorrelates nearby vertex ids.
    uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void RecomputeHash() const;

  static constexpr uint64_t kEmptyHash = 0xcbf29ce484222325ULL;

  int capacity_ = 0;
  // Small-buffer word storage: <= 2 words (128 vertices) inline in the
  // object, exact-size heap spill above — so small-universe sets
  // (including the arena entries held by value in VertexSetTable /
  // ShardedVertexSetTable) never touch the allocator.
  bitset::WordStorage words_;
  mutable uint64_t hash_ = kEmptyHash;
  mutable bool hash_valid_ = true;
};

struct VertexSetHash {
  size_t operator()(const VertexSet& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace mintri

#endif  // MINTRI_GRAPH_VERTEX_SET_H_
