#ifndef MINTRI_GRAPH_BITSET_KERNELS_H_
#define MINTRI_GRAPH_BITSET_KERNELS_H_

// The single word-level kernel layer under every bitset hot loop in the
// library. All VertexSet algebra (union/intersect/minus/complement), the
// set predicates (subset, intersects, equality, emptiness), popcount,
// first-set, and the ComponentScanner's fused BFS step funnel through the
// functions in this header instead of open-coding uint64_t loops at each
// call site.
//
// The kernels are plain word loops: no intrinsics, no dispatch, fully
// defined behavior, and the same code in every build (sanitizers
// included). The solve units the pipeline hands them are small — a tiered
// unit of <= 64 vertices is one word — so the loops are short and the
// compiler inlines them at each call site.
//
// Every kernel takes explicit word counts; none of them reads or writes
// beyond `n` words, and none needs any alignment beyond uint64_t's. Tail
// bits above a set's capacity are the caller's contract: VertexSet
// maintains them as zero (see TailMask), and the kernel tests include
// non-multiple-of-64 capacities to pin that.

#include <cstddef>
#include <cstdint>
#include <new>

namespace mintri {
namespace bitset {

/// Small-buffer word storage: the buffer behind VertexSet. Up to
/// kInlineWords words (128 vertices — which covers every bundled bench
/// family) live inline in the object, so constructing, copying, moving, or
/// destroying a small set never touches the allocator (A/B runs measured
/// the small-universe enumeration suites as allocation- and table-bound,
/// and this is the allocation half of that fix). Wider universes spill to an exact-size buffer from plain operator new.
///
/// Mirrors the std::vector subset VertexSet needs (data/size/operator[]/
/// assign/resize/lexicographic compare). Like vector::assign, shrinking
/// reuses the existing buffer: a set that spilled once keeps its heap
/// buffer until destroyed or moved from, so Reset-style scratch reuse stays
/// allocation-free in steady state.
class WordStorage {
 public:
  /// 2 words = 128 vertices inline. One word would already cover most
  /// bench graphs, but the second costs only 8 bytes of object and keeps
  /// the whole <= 128-vertex regime (and the 65..128 half of it that the
  /// fuzz corpus exercises) off the allocator.
  static constexpr size_t kInlineWords = 2;

  WordStorage() = default;
  WordStorage(size_t n, uint64_t value) { assign(n, value); }

  WordStorage(const WordStorage& other) { CopyFrom(other); }
  WordStorage& operator=(const WordStorage& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  WordStorage(WordStorage&& other) noexcept { StealFrom(other); }
  WordStorage& operator=(WordStorage&& other) noexcept {
    if (this != &other) {
      ReleaseHeap();
      StealFrom(other);
    }
    return *this;
  }

  ~WordStorage() { ReleaseHeap(); }

  uint64_t* data() { return data_; }
  const uint64_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint64_t& operator[](size_t i) { return data_[i]; }
  const uint64_t& operator[](size_t i) const { return data_[i]; }

  /// True while the words live inside the object (no heap buffer was ever
  /// needed). Exposed so the spill-boundary tests can pin the storage
  /// class, not just the values.
  bool is_inline() const { return data_ == inline_; }

  /// Moves the words onto a heap buffer even when they fit inline, keeping
  /// the values. Idempotent; one allocation for the lifetime of the
  /// storage (assign/resize reuse the heap buffer afterwards). See
  /// VertexSet::PinWordsToHeap for when this is a win.
  void force_heap() {
    if (data_ != inline_) return;
    uint64_t* fresh = Allocate(kInlineWords);
    for (size_t w = 0; w < size_; ++w) fresh[w] = inline_[w];
    data_ = fresh;
    cap_ = kInlineWords;
  }

  /// Sets every one of n words to `value`, reusing the current buffer when
  /// it is large enough (vector::assign semantics).
  void assign(size_t n, uint64_t value) {
    if (n > cap_) Reallocate(n, /*preserve_words=*/0);
    for (size_t w = 0; w < n; ++w) data_[w] = value;
    size_ = static_cast<uint32_t>(n);
  }

  /// Grows or shrinks to n words; new words are zero, kept words preserve
  /// their values (vector::resize semantics — spilling across the inline
  /// boundary copies the inline words into the fresh heap buffer).
  void resize(size_t n) {
    if (n > cap_) Reallocate(n, /*preserve_words=*/size_);
    for (size_t w = size_; w < n; ++w) data_[w] = 0;
    size_ = static_cast<uint32_t>(n);
  }

  /// Lexicographic word order (the vector operator< VertexSet's total
  /// order was built on; capacities are compared by the caller first).
  friend bool operator<(const WordStorage& a, const WordStorage& b) {
    const size_t common = a.size_ < b.size_ ? a.size_ : b.size_;
    for (size_t w = 0; w < common; ++w) {
      if (a.data_[w] != b.data_[w]) return a.data_[w] < b.data_[w];
    }
    return a.size_ < b.size_;
  }

 private:
  void CopyFrom(const WordStorage& other) {
    if (other.size_ > cap_) Reallocate(other.size_, /*preserve_words=*/0);
    for (size_t w = 0; w < other.size_; ++w) data_[w] = other.data_[w];
    size_ = other.size_;
  }

  // Leaves `other` empty-inline (a valid, reusable state).
  void StealFrom(WordStorage& other) {
    if (other.is_inline()) {
      data_ = inline_;
      cap_ = kInlineWords;
      for (size_t w = 0; w < other.size_; ++w) inline_[w] = other.inline_[w];
    } else {
      data_ = other.data_;
      cap_ = other.cap_;
      other.data_ = other.inline_;
      other.cap_ = kInlineWords;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  // Moves to a heap buffer of exactly n words (n > kInlineWords), keeping
  // the first preserve_words words. Exact sizing, not geometric growth: a
  // set's word count is pinned by its universe, which almost never changes
  // after construction.
  void Reallocate(size_t n, size_t preserve_words) {
    uint64_t* fresh = Allocate(n);
    for (size_t w = 0; w < preserve_words; ++w) fresh[w] = data_[w];
    ReleaseHeap();
    data_ = fresh;
    cap_ = static_cast<uint32_t>(n);
  }

  static uint64_t* Allocate(size_t n) {
    return static_cast<uint64_t*>(::operator new(n * sizeof(uint64_t)));
  }

  void ReleaseHeap() {
    if (!is_inline()) ::operator delete(data_);
  }

  uint64_t* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t cap_ = kInlineWords;
  uint64_t inline_[kInlineWords] = {0, 0};
};

/// Mask keeping the valid bits of the last word of a `capacity`-bit set:
/// all-ones when capacity is a multiple of 64 (or zero), otherwise the low
/// (capacity % 64) bits.
inline uint64_t TailMask(int capacity) {
  const int rem = capacity & 63;
  return rem == 0 ? ~uint64_t{0} : (~uint64_t{0} >> (64 - rem));
}

inline void UnionInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] |= src[w];
}

inline void AssignUnion(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                        size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] = a[w] | b[w];
}

inline void IntersectInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] &= src[w];
}

inline void MinusInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] &= ~src[w];
}

/// dst = ~src, with `tail_mask` applied to the last word so bits above the
/// capacity stay zero.
inline void ComplementInto(uint64_t* dst, const uint64_t* src, size_t n,
                           uint64_t tail_mask) {
  for (size_t w = 0; w < n; ++w) dst[w] = ~src[w];
  if (n > 0) dst[n - 1] &= tail_mask;
}

/// dst = the full universe, with `tail_mask` applied to the last word.
inline void FillOnes(uint64_t* dst, size_t n, uint64_t tail_mask) {
  for (size_t w = 0; w < n; ++w) dst[w] = ~uint64_t{0};
  if (n > 0) dst[n - 1] &= tail_mask;
}

inline bool IsZero(const uint64_t* a, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != 0) return false;
  }
  return true;
}

inline bool Equal(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

inline bool IsSubset(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

inline bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

inline int Popcount(const uint64_t* a, size_t n) {
  int c = 0;
  for (size_t w = 0; w < n; ++w) c += __builtin_popcountll(a[w]);
  return c;
}

/// Bit index of the first set bit, or -1 when all n words are zero.
inline int FirstSet(const uint64_t* a, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != 0) {
      return static_cast<int>(w * 64) + __builtin_ctzll(a[w]);
    }
  }
  return -1;
}

/// One fused BFS level of the component scanner, in a single pass over the
/// words: folds `reach` into the `neighborhood` accumulator, computes the
/// next frontier (reached, not removed, not yet in the component), grows
/// the component, and clears `reach`. Returns the OR of the fresh frontier
/// words (zero iff the BFS is done).
inline uint64_t BfsFusedStep(uint64_t* component, uint64_t* frontier,
                             uint64_t* neighborhood, uint64_t* reach,
                             const uint64_t* removed, size_t n) {
  uint64_t any = 0;
  for (size_t w = 0; w < n; ++w) {
    const uint64_t r = reach[w];
    neighborhood[w] |= r;
    const uint64_t fresh = r & ~removed[w] & ~component[w];
    component[w] |= fresh;
    frontier[w] = fresh;
    reach[w] = 0;
    any |= fresh;
  }
  return any;
}

/// The kernel implementation in use, for diagnostics (perfbench prints it).
inline const char* ActiveKernelPath() { return "scalar"; }

}  // namespace bitset
}  // namespace mintri

#endif  // MINTRI_GRAPH_BITSET_KERNELS_H_
