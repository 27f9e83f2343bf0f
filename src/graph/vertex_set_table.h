#ifndef MINTRI_GRAPH_VERTEX_SET_TABLE_H_
#define MINTRI_GRAPH_VERTEX_SET_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "graph/vertex_set.h"

namespace mintri {

/// The dedup layout shared by the enumeration engines: an arena of distinct
/// VertexSets in insertion order plus an open-addressing (linear probing)
/// table keyed on the sets' cached 64-bit hashes. The serial
/// MinimalSeparatorEnumerator uses one instance whose arena doubles as its
/// work queue; the parallel ShardedVertexSetTable uses one instance per
/// shard, under the shard's lock; the PMC enumerator's per-step candidate
/// dedup uses one instance it Clear()s between steps. Keeping all of them
/// on this single class means probing/growth policy can never silently
/// diverge between the serial and parallel paths.
///
/// Layout: each probe slot interleaves a 32-bit filter of the entry's
/// cached hash with its arena index in one 8-byte struct, so a probe step
/// reads exactly one slot — and, at 8 slots per cache line, a short
/// linear-probe chain stays within a single line. (The previous layout
/// kept full hashes and indices in parallel vectors: two cache misses per
/// probe step, and the same 16 bytes of probe-path footprint per entry
/// that this single array now spends.) Slots are placed by the full 64-bit
/// hash; the low 32 bits stored in the slot are only a filter, with the
/// capacity-aware word equality as the backstop, and Grow() recovers the
/// full hash from the arena entries' O(1) cached Hash(). When a probe
/// iteration mismatches, the loop issues a software prefetch for the next
/// slot before retrying — off the hot hit path, and nearly always
/// same-line at 8 slots per line. Probe misses are rejected by the filter
/// before any words are touched; equality itself is capacity-aware (sets
/// over different universes never collide into one entry). Arena entries
/// are VertexSets held by value: with the small-buffer word storage, a
/// <= 128-vertex entry is one self-contained cache-line-sized object — the
/// full equality check after a filter match touches one line — and wider
/// entries spill to one exact-size heap buffer each.
class VertexSetTable {
 public:
  /// Slot storage is allocated on the first Insert (an empty table costs
  /// nothing — several per-graph structures hold one that often stays
  /// empty on trivial inputs).
  explicit VertexSetTable(size_t initial_slots = 64)
      : initial_slots_(initial_slots) {}

  /// Inserts s if absent. Returns true iff s was newly inserted; when
  /// `index` is non-null it receives s's arena index either way.
  bool Insert(const VertexSet& s, uint32_t* index = nullptr) {
    if (slots_.empty()) {
      slots_.assign(initial_slots_, kEmpty);
      slot_mask_ = initial_slots_ - 1;
    }
    const uint64_t h = s.Hash();
    const uint32_t filter = static_cast<uint32_t>(h);
    size_t i = h & slot_mask_;
    while (true) {
      const Slot slot = slots_[i];
      if (slot.index == kEmptySlot) break;
      if (slot.hash_lo == filter && arena_[slot.index] == s) {
        if (index != nullptr) *index = slot.index;
        return false;
      }
      i = (i + 1) & slot_mask_;
      __builtin_prefetch(&slots_[i]);
    }
    const uint32_t new_index = static_cast<uint32_t>(arena_.size());
    slots_[i] = Slot{filter, new_index};
    arena_.push_back(s);
    // Keep the load factor below 1/2 so linear probing stays short.
    if (arena_.size() * 2 >= slots_.size()) Grow();
    if (index != nullptr) *index = new_index;
    return true;
  }

  /// Arena index of s, or -1 when s was never inserted. Thread-safe for
  /// concurrent readers as long as no Insert runs — TriangulationContext
  /// freezes its index tables before the parallel DP-wiring sweep reads
  /// them from worker threads.
  int Find(const VertexSet& s) const {
    if (slots_.empty()) return -1;
    const uint64_t h = s.Hash();
    const uint32_t filter = static_cast<uint32_t>(h);
    size_t i = h & slot_mask_;
    while (true) {
      const Slot slot = slots_[i];
      if (slot.index == kEmptySlot) return -1;
      if (slot.hash_lo == filter && arena_[slot.index] == s) {
        return static_cast<int>(slot.index);
      }
      i = (i + 1) & slot_mask_;
      __builtin_prefetch(&slots_[i]);
    }
  }

  size_t Size() const { return arena_.size(); }

  /// The i-th inserted set. The reference is invalidated by the next
  /// Insert (the arena may grow and relocate) — copy to retain.
  const VertexSet& At(size_t i) const { return arena_[i]; }

  /// Pre-sizes for `expected` distinct entries: the arena reserves exactly
  /// that and the slot array jumps to the power of two keeping the load
  /// factor below 1/2, so a warmed-up consumer (a repeat enumeration of a
  /// known-size answer set) inserts with zero allocations — the invariant
  /// the MINTRI_COUNT_ALLOCS regression test pins.
  void Reserve(size_t expected) {
    arena_.reserve(expected);
    size_t want = initial_slots_;
    while (expected * 2 >= want) want <<= 1;
    if (want > slots_.size()) {
      if (slots_.empty()) {
        slots_.assign(want, kEmpty);
        slot_mask_ = want - 1;
      } else {
        while (slots_.size() < want) Grow();
      }
    }
  }

  /// Forgets every entry but keeps the slot array (and the arena vector's
  /// capacity), so a reused per-step dedup table re-fills without
  /// re-growing through every power of two.
  void Clear() {
    arena_.clear();
    if (!slots_.empty()) slots_.assign(slots_.size(), kEmpty);
  }

  /// Moves the arena out and resets the table to its initial empty state.
  std::vector<VertexSet> Take() {
    std::vector<VertexSet> out = std::move(arena_);
    arena_.clear();
    slots_.assign(slots_.size(), kEmpty);
    return out;
  }

 private:
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  // One probe unit: a 32-bit hash filter + the arena index, 8 bytes —
  // eight slots per cache line, one line per probe step. The slot array
  // itself is 64-byte-aligned (CacheLineAllocator), so slot 8k is always
  // the first of a line and home slots land at most seven slots from a
  // boundary. Keeping the filter at 32 bits (rather than the full 64-bit
  // hash) is what halves the slot and keeps the probe array's cache
  // footprint at the old two-array layout's level while touching a single
  // array.
  struct Slot {
    uint32_t hash_lo;
    uint32_t index;
  };
  // Hands out 64-byte-aligned buffers; stateless, all instances equal.
  template <typename T>
  struct CacheLineAllocator {
    using value_type = T;
    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&) {}
    T* allocate(size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(64)));
    }
    void deallocate(T* p, size_t) {
      ::operator delete(p, std::align_val_t(64));
    }
    friend bool operator==(const CacheLineAllocator&,
                           const CacheLineAllocator&) {
      return true;
    }
    friend bool operator!=(const CacheLineAllocator&,
                           const CacheLineAllocator&) {
      return false;
    }
  };
  using SlotVector = std::vector<Slot, CacheLineAllocator<Slot>>;
  static constexpr Slot kEmpty{0, kEmptySlot};

  void Grow() {
    // Re-place every entry by its full 64-bit hash, recovered in O(1)
    // from the arena's cached per-set hashes (the slots only store the
    // 32-bit filter).
    slots_.assign(slots_.size() * 2, kEmpty);
    slot_mask_ = slots_.size() - 1;
    for (size_t idx = 0; idx < arena_.size(); ++idx) {
      const uint64_t h = arena_[idx].Hash();
      size_t i = h & slot_mask_;
      while (slots_[i].index != kEmptySlot) i = (i + 1) & slot_mask_;
      slots_[i] = Slot{static_cast<uint32_t>(h), static_cast<uint32_t>(idx)};
    }
  }

  std::vector<VertexSet> arena_;
  SlotVector slots_;
  size_t slot_mask_ = 0;
  size_t initial_slots_ = 64;
};

}  // namespace mintri

#endif  // MINTRI_GRAPH_VERTEX_SET_TABLE_H_
