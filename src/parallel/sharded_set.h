#ifndef MINTRI_PARALLEL_SHARDED_SET_H_
#define MINTRI_PARALLEL_SHARDED_SET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/vertex_set.h"
#include "graph/vertex_set_table.h"

namespace mintri {
namespace parallel {

/// A concurrent set of VertexSets: the shared deduplication structure of the
/// parallel enumeration engines. The key space is striped over independently
/// locked shards by the *high* bits of the sets' cached 64-bit hashes (the
/// low bits drive in-shard probing, so the two choices stay uncorrelated).
/// Each shard is one VertexSetTable — literally the same open-addressing
/// layout the serial MinimalSeparatorEnumerator uses, including its
/// interleaved hash+index slot array (one cache line per probe step, with
/// software prefetch) — so the per-insert cost matches the serial dedup;
/// threads only contend when their hashes land on the same shard.
class ShardedVertexSetTable {
 public:
  /// Identifies an inserted set; packable into a 64-bit work item.
  struct Ref {
    uint32_t shard = 0;
    uint32_t index = 0;
  };

  static uint64_t Pack(Ref ref) {
    return (uint64_t{ref.shard} << 32) | ref.index;
  }
  static Ref Unpack(uint64_t packed) {
    return {static_cast<uint32_t>(packed >> 32),
            static_cast<uint32_t>(packed)};
  }

  /// `num_shards` is rounded up to a power of two; 4x the thread count is a
  /// good default (collision probability 1/(4T) per concurrent insert).
  explicit ShardedVertexSetTable(int num_shards);

  /// Inserts s if absent. Returns true (and fills *ref, when non-null) iff
  /// s was newly inserted.
  bool Insert(const VertexSet& s, Ref* ref = nullptr);

  /// Copies the entry at `ref` into *out (reusing out's storage). A copy
  /// rather than a reference: another thread may grow the shard's arena —
  /// relocating its elements — at any time.
  void CopyEntry(Ref ref, VertexSet* out) const;

  /// Total number of distinct sets inserted so far.
  size_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Moves every entry out, shard by shard in insertion order. The table is
  /// left empty; call only after all inserting threads have joined.
  std::vector<VertexSet> TakeAll();

 private:
  // One cache line (or more) per shard: the mutexes of neighboring shards
  // must not share a line, or every lock/unlock would ping-pong the line
  // between threads that never actually contend. The arena entries inside
  // each table are VertexSets with small-buffer word storage: <= 128-vertex
  // entries are self-contained objects (no pointer chase on the equality
  // probe), wider ones spill to one exact-size heap buffer each.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    VertexSetTable table;
  };

  std::vector<Shard> shards_;
  uint64_t shard_mask_ = 0;
  std::atomic<size_t> size_{0};
};

}  // namespace parallel
}  // namespace mintri

#endif  // MINTRI_PARALLEL_SHARDED_SET_H_
