#include "parallel/parallel_separators.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "parallel/sharded_set.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace mintri {
namespace parallel {

namespace {

// Work items are 64-bit: either a seed vertex (tag bit set) whose "close"
// separators are still to be scanned, or a reference into the dedup table
// to a separator awaiting expansion. Routing the seeds through the queue —
// instead of a separate seeding phase — lets the queue's outstanding-item
// counter cover them, so no worker can conclude "drained" while another is
// still seeding.
constexpr uint64_t kSeedTag = uint64_t{1} << 63;

// Shared state of one parallel enumeration run. Workers communicate only
// through the dedup table, the work-stealing queue, and the stop/truncated
// flags; all expansion scratch is per-thread.
struct Engine {
  Engine(const Graph& graph, int bound, const EnumerationLimits& lim,
         int threads)
      : g(graph),
        max_size(bound),
        limits(lim),
        deadline(lim.time_limit_seconds),
        num_threads(threads),
        table(4 * threads),
        queue(threads) {}

  const Graph& g;
  const int max_size;
  const EnumerationLimits& limits;
  const Deadline deadline;
  const int num_threads;

  ShardedVertexSetTable table;
  WorkStealingQueue queue;
  std::atomic<bool> truncated{false};

  // Raises the truncation flag and drains every worker out of its loop.
  void StopTruncated() {
    truncated.store(true, std::memory_order_relaxed);
    queue.Cancel();
  }

  // Inserts a discovered separator and stages it for expansion in the
  // worker's pending buffer — table insertion (and the truncation check)
  // happens immediately, only the queue push is deferred so a whole
  // expansion's discoveries go out in one PushBatch instead of one mutex
  // round-trip each. As in the serial engine, exceeding max_results means
  // the full answer set is strictly larger than the cap: truncated.
  void Offer(std::vector<uint64_t>* pending, const VertexSet& s) {
    if (s.Empty()) return;
    if (max_size < g.NumVertices() && s.Count() > max_size) return;
    ShardedVertexSetTable::Ref ref;
    if (!table.Insert(s, &ref)) return;
    if (table.Size() > limits.max_results) {
      StopTruncated();
      return;
    }
    pending->push_back(ShardedVertexSetTable::Pack(ref));
  }

  void RunWorker(int worker) {
    // How many items one NextBatch claims. Small enough that work spreads
    // to idle workers quickly (steals only see what is actually queued),
    // big enough to amortize the own-deque lock across a burst.
    constexpr size_t kPopBatch = 16;

    ComponentScanner scanner;
    VertexSet current;
    VertexSet removed;
    // Same long-lived-scratch rule as the serial enumerator's removed_:
    // heap words so the per-expansion stores cannot alias worker state.
    removed.PinWordsToHeap();
    std::vector<uint64_t> pending;  // discovered, not yet queued
    uint64_t batch[kPopBatch];

    auto offer = [&](const VertexSet&, const VertexSet& nb) {
      Offer(&pending, nb);
    };

    size_t got;
    while ((got = queue.NextBatch(worker, batch, kPopBatch)) > 0) {
      for (size_t k = 0; k < got; ++k) {
        const uint64_t item = batch[k];
        if ((item & kSeedTag) != 0) {
          // Seeding (Berry et al.): the components C of G \ N[v] have
          // minimal separators N(C) as neighborhoods ("close" separators).
          if (deadline.Expired()) {
            StopTruncated();
          } else {
            const int v = static_cast<int>(item & ~kSeedTag);
            removed = g.Neighbors(v);
            removed.Insert(v);
            scanner.ForEachComponent(g, removed, offer);
          }
        } else {
          // Expansion: for each x in S, the neighborhoods of the components
          // of G \ (S ∪ N(x)) are minimal separators. The deadline and the
          // cancellation flag are polled per vertex, so neither one huge
          // expansion can blow the time budget nor can a worker keep
          // expanding long after another hit the result cap.
          table.CopyEntry(ShardedVertexSetTable::Unpack(item), &current);
          current.ForEachWhile([&](int x) {
            if (queue.Cancelled()) return false;
            if (deadline.Expired()) {
              StopTruncated();
              return false;
            }
            removed.AssignUnionOf(current, g.Neighbors(x));
            scanner.ForEachComponent(g, removed, offer);
            return true;
          });
        }
        // Flush this item's discoveries before more of the batch: keeps
        // work visible to stealers while we are still busy.
        if (!pending.empty()) {
          queue.PushBatch(worker, pending.data(), pending.size());
          pending.clear();
        }
      }
      // The flush above already ran for every item, so nothing this batch
      // spawned is still private — safe to retire all of it at once.
      queue.FinishBatch(got);
    }
  }
};

}  // namespace

MinimalSeparatorsResult ListMinimalSeparatorsParallel(
    const Graph& g, int max_size, const EnumerationLimits& limits) {
  // Clamp before sizing any per-thread state (queue deques, shard count),
  // not just before spawning, so a wild num_threads cannot balloon memory.
  Engine engine(g, max_size, limits,
                std::clamp(limits.num_threads, 1, kMaxRunThreads));
  {
    // Seed items, dealt round-robin but pushed one batch per worker.
    std::vector<uint64_t> seeds;
    for (int w = 0; w < engine.num_threads; ++w) {
      seeds.clear();
      for (int v = w; v < g.NumVertices(); v += engine.num_threads) {
        seeds.push_back(kSeedTag | uint64_t(v));
      }
      engine.queue.PushBatch(w, seeds.data(), seeds.size());
    }
  }
  RunOnThreads(engine.num_threads,
               [&engine](int worker) { engine.RunWorker(worker); });

  MinimalSeparatorsResult result;
  result.separators = engine.table.TakeAll();
  if (engine.truncated.load(std::memory_order_relaxed)) {
    result.status = EnumerationStatus::kTruncated;
    // Racing inserts may have pushed the table slightly past the cap; any
    // subset is a valid prefix, so trim to the promised size.
    if (result.separators.size() > limits.max_results) {
      result.separators.resize(limits.max_results);
    }
  } else {
    // Canonical order: a complete parallel run is deterministic regardless
    // of how threads interleaved.
    std::sort(result.separators.begin(), result.separators.end());
  }
  return result;
}

}  // namespace parallel
}  // namespace mintri
