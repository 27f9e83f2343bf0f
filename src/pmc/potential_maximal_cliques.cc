#include "pmc/potential_maximal_cliques.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "graph/bitset_kernels.h"
#include "graph/vertex_set_pool.h"
#include "graph/vertex_set_table.h"
#include "parallel/sharded_set.h"
#include "parallel/thread_pool.h"

namespace mintri {

namespace {

// Scratch-reusing IsPmc tester. One component scan delivers every N(C)
// together with the full-component check; the cliquish test runs over a
// flattened cover bitmap ([v * words + w] instead of one heap vector per
// vertex). Keep one tester alive across candidate checks — its buffers are
// recycled — and use one tester per thread.
class PmcTester {
 public:
  bool Test(const Graph& g, const VertexSet& omega) {
    if (omega.Empty()) return false;
    const int n = g.NumVertices();

    // N(C) per component of G \ Ω, stopping early on a full component
    // (Ω would not be maximal).
    num_seps_ = 0;
    const bool no_full_component =
        scanner_.ForEachComponentWhile(
            g, omega, [&](const VertexSet&, const VertexSet& nb) {
              if (nb == omega) return false;
              if (num_seps_ < seps_.size()) {
                seps_[num_seps_] = nb;  // reuses the element's buffer
              } else {
                seps_.push_back(nb);
              }
              ++num_seps_;
              return true;
            });
    if (!no_full_component) return false;

    // Cliquish test: every non-adjacent pair within Ω must be covered by
    // some component neighborhood. cover_[v * stride + w] = bitset over
    // `seps_` containing v. Rows wide enough for the SIMD path get their
    // stride padded to a whole cache line so, with the buffer's aligned
    // base, every row the intersect kernel touches starts aligned; narrow
    // rows keep stride == words — the bitmap is re-zeroed on every IsPmc
    // call, so padding 1–2-word rows to 8 words just multiplies that
    // memset (and the cache footprint) for kernels that never dispatch.
    const size_t words = (num_seps_ + 63) / 64;
    const size_t stride =
        words < bitset::kSimdMinWords ? words : bitset::AlignWords(words);
    cover_.assign(static_cast<size_t>(n) * stride, 0);
    for (size_t i = 0; i < num_seps_; ++i) {
      seps_[i].ForEach([&](int v) {
        cover_[static_cast<size_t>(v) * stride + (i >> 6)] |=
            uint64_t{1} << (i & 63);
      });
    }
    members_.clear();
    omega.ForEach([&](int v) { members_.push_back(v); });
    for (size_t a = 0; a < members_.size(); ++a) {
      for (size_t b = a + 1; b < members_.size(); ++b) {
        const int x = members_[a], y = members_[b];
        if (g.HasEdge(x, y)) continue;
        const uint64_t* cx = cover_.data() + static_cast<size_t>(x) * stride;
        const uint64_t* cy = cover_.data() + static_cast<size_t>(y) * stride;
        if (!bitset::Intersects(cx, cy, words)) return false;
      }
    }
    return true;
  }

 private:
  ComponentScanner scanner_;
  std::vector<VertexSet> seps_;
  size_t num_seps_ = 0;
  bitset::WordVector cover_;
  std::vector<int> members_;
};

// Thresholds below which the parallel paths fall back to serial: a
// fork-join plus per-worker scratch costs tens of microseconds, which
// dwarfs the real work on tiny prefix graphs / candidate spaces. Both
// paths produce the same sets, so the cutover is unobservable in results.
constexpr int kMinParallelVertices = 20;
constexpr size_t kMinParallelItems = 64;

// The read-only inputs of one OneMoreVertex step, G_i → G_{i+1}, with the
// candidate sources already filtered by the case analysis (see the header).
// Serial and parallel Step share one plan and one generator, so the case
// analysis can never diverge between them.
struct StepPlan {
  const Graph& next;                         // G_{i+1}
  int a;                                     // the new vertex, a = i
  const std::vector<VertexSet>& prev_pmcs;   // Π(G_i)
  std::vector<const VertexSet*> case3;       // S ∈ Δ(G_{i+1}), a ∉ S
  std::vector<const VertexSet*> case4;       // ... and S ∉ Δ(G_i)
  std::vector<const VertexSet*> t_list;      // T ∈ Δ(G_{i+1}), a ∈ T

  StepPlan(const Graph& g, int new_vertex,
           const std::vector<VertexSet>& pmcs,
           const std::vector<VertexSet>& next_seps,
           const VertexSetTable& prev_seps, int max_size)
      : next(g), a(new_vertex), prev_pmcs(pmcs) {
    for (const VertexSet& s : next_seps) {
      if (s.Contains(a)) {
        t_list.push_back(&s);
        continue;
      }
      case3.push_back(&s);
      // Every product S ∪ (T ∩ C) strictly contains S, so in bounded mode
      // an S of size >= max_size only yields over-size candidates.
      if (s.Count() < max_size && prev_seps.Find(s) < 0) {
        case4.push_back(&s);
      }
    }
  }

  // The flat work space: prefix PMCs (cases 1 & 2), then case-3 and case-4
  // sources.
  size_t NumItems() const {
    return prev_pmcs.size() + case3.size() + case4.size();
  }
};

// State of the vertex-incremental enumeration, over the relabeled graph
// whose vertex i is the i-th vertex in the insertion order.
class IncrementalEnumerator {
 public:
  IncrementalEnumerator(const Graph& g, const PmcOptions& options)
      : g_(g), options_(options), deadline_(options.limits.time_limit_seconds) {}

  // Runs the enumeration; returns PMCs of g (relabeled universe).
  PmcResult Run() {
    PmcResult result;
    const int n = g_.NumVertices();
    if (n == 0) return result;

    // PMC(G_1) for the single-vertex prefix, which has no separators.
    std::vector<VertexSet> pmcs = {VertexSet::Single(1, 0)};
    std::vector<VertexSet> prev_seps;

    for (int i = 1; i < n; ++i) {
      // Build G_{i+1} over vertices 0..i.
      Graph next(i + 1);
      for (int u = 0; u <= i; ++u) {
        g_.Neighbors(u).ForEach([&](int v) {
          if (v < u && u <= i) next.AddEdge(u, v);
        });
      }
      EnumerationLimits sep_limits;
      sep_limits.time_limit_seconds = deadline_.RemainingSeconds();
      // Tiny prefix graphs finish in microseconds; below the threshold the
      // fork-join would cost more than the enumeration itself.
      sep_limits.num_threads =
          i + 1 >= kMinParallelVertices ? options_.limits.num_threads : 1;
      MinimalSeparatorsResult seps = ListMinimalSeparators(next, sep_limits);
      if (seps.status != EnumerationStatus::kComplete) {
        result.status = EnumerationStatus::kTruncated;
        break;
      }
      // Δ(G_i), lifted into G_{i+1}'s universe for the case-4 restriction.
      prev_seps_.Clear();
      for (const VertexSet& s : prev_seps) {
        lifted_.Reset(i + 1);
        s.ForEach([&](int v) { lifted_.Insert(v); });
        prev_seps_.Insert(lifted_);
      }
      const StepPlan plan(next, i, pmcs, seps.separators, prev_seps_,
                          options_.max_size);
      std::vector<VertexSet> next_pmcs;
      if (!Step(plan, &next_pmcs)) {
        result.status = EnumerationStatus::kTruncated;
        break;
      }
      pmcs = std::move(next_pmcs);
      prev_seps = std::move(seps.separators);
    }
    result.num_tests = num_tests_;
    if (result.status == EnumerationStatus::kComplete) {
      result.pmcs = std::move(pmcs);
    }
    return result;
  }

 private:
  // Computes PMC(G_{i+1}) from the plan's sources. Returns false when a
  // limit was hit.
  bool Step(const StepPlan& plan, std::vector<VertexSet>* out) {
    // Parallelize only once the candidate space can amortize the fork-join
    // (spawning threads and per-worker scratch costs tens of microseconds;
    // early prefix steps do less total work than that).
    if (options_.limits.num_threads > 1 &&
        plan.NumItems() >= kMinParallelItems) {
      return ParallelStep(plan, out);
    }
    // Per-step dedup on the shared arena/table layout: Clear() keeps the
    // slot array and arena capacity across steps, so after the first few
    // prefix steps the table stops allocating entirely. (The previous
    // std::unordered_set spent one node allocation on every distinct
    // candidate — the single hottest allocation site of the serial PMC
    // path once VertexSets themselves went inline.)
    tried_.Clear();
    auto consider = [&](VertexSet&& omega, bool is_pmc) -> bool {
      if (omega.Empty() || omega.Count() > options_.max_size ||
          !tried_.Insert(omega)) {
        pool_.Release(std::move(omega));
        return true;
      }
      ++num_tests_;
      if (is_pmc || tester_.Test(plan.next, omega)) {
        out->push_back(std::move(omega));
        return out->size() <= options_.limits.max_results;
      }
      pool_.Release(std::move(omega));
      return true;
    };

    const size_t num_items = plan.NumItems();
    for (size_t item = 0; item < num_items; ++item) {
      if (deadline_.Expired()) return false;
      if (!GenerateCandidates(plan, item, &scanner_, &components_, &pool_,
                              consider)) {
        return false;
      }
    }
    return true;
  }

  // Generates the PMC candidates of one item of the plan's flat work space
  // and feeds them to `consider`, which returns false once a limit was hit;
  // then generation stops and this returns false too. Items are: case 1 & 2
  // (a prefix PMC Ω', lifted to Ω' or Ω' ∪ {a} by one component scan from
  // a, and passed on as already decided), then case 3 (S ∪ {a}), then
  // case 4 (the products S ∪ (T ∩ C) for one outer separator S and every
  // component C of G_{i+1} \ S but a's own). The second argument of
  // `consider` says the candidate is known to be a PMC of G_{i+1}; every
  // other candidate goes through IsPmc. Scratch is caller-supplied
  // (per-thread in the parallel path). Candidate sets come from the
  // caller's free-list pool and `consider` takes ownership — it must either
  // keep the set (an accepted PMC) or Release it back, so the
  // generate-mostly-reject loop recycles the same few buffers instead of
  // churning one per candidate.
  template <typename Consider>
  static bool GenerateCandidates(const StepPlan& plan, size_t item,
                                 ComponentScanner* scanner,
                                 std::vector<VertexSet>* components,
                                 VertexSetPool* pool,
                                 const Consider& consider) {
    const size_t num_pmcs = plan.prev_pmcs.size();
    const size_t num_case3 = plan.case3.size();
    const int n = plan.next.NumVertices();
    if (item < num_pmcs) {
      // Exactly one of Ω' and Ω' ∪ {a} is a PMC of G_{i+1}: Ω' ∪ {a} iff
      // a's component of G_{i+1} \ Ω' is full (see the header).
      VertexSet omega = pool->Acquire(n);
      plan.prev_pmcs[item].ForEach([&](int v) { omega.Insert(v); });
      if (scanner->ComponentNeighborhood(plan.next, omega, plan.a) == omega) {
        omega.Insert(plan.a);
      }
      return consider(std::move(omega), /*is_pmc=*/true);
    }
    if (item < num_pmcs + num_case3) {
      VertexSet omega = pool->Acquire(n);
      omega = *plan.case3[item - num_pmcs];
      omega.Insert(plan.a);
      return consider(std::move(omega), /*is_pmc=*/false);
    }
    const VertexSet& s = *plan.case4[item - num_pmcs - num_case3];
    scanner->Components(plan.next, s, components);
    for (const VertexSet* t : plan.t_list) {
      for (const VertexSet& c : *components) {
        // A product through a's component contains a, and every PMC
        // containing a is reached by case 2 or 3.
        if (c.Contains(plan.a)) continue;
        VertexSet cand = pool->Acquire(n);
        cand = *t;
        cand.IntersectWith(c);
        if (cand.Empty()) {
          pool->Release(std::move(cand));
          continue;
        }
        cand.UnionWith(s);
        if (!consider(std::move(cand), /*is_pmc=*/false)) return false;
      }
    }
    return true;
  }

  // Multi-threaded Step: the plan's items form a flat index space that
  // workers claim from an atomic cursor; each worker tests its candidates
  // with its own PmcTester/ComponentScanner scratch, dedup goes through a
  // sharded table on the cached VertexSet hashes, and accepted PMCs land in
  // per-worker vectors that are concatenated at the join. The output *set*
  // is exactly the serial one, Π(G_{i+1}): every PMC is produced by some
  // item whatever the claim order, and every verdict (IsPmc or the
  // case-1/2 scan) is order-independent. Only the order within `out`
  // differs, and ListPotentialMaximalCliques sorts the final result anyway.
  bool ParallelStep(const StepPlan& plan, std::vector<VertexSet>* out) {
    // Clamped before sizing shard/worker state, mirroring RunOnThreads.
    const int num_threads =
        std::clamp(options_.limits.num_threads, 1, parallel::kMaxRunThreads);
    const size_t num_items = plan.NumItems();

    parallel::ShardedVertexSetTable tried(4 * num_threads);
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> accepted{0};
    std::atomic<size_t> tests{0};
    std::atomic<bool> stopped{false};
    std::vector<std::vector<VertexSet>> worker_out(num_threads);

    parallel::RunOnThreads(num_threads, [&](int worker) {
      PmcTester tester;
      ComponentScanner scanner;
      std::vector<VertexSet> components;
      VertexSetPool pool;
      std::vector<VertexSet>& local_out = worker_out[worker];
      size_t local_tests = 0;

      auto consider = [&](VertexSet&& omega, bool is_pmc) -> bool {
        if (omega.Empty() || omega.Count() > options_.max_size ||
            !tried.Insert(omega)) {
          pool.Release(std::move(omega));
          return true;
        }
        ++local_tests;
        if (is_pmc || tester.Test(plan.next, omega)) {
          local_out.push_back(std::move(omega));
          return accepted.fetch_add(1, std::memory_order_relaxed) + 1 <=
                 options_.limits.max_results;
        }
        pool.Release(std::move(omega));
        return true;
      };

      while (!stopped.load(std::memory_order_relaxed)) {
        const size_t item = cursor.fetch_add(1, std::memory_order_relaxed);
        if (item >= num_items) break;
        if (deadline_.Expired()) {
          stopped.store(true, std::memory_order_relaxed);
          break;
        }
        if (!GenerateCandidates(plan, item, &scanner, &components, &pool,
                                consider)) {
          stopped.store(true, std::memory_order_relaxed);
          break;
        }
      }
      tests.fetch_add(local_tests, std::memory_order_relaxed);
    });

    num_tests_ += tests.load(std::memory_order_relaxed);
    if (stopped.load(std::memory_order_relaxed)) return false;
    for (std::vector<VertexSet>& chunk : worker_out) {
      for (VertexSet& omega : chunk) out->push_back(std::move(omega));
    }
    return true;
  }

  const Graph& g_;
  const PmcOptions& options_;
  Deadline deadline_;
  size_t num_tests_ = 0;

  // Reused scratch.
  PmcTester tester_;
  ComponentScanner scanner_;
  std::vector<VertexSet> components_;
  VertexSetPool pool_;
  VertexSetTable tried_;
  VertexSetTable prev_seps_;
  VertexSet lifted_;
};

}  // namespace

bool IsPmc(const Graph& g, const VertexSet& omega) {
  PmcTester tester;
  return tester.Test(g, omega);
}

PmcResult ListPotentialMaximalCliques(const Graph& g,
                                      const PmcOptions& options) {
  const int n = g.NumVertices();
  PmcResult result;
  if (n == 0) return result;

  // A PMC of a disconnected graph is a PMC of one of its components
  // (minimal triangulations act per component), so recurse component-wise.
  std::vector<VertexSet> components = g.ConnectedComponents();
  if (components.size() > 1) {
    for (const VertexSet& comp : components) {
      std::vector<int> old_of_new(comp.Count());
      {
        int next = 0;
        comp.ForEach([&](int v) { old_of_new[next++] = v; });
      }
      Graph sub = g.InducedSubgraph(comp);
      PmcResult part = ListPotentialMaximalCliques(sub, options);
      result.num_tests += part.num_tests;
      if (part.status != EnumerationStatus::kComplete) {
        result.status = EnumerationStatus::kTruncated;
        return result;
      }
      for (const VertexSet& p : part.pmcs) {
        VertexSet mapped(n);
        p.ForEach([&](int v) { mapped.Insert(old_of_new[v]); });
        result.pmcs.push_back(std::move(mapped));
      }
    }
    std::sort(result.pmcs.begin(), result.pmcs.end());
    result.status = EnumerationStatus::kComplete;
    return result;
  }

  // Connectivity-preserving insertion order (BFS from vertex 0), so every
  // prefix graph is connected.
  std::vector<int> order;
  order.reserve(n);
  {
    VertexSet visited = VertexSet::Single(n, 0);
    std::vector<int> queue = {0};
    for (size_t head = 0; head < queue.size(); ++head) {
      int v = queue[head];
      order.push_back(v);
      g.Neighbors(v).ForEach([&](int u) {
        if (!visited.Contains(u)) {
          visited.Insert(u);
          queue.push_back(u);
        }
      });
    }
  }
  assert(static_cast<int>(order.size()) == n);

  // Relabel so that the insertion order is 0..n-1.
  std::vector<int> new_of_old(n);
  for (int i = 0; i < n; ++i) new_of_old[order[i]] = i;
  Graph relabeled(n);
  for (const auto& [u, v] : g.Edges()) {
    relabeled.AddEdge(new_of_old[u], new_of_old[v]);
  }

  IncrementalEnumerator enumerator(relabeled, options);
  PmcResult inner = enumerator.Run();
  result.status = inner.status;
  result.num_tests = inner.num_tests;
  result.pmcs.reserve(inner.pmcs.size());
  for (const VertexSet& p : inner.pmcs) {
    VertexSet mapped(n);
    p.ForEach([&](int v) { mapped.Insert(order[v]); });
    result.pmcs.push_back(std::move(mapped));
  }
  std::sort(result.pmcs.begin(), result.pmcs.end());
  return result;
}

std::vector<VertexSet> PmcsBruteForce(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<VertexSet> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    VertexSet omega(n);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) omega.Insert(v);
    }
    if (IsPmc(g, omega)) out.push_back(std::move(omega));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mintri
