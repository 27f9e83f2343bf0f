#include "probe.h"

#include <chrono>
#include <utility>
#include <vector>

#include "checker.h"
#include "generators.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr int kVertices = 400;
constexpr int kTreewidth = 6;
constexpr int kChunks = 9;
constexpr int kRoundsPerChunk = 31;

// A random k-tree: a (k+1)-clique, then each new vertex joined to a k-clique
// chosen among those created so far.
std::vector<std::pair<int, int>> RandomKTree(int n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  std::vector<std::vector<int>> cliques;
  std::vector<int> base;
  for (int v = 0; v <= k; ++v) {
    for (int u : base) edges.emplace_back(u, v);
    base.push_back(v);
  }
  for (int drop = 0; drop <= k; ++drop) {
    std::vector<int> c = base;
    c.erase(c.begin() + drop);
    cliques.push_back(c);
  }
  for (int v = k + 1; v < n; ++v) {
    const std::vector<int> c = cliques[rng.Below(
        static_cast<int>(cliques.size()))];
    for (int u : c) edges.emplace_back(u, v);
    for (int drop = 0; drop < k; ++drop) {
      std::vector<int> next = c;
      next[drop] = v;
      cliques.push_back(next);
    }
  }
  return edges;
}

}  // namespace

double TimeProbe() {
  static const std::vector<std::pair<int, int>> edges =
      RandomKTree(kVertices, kTreewidth, 20261017);
  // The median chunk, scaled to the whole probe, ignores a momentary stall
  // in one chunk but follows a change of host speed.
  std::vector<double> chunks;
  bool chordal = true;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kRoundsPerChunk; ++round) {
      chordal = IsChordalGraph(kVertices, edges) && chordal;
    }
    chunks.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  return chordal ? Median(chunks) * kChunks : -1;
}

}  // namespace perfbench
