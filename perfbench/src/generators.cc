#include "generators.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t TextSeed(uint64_t run_seed, int index) {
  Rng rng(run_seed * 0x100000001B3ULL + static_cast<uint64_t>(index));
  return rng.Next();
}

namespace {

// Applies a seeded relabeling and renders the graph as .gr text with the
// edge lines in a seeded order.
Instance Finish(int n, const std::vector<std::pair<int, int>>& edges,
                int treewidth, Rng* shape_rng, uint64_t text_seed) {
  std::vector<int> label(n);
  std::iota(label.begin(), label.end(), 0);
  shape_rng->Shuffle(&label);
  Instance inst;
  inst.n = n;
  inst.treewidth = treewidth;
  for (auto [u, v] : edges) {
    int a = label[u], b = label[v];
    inst.edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(inst.edges.begin(), inst.edges.end());
  inst.edges.erase(std::unique(inst.edges.begin(), inst.edges.end()),
                   inst.edges.end());
  Rng text_rng(text_seed);
  std::vector<std::pair<int, int>> lines = inst.edges;
  text_rng.Shuffle(&lines);
  inst.text = "p tw " + std::to_string(n) + " " +
              std::to_string(lines.size()) + "\n";
  for (auto [u, v] : lines) {
    if (text_rng.Below(2) == 1) std::swap(u, v);
    inst.text += std::to_string(u + 1) + " " + std::to_string(v + 1) + "\n";
  }
  return inst;
}

// Appends a rows x cols grid on fresh vertex ids starting at `first`.
void AddGrid(int rows, int cols, int first,
             std::vector<std::pair<int, int>>* edges) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      int v = first + r * cols + c;
      if (c + 1 < cols) edges->emplace_back(v, v + 1);
      if (r + 1 < rows) edges->emplace_back(v, v + cols);
    }
  }
}

}  // namespace

Instance RelabeledGrid(int rows, int cols, uint64_t shape_seed,
                       uint64_t text_seed) {
  Rng rng(shape_seed);
  std::vector<std::pair<int, int>> edges;
  AddGrid(rows, cols, 0, &edges);
  return Finish(rows * cols, edges, std::min(rows, cols), &rng, text_seed);
}

Instance AtomChain(int blocks, int pendants, uint64_t shape_seed,
                   uint64_t text_seed) {
  Rng rng(shape_seed);
  std::vector<int> heights(blocks);
  std::vector<int> glue_sizes(blocks > 0 ? blocks - 1 : 0);
  for (int i = 0; i < blocks; ++i) heights[i] = 3 + i % 3;
  for (size_t i = 0; i < glue_sizes.size(); ++i) glue_sizes[i] = 1 + i % 2;
  rng.Shuffle(&heights);
  rng.Shuffle(&glue_sizes);

  // Build each block on fresh ids, alias each glued id to its partner in
  // the previous block, then compact the ids.
  std::vector<std::pair<int, int>> raw;
  std::vector<int> alias;
  std::vector<std::pair<int, int>> prev_edges;  // previous block's edges
  int prev_first = -1;
  int next_id = 0;
  for (int b = 0; b < blocks; ++b) {
    const int first = next_id;
    const int size = heights[b] * 3;
    next_id += size;
    std::vector<std::pair<int, int>> block_edges;
    AddGrid(heights[b], 3, first, &block_edges);
    alias.resize(next_id);
    std::iota(alias.begin() + first, alias.end(), first);
    if (b > 0) {
      if (glue_sizes[b - 1] == 1) {
        int u = prev_first + rng.Below(heights[b - 1] * 3);
        int v = first + rng.Below(size);
        alias[v] = u;
      } else {
        auto [pu, pv] = prev_edges[rng.Below(static_cast<int>(
            prev_edges.size()))];
        auto [cu, cv] = block_edges[rng.Below(static_cast<int>(
            block_edges.size()))];
        alias[cu] = pu;
        alias[cv] = pv;
      }
    }
    raw.insert(raw.end(), block_edges.begin(), block_edges.end());
    prev_edges = std::move(block_edges);
    prev_first = first;
  }
  // A glued id aliases an id of the previous block, which may itself be
  // glued further back; aliases always point to smaller ids.
  auto root = [&](int v) {
    while (alias[v] != v) v = alias[v];
    return v;
  };
  std::vector<int> compact(next_id, -1);
  int n = 0;
  for (int v = 0; v < next_id; ++v) {
    if (root(v) == v) compact[v] = n++;
  }
  std::vector<std::pair<int, int>> edges;
  for (auto [u, v] : raw) {
    edges.emplace_back(compact[root(u)], compact[root(v)]);
  }
  const int core = n;
  for (int p = 0; p < pendants; ++p) {
    edges.emplace_back(rng.Below(core), n++);
  }
  return Finish(n, edges, 3, &rng, text_seed);
}

}  // namespace perfbench
