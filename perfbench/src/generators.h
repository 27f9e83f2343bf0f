#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: a fixed, platform-independent generator, so that one seed
/// gives byte-identical inputs on every compiler and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform-enough integer in [0, bound) (bound > 0).
  int Below(int bound) { return static_cast<int>(Next() % bound); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(static_cast<int>(i))]);
    }
  }

 private:
  uint64_t state_;
};

/// A generated benchmark input: the graph as PACE/DIMACS ".gr" text (what
/// the program receives) plus its edge list and the treewidth known by
/// construction (what the checker compares against).
///
/// Every generator takes two seeds. `shape_seed` fixes the graph: its vertex
/// labels and, for the atom chain, its structure. The vertex labels decide
/// how the ranked enumeration breaks its many ties between equal-width
/// triangulations, so they change the work done for the same number of
/// results. `text_seed` only shuffles the order and orientation of the edge
/// lines, which leaves the parsed graph, and so the work, unchanged.
struct Instance {
  std::string text;
  int n = 0;
  std::vector<std::pair<int, int>> edges;  // 0-based, u < v, sorted
  int treewidth = 0;
};

/// A rows x cols grid whose vertex labels are a seeded permutation.
/// Treewidth min(rows, cols).
Instance RelabeledGrid(int rows, int cols, uint64_t shape_seed,
                       uint64_t text_seed);

/// A seeded chain of `blocks` k x 3 grids (k cycling through 3, 4, 5 in a
/// seeded order), each glued to the previous block on a clique separator
/// of size 1 (a shared vertex) or 2 (a shared edge), half of each, plus
/// `pendants` degree-1 vertices hung on seeded vertices; labels are a
/// seeded permutation. The grids are the clique-minimal-separator atoms,
/// the pendants are simplicial, and the treewidth is 3 (the clique-sum of
/// treewidth-3 blocks).
Instance AtomChain(int blocks, int pendants, uint64_t shape_seed,
                   uint64_t text_seed);

/// Derives the text seed of input `index` of a run from the run's --seed.
uint64_t TextSeed(uint64_t run_seed, int index);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
