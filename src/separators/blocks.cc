#include "separators/blocks.h"

#include "graph/vertex_set_table.h"

namespace mintri {

std::vector<Block> BlocksOfSeparator(const Graph& g, const VertexSet& s) {
  std::vector<Block> blocks;
  ComponentScanner scanner;
  // One scan delivers each component together with its neighborhood, so the
  // fullness test needs no extra NeighborhoodOfSet pass.
  scanner.ForEachComponent(g, s, [&](const VertexSet& c, const VertexSet& nb) {
    Block b;
    b.full = (nb == s);
    b.separator = s;
    b.vertices = s.Union(c);
    b.component = c;
    blocks.push_back(std::move(b));
  });
  return blocks;
}

std::vector<Block> AllFullBlocks(const Graph& g,
                                 const std::vector<VertexSet>& separators) {
  std::vector<Block> out;
  // A full block is identified by its component (S = N(C)), so dedup on the
  // shared hash-table layout keyed by the components' cached hashes.
  VertexSetTable seen_components;
  for (const VertexSet& s : separators) {
    for (Block& b : BlocksOfSeparator(g, s)) {
      if (!b.full) continue;
      if (seen_components.Insert(b.component)) {
        out.push_back(std::move(b));
      }
    }
  }
  return out;
}

}  // namespace mintri
