#ifndef MINTRI_SEPARATORS_BLOCKS_H_
#define MINTRI_SEPARATORS_BLOCKS_H_

#include <vector>

#include "graph/graph.h"

namespace mintri {

/// A block (S, C) of a graph: S is a minimal separator and C an S-component
/// (Section 5.1 of the paper). The block is *full* when every vertex of S
/// has a neighbor in C, i.e., N(C) = S.
struct Block {
  VertexSet separator;  // S
  VertexSet component;  // C
  VertexSet vertices;   // S ∪ C (the paper identifies the block with this)
  bool full = false;
};

/// All blocks (s, C) for the S-components C of G \ s.
std::vector<Block> BlocksOfSeparator(const Graph& g, const VertexSet& s);

/// All *full* blocks over a collection of minimal separators, deduplicated.
/// Note that a full block is uniquely identified by its component C, since
/// S = N(C).
std::vector<Block> AllFullBlocks(const Graph& g,
                                 const std::vector<VertexSet>& separators);

}  // namespace mintri

#endif  // MINTRI_SEPARATORS_BLOCKS_H_
