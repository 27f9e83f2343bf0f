#ifndef MINTRI_PREPROCESS_PREPROCESS_H_
#define MINTRI_PREPROCESS_PREPROCESS_H_

#include <vector>

#include "graph/graph.h"

namespace mintri {

/// One vertex removed by Tier 0, with the clique bag that lifts results
/// back: `bag` is N[v] at elimination time (original labels), which is a
/// maximal clique of every minimal triangulation of the pre-elimination
/// graph.
struct EliminatedVertex {
  int vertex = -1;
  VertexSet bag;
};

/// One edge of the atom tree: a clique separator that Preprocess split on,
/// with the two atoms (indices into PreprocessResult::atoms) it joins. Both
/// atoms contain `separator`.
struct AtomLink {
  int a = -1;
  int b = -1;
  VertexSet separator;
};

/// Summary counters for reporting (folded into ContextBuildInfo by the
/// tiered enumerator, surfaced by --stats, batch records, and bench JSON).
struct PreprocessInfo {
  int vertices_removed = 0;
  int num_atoms = 0;
  int largest_atom = 0;
  int smallest_atom = 0;
  double seconds = 0;
};

struct PreprocessResult {
  /// Vertices still in play after the reductions.
  VertexSet kept;
  /// The input graph itself: the simplicial reduction adds no fill, so the
  /// reduced graph is g[kept]. Read it through subsets of `kept`.
  Graph reduced;
  /// Eliminated vertices in elimination order, with their lift bags.
  std::vector<EliminatedVertex> eliminated;
  /// Clique-minimal-separator atoms of reduced[kept] (original labels,
  /// sorted). Adjacent atoms overlap in their clique separator; their union
  /// is `kept`. Empty iff `kept` is empty (the graph fully reduced).
  std::vector<VertexSet> atoms;
  /// The atom tree, one link per split: on each connected component of
  /// reduced[kept] the links form a spanning tree of its atoms. Linking the
  /// atoms' clique trees along them, through one bag on each side that
  /// contains the separator, gives a clique tree of the glued triangulation
  /// (Leimer), so results are assembled without rebuilding one.
  std::vector<AtomLink> atom_links;
  PreprocessInfo info;
};

/// Runs Tier 0, the reduce stage of the tiered pipeline, on g (any graph;
/// components are decomposed independently). Both steps are *stream-safe*:
/// they preserve the set of minimal triangulations up to the recorded lift,
/// so the tiered enumerator can replay the full ranked stream of g.
///  - Repeatedly eliminate simplicial vertices (N(v) a clique): v lies in
///    the unique maximal clique N[v] of every minimal triangulation and
///    contributes no fill, so MT(G) is in bijection with MT(G - v).
///  - Split what is left into its clique-minimal-separator atoms (Tarjan /
///    Leimer): MT(G) is the independent product of MT(G[atom]) over the
///    atoms, glued on the clique separators.
/// Deterministic: single-threaded, fixed scan orders.
PreprocessResult Preprocess(const Graph& g);

/// The clique-minimal-separator atoms of g (Leimer's unique decomposition),
/// computed from the clique-tree adhesions of a minimal triangulation that
/// are cliques in g (Berry–Pogorelcnik–Simonet: those are exactly the clique
/// minimal separators of g). Exposed for tests; Preprocess calls this on the
/// reduced graph.
std::vector<VertexSet> CliqueMinimalSeparatorAtoms(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_PREPROCESS_PREPROCESS_H_
