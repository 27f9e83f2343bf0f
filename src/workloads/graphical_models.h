#ifndef MINTRI_WORKLOADS_GRAPHICAL_MODELS_H_
#define MINTRI_WORKLOADS_GRAPHICAL_MODELS_H_

#include <cstdint>

#include "graph/graph.h"

namespace mintri {
namespace workloads {

/// Synthetic stand-ins for the PIC2011 probabilistic-graphical-model
/// datasets of Section 7.1. Each generator targets the structural regime of
/// its family; all are deterministic given the seed.

/// Moral graph of a random DAG: each vertex v > 0 receives up to
/// `max_parents` random earlier parents, then parents of a common child are
/// married. The generic Bayesian-network shape.
Graph MoralizedRandomDag(int n, int max_parents, uint64_t seed);

/// Dynamic Bayesian network: `slices` copies of a `per_slice`-node slice,
/// intra-slice edges with probability p_intra, inter-slice (interface)
/// edges with probability p_inter, then moralized chain structure. Interface
/// separators between slices dominate, as in the PIC2011 DBN family.
Graph DbnChain(int slices, int per_slice, double p_intra, double p_inter,
               uint64_t seed);

/// Segmentation-like MRF: an r × c 4-connected lattice where random pairs of
/// adjacent vertices are additionally linked to diagonal neighbors,
/// mimicking superpixel region adjacency irregularity.
Graph SegmentationGraph(int rows, int cols, int extra_links, uint64_t seed);

/// Promedas-like layered noisy-OR network: a bipartite DAG of `diseases` →
/// `findings` (each finding has 1–max_parents random disease parents),
/// moralized. Large, sparse, with many potential maximal cliques — the
/// regime where the paper reports RankedTriang struggling.
Graph PromedasGraph(int diseases, int findings, int max_parents,
                    uint64_t seed);

/// Object-detection-like model: a dense core of `parts` mutually related
/// part nodes (density `core_p`) plus `periphery` nodes each attached to a
/// few core nodes. Small and dense — many small separators, fast PMC step.
Graph ObjectDetectionGraph(int parts, double core_p, int periphery,
                           uint64_t seed);

/// Random CSP constraint graph: `constraints` constraints of scope size
/// ≤ `arity` over n variables; each scope is saturated (the constraint
/// graph of a CSP instance).
Graph CspGraph(int n, int constraints, int arity, uint64_t seed);

/// Image-alignment-like model: a grid of landmarks with additional random
/// "match" edges between nearby cells.
Graph ImageAlignmentGraph(int rows, int cols, int matches, uint64_t seed);

}  // namespace workloads
}  // namespace mintri

#endif  // MINTRI_WORKLOADS_GRAPHICAL_MODELS_H_
