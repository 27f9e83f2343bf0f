#ifndef MINTRI_WORKLOADS_FAMILIES_H_
#define MINTRI_WORKLOADS_FAMILIES_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace mintri {
namespace workloads {

/// One experiment graph: a dataset-family stand-in instance.
struct DatasetGraph {
  std::string name;
  Graph graph;
};

/// A dataset family in the Fig. 5 / Table 2 sense.
struct DatasetFamily {
  std::string name;
  std::vector<DatasetGraph> graphs;
};

/// The PIC2011 / PACE2016 / TPC-H stand-in families, in the order of
/// Figure 5, then the G(n, p) graphs of Figs. 7 and 8. Deterministic (fixed seeds); sizes are scaled so that the whole
/// benchmark suite runs in minutes rather than the paper's server-days.
std::vector<DatasetFamily> AllFamilies();

/// A single family by name ("CSP", "ObjectDetection", "Promedas",
/// "ImageAlignment", "Pace2016-100s", "Pace2016-1000s", "Grids", "DBN",
/// "Segmentation", "Alchemy", "Pedigree", "ProteinFolding",
/// "ProteinProtein", "TPC-H", "Random").
DatasetFamily FamilyByName(const std::string& name);

}  // namespace workloads
}  // namespace mintri

#endif  // MINTRI_WORKLOADS_FAMILIES_H_
