#include "workloads/families.h"

#include <cassert>

#include "workloads/graphical_models.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"
#include "workloads/tpch_queries.h"

namespace mintri {
namespace workloads {

namespace {

DatasetFamily Csp() {
  DatasetFamily f{"CSP", {}};
  f.graphs.push_back({"myciel3g", Mycielski(3)});
  f.graphs.push_back({"myciel4g", Mycielski(4)});
  f.graphs.push_back({"myciel5g", Mycielski(5)});
  for (int i = 0; i < 6; ++i) {
    f.graphs.push_back({"csp_rand_" + std::to_string(i),
                        CspGraph(14 + 2 * i, 10 + 2 * i, 3, 100 + i)});
  }
  return f;
}

DatasetFamily ObjectDetection() {
  DatasetFamily f{"ObjectDetection", {}};
  for (int i = 0; i < 8; ++i) {
    f.graphs.push_back({"objdet_" + std::to_string(i),
                        ObjectDetectionGraph(15 + i % 4, 0.4, 7, 200 + i)});
  }
  return f;
}

DatasetFamily Promedas() {
  DatasetFamily f{"Promedas", {}};
  for (int i = 0; i < 4; ++i) {
    f.graphs.push_back({"promedas_" + std::to_string(i),
                        PromedasGraph(16 + 4 * i, 28 + 6 * i, 3, 300 + i)});
  }
  return f;
}

DatasetFamily ImageAlignment() {
  DatasetFamily f{"ImageAlignment", {}};
  for (int i = 0; i < 4; ++i) {
    f.graphs.push_back({"imgalign_" + std::to_string(i),
                        ImageAlignmentGraph(4, 5 + i, 6 + i, 400 + i)});
  }
  return f;
}

DatasetFamily Pace100() {
  DatasetFamily f{"Pace2016-100s", {}};
  f.graphs.push_back({"petersen", Petersen()});
  f.graphs.push_back({"myciel4", Mycielski(4)});
  f.graphs.push_back({"queen4", Queen(4)});
  f.graphs.push_back({"queen5", Queen(5)});
  f.graphs.push_back({"hypercube3", Hypercube(3)});
  f.graphs.push_back({"hypercube4", Hypercube(4)});
  f.graphs.push_back({"grid4x4", Grid(4, 4)});
  for (int i = 0; i < 3; ++i) {
    f.graphs.push_back({"cfg_" + std::to_string(i),
                        MoralizedRandomDag(24 + 4 * i, 2, 500 + i)});
  }
  return f;
}

DatasetFamily Pace1000() {
  DatasetFamily f{"Pace2016-1000s", {}};
  f.graphs.push_back({"myciel5", Mycielski(5)});
  f.graphs.push_back({"queen6", Queen(6)});
  f.graphs.push_back({"grid5x5", Grid(5, 5)});
  return f;
}

DatasetFamily Grids() {
  DatasetFamily f{"Grids", {}};
  f.graphs.push_back({"grid4x5", Grid(4, 5)});
  f.graphs.push_back({"grid5x5", Grid(5, 5)});
  f.graphs.push_back({"grid5x6", Grid(5, 6)});
  f.graphs.push_back({"grid6x6", Grid(6, 6)});
  f.graphs.push_back({"grid6x6d", Grid(6, 6, /*diagonals=*/true)});
  return f;
}

DatasetFamily Dbn() {
  DatasetFamily f{"DBN", {}};
  for (int i = 0; i < 4; ++i) {
    f.graphs.push_back({"dbn_" + std::to_string(i),
                        DbnChain(4 + i, 6, 0.3, 0.25, 600 + i)});
  }
  return f;
}

DatasetFamily Segmentation() {
  DatasetFamily f{"Segmentation", {}};
  for (int i = 0; i < 4; ++i) {
    f.graphs.push_back({"segment_" + std::to_string(i),
                        SegmentationGraph(5, 6 + i, 8, 700 + i)});
  }
  return f;
}

// The "hopeless" PIC2011 families of Fig. 5: graphs sized past the
// minimal-separator blow-up so that MinSep does not terminate in budget.
DatasetFamily DenseFamily(const std::string& name, int n0, double p,
                          uint64_t seed0) {
  DatasetFamily f{name, {}};
  for (int i = 0; i < 3; ++i) {
    f.graphs.push_back({name + "_" + std::to_string(i),
                        ConnectedErdosRenyi(n0 + 10 * i, p, seed0 + i)});
  }
  return f;
}

// The G(n, p) instances of Figs. 7 and 8: one connected sample per (n, p)
// with seed 880000 + 100 n + 1000 p, the n = 20 graphs first.
DatasetFamily Random() {
  DatasetFamily f{"Random", {}};
  for (int n : {20, 50}) {
    for (int pc : {5, 10, 25, 50, 80}) {
      const std::string p = (pc < 10 ? "0.0" : "0.") + std::to_string(pc);
      f.graphs.push_back(
          {"gnp_n" + std::to_string(n) + "_p" + p,
           ConnectedErdosRenyi(n, pc / 100.0,
                               880000 + 100ULL * n + 10ULL * pc)});
    }
  }
  return f;
}

DatasetFamily Tpch() {
  DatasetFamily f{"TPC-H", {}};
  for (TpchQuery& q : AllTpchQueries()) {
    f.graphs.push_back({"tpch_q" + std::to_string(q.number),
                        std::move(q.graph)});
  }
  return f;
}

}  // namespace

std::vector<DatasetFamily> AllFamilies() {
  return {
      DenseFamily("Alchemy", 55, 0.25, 800),
      DenseFamily("Pedigree", 60, 0.2, 810),
      DenseFamily("ProteinProtein", 65, 0.25, 820),
      ImageAlignment(),
      Pace1000(),
      DenseFamily("ProteinFolding", 60, 0.3, 830),
      Tpch(),
      Grids(),
      Csp(),
      Segmentation(),
      Dbn(),
      ObjectDetection(),
      Promedas(),
      Pace100(),
      Random(),
  };
}

DatasetFamily FamilyByName(const std::string& name) {
  for (DatasetFamily& f : AllFamilies()) {
    if (f.name == name) return f;
  }
  assert(false && "unknown dataset family");
  return {};
}

}  // namespace workloads
}  // namespace mintri
