// Ablation (ours): the two candidate-generation modes of the Bouchitté–
// Todinca PMC enumeration. The default restricts the
// S ∪ (T ∩ C) case to separators T containing the newly inserted vertex;
// `exhaustive_pairs` iterates all pairs. Both are validated equal in the
// test suite; this bench quantifies the speed difference, which grows with
// the separator count.

#include <iostream>

#include "bench_util.h"
#include "util/table_printer.h"
#include "workloads/graphical_models.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

int main() {
  using namespace mintri;
  using namespace mintri::bench;

  std::cout << "=== PMC enumeration: restricted vs exhaustive candidate "
               "pairs ===\n\n";
  TablePrinter table({"graph", "#seps", "#pmcs", "restricted(ms)",
                      "exhaustive(ms)", "speedup"});
  std::vector<std::pair<std::string, Graph>> graphs = {
      {"grid4x4", workloads::Grid(4, 4)},
      {"grid4x5", workloads::Grid(4, 5)},
      {"myciel4", workloads::Mycielski(4)},
      {"queen4", workloads::Queen(4)},
      {"er20_p2", workloads::ConnectedErdosRenyi(20, 0.2, 31)},
      {"dbn", workloads::DbnChain(4, 6, 0.3, 0.25, 603)},
  };
  for (auto& [name, g] : graphs) {
    auto seps = ListMinimalSeparators(g).separators;
    WallTimer t1;
    PmcOptions restricted;
    auto r1 = ListPotentialMaximalCliques(g, seps, restricted);
    double ms1 = 1e3 * t1.Seconds();
    WallTimer t2;
    PmcOptions exhaustive;
    exhaustive.exhaustive_pairs = true;
    auto r2 = ListPotentialMaximalCliques(g, seps, exhaustive);
    double ms2 = 1e3 * t2.Seconds();
    if (r1.pmcs != r2.pmcs) {
      std::cout << "MODE MISMATCH on " << name << " — bug!\n";
      return 1;
    }
    table.AddRow({name, TablePrinter::Int(seps.size()),
                  TablePrinter::Int(r1.pmcs.size()),
                  TablePrinter::Num(ms1, 1), TablePrinter::Num(ms2, 1),
                  TablePrinter::Num(ms2 / (ms1 > 0 ? ms1 : 1), 1) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nBoth modes produced identical PMC sets on every graph "
               "(also enforced by the test suite).\n";
  return 0;
}
