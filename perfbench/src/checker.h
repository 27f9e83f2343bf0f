#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One ranked result as printed by `mintri rank --format=td`.
struct Result {
  long long rank = 0;
  double cost = 0;
  long long width = 0;
  long long fill = 0;
  std::string tier;
  std::vector<std::vector<int>> bags;  // 0-based vertex ids
};

/// Parses the td-format result stream. Returns false (with *error) on any
/// line it does not recognise.
bool ParseTdResults(const std::string& text, std::vector<Result>* results,
                    std::string* error);

/// The checker's verdict on a whole result stream.
struct Verdict {
  long long verified = 0;  // results that passed every per-result check
  std::string error;       // first violation; empty when the stream passed
  bool ok() const { return error.empty(); }
};

/// Checks a width-ranked result stream of the graph (n, edges) without using
/// the library's own chordality code. Per result: the bags cover every
/// edge, their union H is chordal (maximum cardinality search plus a
/// perfect-elimination-order check), H is a minimal triangulation (removing
/// any single fill edge breaks chordality), and the printed cost, width and
/// fill match H. Across the stream: fill sets are distinct, κ is
/// non-decreasing, there are exactly `expected_results` results, and the
/// first κ equals `treewidth`.
Verdict CheckStream(int n, const std::vector<std::pair<int, int>>& edges,
                    const std::vector<Result>& results,
                    long long expected_results, int treewidth);

/// True when the graph (n, edges) is chordal, by the checker's own test
/// (maximum cardinality search plus a perfect-elimination-order check).
bool IsChordalGraph(int n, const std::vector<std::pair<int, int>>& edges);

/// FNV-1a digest of the κ sequence and every result's fill-edge set: two
/// runs on one input must produce the same value.
uint64_t StreamChecksum(int n, const std::vector<std::pair<int, int>>& edges,
                        const std::vector<Result>& results);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
