#ifndef MINTRI_BENCH_BENCH_UTIL_H_
#define MINTRI_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_suites.h"
#include "cost/standard_costs.h"
#include "enumeration/ckk.h"
#include "enumeration/ranked_enum.h"
#include "triang/context.h"
#include "util/timer.h"

namespace mintri {
namespace bench {

// TimeScale()/MinSepBudget()/PmcBudget()/EnumBudget() and the
// kMaxSeparators/kMaxResults caps now live in src/bench/bench_suites.h
// (shared with the bench_runner/`mintri bench` JSON pipeline) and are
// re-exported here via the include above.

/// One time-budgeted enumeration run (either algorithm), in the shape the
/// paper's Table 2 needs: per-result timestamps, widths and fill-ins.
struct EnumRun {
  bool init_ok = false;     // context build finished within budget (always
                            // true for CKK, which has no init)
  double init_seconds = 0;  // RankedTriang initialization time
  bool finished = false;    // the full enumeration completed within budget
  std::vector<double> result_seconds;  // time since run start, per result
  std::vector<int> widths;
  std::vector<long long> fills;

  long long count() const {
    return static_cast<long long>(result_seconds.size());
  }
  /// Average delay between results, counting initialization.
  double AvgDelay() const {
    return result_seconds.empty()
               ? 0.0
               : result_seconds.back() / static_cast<double>(
                                             result_seconds.size());
  }
  /// Average delay after initialization.
  double AvgDelayNoInit() const {
    if (result_seconds.empty()) return 0.0;
    return (result_seconds.back() - init_seconds) /
           static_cast<double>(result_seconds.size());
  }
  int MinWidth() const {
    int m = -1;
    for (int w : widths) m = (m < 0 || w < m) ? w : m;
    return m;
  }
  long long MinFill() const {
    long long m = -1;
    for (long long f : fills) m = (m < 0 || f < m) ? f : m;
    return m;
  }
  long long CountWidthAtMost(double bound) const {
    long long c = 0;
    for (int w : widths) c += (w <= bound) ? 1 : 0;
    return c;
  }
  long long CountFillAtMost(double bound) const {
    long long c = 0;
    for (long long f : fills) c += (f <= bound) ? 1 : 0;
    return c;
  }
};

/// Runs RankedTriang⟨cost⟩ for `budget` seconds (including initialization).
inline EnumRun RunRankedTriang(const Graph& g, const BagCost& cost,
                               double budget) {
  EnumRun run;
  WallTimer timer;
  ContextOptions options;
  options.separator_limits.time_limit_seconds = budget;
  options.separator_limits.max_results = kMaxSeparators;
  options.pmc_limits.time_limit_seconds = budget;
  auto ctx = TriangulationContext::Build(g, options);
  run.init_seconds = timer.Seconds();
  if (!ctx.has_value() || run.init_seconds >= budget) return run;
  run.init_ok = true;

  RankedTriangulationEnumerator e(*ctx, cost);
  while (timer.Seconds() < budget &&
         run.result_seconds.size() < kMaxResults) {
    auto t = e.Next();
    if (!t.has_value()) {
      run.finished = true;
      break;
    }
    run.result_seconds.push_back(timer.Seconds());
    run.widths.push_back(t->Width());
    run.fills.push_back(t->FillIn(g));
  }
  return run;
}

/// Runs the CKK baseline for `budget` seconds.
inline EnumRun RunCkk(const Graph& g, double budget) {
  EnumRun run;
  run.init_ok = true;  // CKK has no initialization step
  WallTimer timer;
  CkkEnumerator e(g);
  while (timer.Seconds() < budget &&
         run.result_seconds.size() < kMaxResults) {
    auto t = e.Next();
    if (!t.has_value()) {
      run.finished = true;
      break;
    }
    run.result_seconds.push_back(timer.Seconds());
    run.widths.push_back(t->Width());
    run.fills.push_back(t->FillIn(g));
  }
  return run;
}

}  // namespace bench
}  // namespace mintri

#endif  // MINTRI_BENCH_BENCH_UTIL_H_
