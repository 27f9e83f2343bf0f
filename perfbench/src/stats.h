#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
double Percentile(std::vector<double> values, double p);

/// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// Number of samples strictly above `threshold`.
int CountAbove(const std::vector<double>& values, double threshold);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
