#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <ostream>

namespace perfbench {

/// Checks the benchmark's own machinery: the checker rejects a non-chordal
/// graph, a non-minimal triangulation, a duplicate result and an
/// out-of-order κ (and accepts a valid stream), and every generator is
/// byte-identical for a fixed seed. Prints each failure; returns true when
/// all pass.
bool RunSelfTest(std::ostream& log);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
