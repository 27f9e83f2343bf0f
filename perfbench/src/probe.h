#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

namespace perfbench {

/// The host-speed probe. The benchmark shares its machine, and the speed of
/// the same repetition drifts by up to ±25% over tens of seconds, for
/// minutes at a time, as other tenants come and go. A run cannot average
/// that out. So every repetition is bracketed by this probe: a fixed amount
/// of work that lives in the benchmark, not in the measured program. It runs
/// the checker's chordality test on a fixed random 6-tree, allocating and
/// walking graphs much as the program does. It works in nine chunks and
/// scales the median chunk to the whole, so a stall in one chunk is ignored
/// but a change of host speed is not. For a calibrated workload, a
/// repetition's times are scaled by kProbeReferenceSeconds over the mean of
/// its two probes. That reports them at a fixed host speed: the probe's
/// typical speed on the machine the benchmark was calibrated on.
///
/// Returns the probe's seconds, or a negative value if the probe's graph is
/// not chordal, which means the checker is broken.
double TimeProbe();

/// The probe's typical time on the calibration machine: a 4-vCPU Intel Xeon
/// VM, GCC 12 Release build.
inline constexpr double kProbeReferenceSeconds = 0.036;

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
