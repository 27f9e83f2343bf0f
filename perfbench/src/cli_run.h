#ifndef PERFBENCH_CLI_RUN_H_
#define PERFBENCH_CLI_RUN_H_

#include <string>
#include <vector>

namespace perfbench {

/// What the `--stats` lines on the error stream report.
struct CliStats {
  std::string tier;  // exact | atom-exact | heuristic
  long long atoms = -1;
  long long reduced_vertices = -1;
  long long ms_terminated = -1;
  long long pmc_terminated = -1;
  long long n = -1;
  long long m = -1;
  long long minseps = -1;
  long long pmcs = -1;
};

/// One end-to-end `mintri rank` run through the public RunCli, with the
/// graph on its input stream. Every result header line and every line of
/// the error stream is timestamped as it is written.
struct CliRun {
  int exit_code = -1;
  std::string out;  // the td result stream
  std::string err;
  CliStats stats;
  bool stats_ok = false;       // every --stats line was found and parsed
  double setup_s = 0;          // start until the "graph:" stats line
  std::vector<double> result_s;  // start until each result header line
  // Peak resident memory of the process so far (ru_maxrss). After the
  // process's first run it is that run's peak; later runs reuse heap that
  // earlier ones freed, so only the first is a fresh process's footprint.
  double process_peak_rss_mb = 0;
};

/// Runs `mintri rank --cost=width --tier=auto --threads=1 --format=td
/// --stats --top=<k>` on `graph_text`.
CliRun RunRank(const std::string& graph_text, long long k);

}  // namespace perfbench

#endif  // PERFBENCH_CLI_RUN_H_
