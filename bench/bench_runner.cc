// The benchmark-to-JSON runner: executes the named suites (minseps, pmc,
// enum, ranked, appcost, huge) and emits BENCH_core.json, the repo's
// tracked perf artifact (uploaded by the CI bench-smoke job).
//
// This is a thin alias for `mintri bench`: both front ends share
// src/bench/bench_suites, so numbers and schema cannot drift apart.
//
//   bench_runner [suite...] [--smoke] [--out=FILE] [--quiet]

#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args = {"bench"};
  args.insert(args.end(), argv + 1, argv + argc);
  return mintri::RunCli(args, std::cin, std::cout, std::cerr);
}
