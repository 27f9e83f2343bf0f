// The `mintri rank` benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//   perfbench --selftest
//
// Each run generates its inputs from --seed and repeats a fixed amount of
// work (k results of `mintri rank --tier=auto --threads=1` per input),
// cycling through the inputs at least kMinRounds times and then for as long
// as the next repetition should end within --seconds. Each metric is the
// mean over the inputs of its median over that input's repetitions. The
// last line of standard output is one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "cli_run.h"
#include "generators.h"
#include "graph/bitset_kernels.h"
#include "probe.h"
#include "selftest.h"
#include "stats.h"
#include "trace.h"
#include "traced_run.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// A workload's inputs are `inputs` graphs with the fixed shape seeds
// 1..inputs, so that every run does identical work; the run's --seed picks
// each input's text seed (the order of its edge lines).
//
// `calibrated` workloads report their times at the reference host speed
// (see probe.h). Their repetitions take 1-2 s, so the two probes around a
// repetition see the same host speed it did: calibration cut the run-to-run
// spread of wall_s from 0.13 to 0.05 (huge-atoms) and from 0.10 to 0.03
// (rank-deep). init-pmc's repetitions take ~9 s, longer than the host's
// speed swings, and its 100 MB working set reacts to them differently
// from the probe: in three of four test sets calibrating it raised its
// spread (e.g. delay_p50_ms from 0.15 to 0.21), so it reports raw times.
struct Workload {
  const char* name;
  long long k;       // results per repetition
  int inputs;        // graphs per run
  const char* tier;  // the tier label every repetition must report
  bool calibrated;
  std::function<Instance(uint64_t shape_seed, uint64_t text_seed)> generate;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"rank-deep", 1000, 4, "exact", true,
       [](uint64_t s, uint64_t t) { return RelabeledGrid(5, 5, s, t); }},
      {"init-pmc", 101, 1, "exact", false,
       [](uint64_t s, uint64_t t) { return RelabeledGrid(6, 6, s, t); }},
      {"huge-atoms", 201, 4, "atom-exact", true,
       [](uint64_t s, uint64_t t) { return AtomChain(30, 55, s, t); }},
  };
  return workloads;
}

constexpr int kMinRounds = 2;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// Metrics in report order: name, value, unit.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void PrintTable() const {
    for (const Row& r : rows_) {
      std::printf("  %-36s %14.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }
  std::string Json() const {
    std::string s = "{";
    char buf[160];
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

void PrintResultLine(bool correct, long long attempted, long long failed,
                     const Metrics& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.Json() << "}" << std::endl;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintProvenance(const Workload& w, uint64_t seed) {
  std::cout << "build: type=" << PERFBENCH_BUILD_TYPE
            << " compiler=" << PERFBENCH_COMPILER << "\n"
            << "host: cpu=\"" << CpuModel()
            << "\" nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " kernel_path=" << mintri::bitset::ActiveKernelPath() << "\n"
            << "workload: " << w.name << " seed=" << seed << " k=" << w.k
            << " inputs=" << w.inputs << " tier=" << w.tier
            << " calibrated=" << (w.calibrated ? "yes" : "no") << "\n";
}

// Per-input correctness state shared by every repetition on that input.
struct InputCheck {
  bool checked = false;
  Verdict verdict;
  uint64_t checksum = 0;
};

// Runs the checker on the first repetition of an input and compares every
// later one's checksum with it. Returns the verified result count (0 for a
// repetition that disagrees) and sets *error on a violation.
long long Verify(const Instance& inst, long long k,
                 const std::vector<Result>& results, InputCheck* check,
                 std::string* error) {
  const uint64_t sum = StreamChecksum(inst.n, inst.edges, results);
  if (!check->checked) {
    check->checked = true;
    check->checksum = sum;
    check->verdict = CheckStream(inst.n, inst.edges, results, k,
                                 inst.treewidth);
  } else if (sum != check->checksum) {
    *error = "checksum differs from the input's first repetition";
    return 0;
  }
  if (!check->verdict.ok()) *error = check->verdict.error;
  return check->verdict.verified;
}

// The end-to-end metrics measured on every repetition, with their units, in
// report order. peak_rss_mb (first repetition only) and ok_ratio (results,
// not repetitions) follow them.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},         {"first_result_s", "s"},
    {"results_per_s", "1/s"}, {"wall_s", "s"},
    {"delay_p50_ms", "ms"},   {"delay_p90_ms", "ms"},
};

// Repetition loop shared by both modes: cycles through the inputs, at
// least `min_rounds` times each, and then for as long as another repetition
// is expected to end within `seconds` of the start.
template <typename Fn>
int RepeatOverInputs(size_t num_inputs, int min_rounds, double seconds,
                     Fn&& repetition) {
  const Clock::time_point start = Clock::now();
  double longest = 0;
  int count = 0;
  for (;; ++count) {
    const size_t i = count % num_inputs;
    if (count >= min_rounds * static_cast<int>(num_inputs) &&
        Seconds(start) + longest > seconds) {
      break;
    }
    const Clock::time_point rep_start = Clock::now();
    repetition(i);
    longest = std::max(longest, Seconds(rep_start));
  }
  return count;
}

// Runs the end-to-end measurement (--trace 0). Each repetition is bracketed
// by the host-speed probe; a calibrated workload's times are reported at the
// reference host speed (see probe.h). Each metric is the mean over the
// inputs of its median over that input's repetitions.
int RunEndToEnd(const Workload& w, const std::vector<Instance>& inputs,
                double seconds) {
  // samples[input][metric]: one value per repetition, kEndToEnd order.
  std::vector<std::vector<std::vector<double>>> samples(
      inputs.size(), std::vector<std::vector<double>>(kEndToEnd.size()));
  std::vector<InputCheck> checks(inputs.size());
  long long failed = 0, verified = 0;
  int gap_samples = 0, beyond_p90 = 0;
  double peak_rss_mb = 0;
  std::vector<double> probes;
  CliStats stats;

  const int attempted = RepeatOverInputs(
      inputs.size(), kMinRounds, seconds, [&](size_t i) {
        const double probe_before = TimeProbe();
        const CliRun run = RunRank(inputs[i].text, w.k);
        const double probe_after = TimeProbe();
        std::string error;
        std::vector<Result> results;
        if (probe_before < 0 || probe_after < 0) {
          error = "the host-speed probe failed";
        } else if (run.exit_code != 0) {
          error = "exit code " + std::to_string(run.exit_code) + ": " +
                  run.err;
        } else if (!run.stats_ok) {
          error = "missing --stats lines: " + run.err;
        } else if (run.stats.tier != w.tier) {
          error = "tier " + run.stats.tier + ", expected " + w.tier;
        } else if (run.stats.ms_terminated != 0 ||
                   run.stats.pmc_terminated != 0) {
          error = "a stage terminated on its budget";
        } else if (static_cast<long long>(run.result_s.size()) != w.k) {
          error = std::to_string(run.result_s.size()) + " result lines";
        } else if (ParseTdResults(run.out, &results, &error)) {
          for (const Result& r : results) {
            if (r.tier != w.tier) error = "a result line has tier " + r.tier;
          }
          if (error.empty()) {
            verified += Verify(inputs[i], w.k, results, &checks[i], &error);
          }
        }
        if (!error.empty()) {
          ++failed;
          std::cout << "FAILED repetition on input " << i << ": " << error
                    << "\n";
          return;
        }
        stats = run.stats;
        std::vector<double> gaps;
        for (size_t r = 1; r < run.result_s.size(); ++r) {
          gaps.push_back((run.result_s[r] - run.result_s[r - 1]) * 1e3);
        }
        const double t1 = run.result_s.front(), tk = run.result_s.back();
        const double p90 = Percentile(gaps, 90);
        const double probe = (probe_before + probe_after) / 2;
        const double scale = w.calibrated ? kProbeReferenceSeconds / probe : 1;
        const double values[] = {
            run.setup_s * scale,          t1 * scale,
            (w.k - 1) / (tk - t1) / scale, tk * scale,
            Percentile(gaps, 50) * scale, p90 * scale};
        probes.push_back(probe);
        std::printf("input %zu: raw wall %.4f s, probe %.4f s;", i, tk, probe);
        for (size_t j = 0; j < kEndToEnd.size(); ++j) {
          samples[i][j].push_back(values[j]);
          std::printf(" %s=%.4f", kEndToEnd[j].first, values[j]);
        }
        std::printf("\n");
        std::fflush(stdout);
        gap_samples = static_cast<int>(gaps.size());
        beyond_p90 = CountAbove(gaps, p90);
        if (peak_rss_mb == 0) peak_rss_mb = run.process_peak_rss_mb;
      });

  std::cout << "graph: n=" << stats.n << " m=" << stats.m
            << " atoms=" << stats.atoms
            << " reduced_vertices=" << stats.reduced_vertices
            << " minseps=" << stats.minseps << " pmcs=" << stats.pmcs << "\n"
            << "repetitions: " << attempted << ", failed " << failed
            << "; delay samples per repetition " << gap_samples << ", "
            << beyond_p90 << " beyond p90\n"
            << "host-speed probe: median " << Median(probes)
            << " s, reference " << kProbeReferenceSeconds << " s; times "
            << (w.calibrated ? "calibrated to the reference" : "raw") << "\n";
  for (size_t i = 0; i < checks.size(); ++i) {
    std::cout << "input " << i << ": checksum " << std::hex
              << checks[i].checksum << std::dec << " verified "
              << checks[i].verdict.verified << "/" << w.k << "\n";
  }

  Metrics m;
  for (size_t j = 0; j < kEndToEnd.size(); ++j) {
    double sum = 0;
    int measured = 0;
    for (const auto& per_input : samples) {
      if (per_input[j].empty()) continue;
      sum += Median(per_input[j]);
      ++measured;
    }
    if (measured > 0) {
      m.Add(kEndToEnd[j].first, sum / measured, kEndToEnd[j].second);
    }
  }
  if (peak_rss_mb > 0) m.Add("peak_rss_mb", peak_rss_mb, "MB");
  const long long requested = attempted * w.k;
  m.Add("ok_ratio", static_cast<double>(verified) / requested, "ratio");
  PrintResultLine(failed == 0 && verified == requested, attempted, failed, m);
  return 0;
}

// Runs the traced per-layer measurement (--trace 1).
int RunTraced(const Workload& w, const std::vector<Instance>& inputs,
              double seconds, const std::string& trace_out) {
  Tracer tracer(true);
  std::vector<LayerRep> reps;
  std::vector<double> untraced;
  std::vector<InputCheck> checks(inputs.size());
  long long failed = 0;

  const int attempted = RepeatOverInputs(
      inputs.size(), 1, seconds, [&](size_t i) {
        LayerRep rep = RunLayers(inputs[i].text, w.k, &tracer);
        const double plain = UntracedTieredWall(inputs[i].text, w.k);
        std::string error = rep.error;
        if (error.empty() && plain < 0) error = "untraced tiered pass failed";
        if (error.empty()) {
          Verify(inputs[i], w.k, rep.results, &checks[i], &error);
        }
        if (!error.empty()) {
          ++failed;
          std::cout << "FAILED traced repetition on input " << i << ": "
                    << error << "\n";
          return;
        }
        untraced.push_back(plain);
        reps.push_back(std::move(rep));
      });

  Metrics m;
  if (!reps.empty()) {
    // Times: median over repetitions, or a percentile of the samples pooled
    // over repetitions. Counts: the mean over the first repetition of each
    // input, so they repeat exactly from run to run.
    auto med = [&](double LayerRep::*field) {
      std::vector<double> v;
      for (const LayerRep& r : reps) v.push_back(r.*field);
      return Median(v);
    };
    auto pooled = [&](std::vector<double> LayerRep::*field, double p) {
      std::vector<double> v;
      for (const LayerRep& r : reps) {
        v.insert(v.end(), (r.*field).begin(), (r.*field).end());
      }
      return Percentile(v, p);
    };
    const size_t first_round = std::min(reps.size(), inputs.size());
    auto count = [&](long long LayerRep::*field) {
      double sum = 0;
      for (size_t i = 0; i < first_round; ++i) sum += reps[i].*field;
      return sum / first_round;
    };
    const double tiered_p50 = pooled(&LayerRep::tiered_next_ms, 50);
    const double clique_p50 = pooled(&LayerRep::clique_tree_ms, 50);
    const double traced_wall = med(&LayerRep::traced_wall_s);
    m.Add("graph.parse_s", med(&LayerRep::parse_s), "s");
    m.Add("preprocess.s", med(&LayerRep::preprocess_s), "s");
    m.Add("preprocess.atoms", count(&LayerRep::atoms), "count");
    m.Add("preprocess.reduced_vertices", count(&LayerRep::reduced_vertices),
          "count");
    m.Add("separators.s", med(&LayerRep::separators_s), "s");
    m.Add("separators.count", count(&LayerRep::separators_count), "count");
    m.Add("pmc.s", med(&LayerRep::pmc_s), "s");
    m.Add("pmc.count", count(&LayerRep::pmc_count), "count");
    m.Add("pmc.setup_share",
          med(&LayerRep::pmc_s) / med(&LayerRep::tiered_init_s), "ratio");
    m.Add("context.s", med(&LayerRep::context_s), "s");
    m.Add("context.blocks", count(&LayerRep::context_blocks), "count");
    m.Add("ranked.next_ms_p50", pooled(&LayerRep::ranked_next_ms, 50), "ms");
    m.Add("ranked.next_ms_p90", pooled(&LayerRep::ranked_next_ms, 90), "ms");
    m.Add("ranked.optimizer_calls_per_result",
          count(&LayerRep::optimizer_calls) / count(&LayerRep::ranked_results),
          "count");
    m.Add("ranked.candidate_evals_per_call",
          count(&LayerRep::candidate_evals) / count(&LayerRep::optimizer_calls),
          "count");
    m.Add("ranked.combine_share",
          count(&LayerRep::combine_calls) / count(&LayerRep::candidate_evals),
          "ratio");
    m.Add("tiered.init_s", med(&LayerRep::tiered_init_s), "s");
    m.Add("tiered.next_ms_p50", tiered_p50, "ms");
    m.Add("tiered.units", count(&LayerRep::tiered_units), "count");
    m.Add("chordal.clique_tree_ms_p50", clique_p50, "ms");
    m.Add("chordal.delay_share", clique_p50 / tiered_p50, "ratio");
    m.Add("cost.evaluate_ms_p50", pooled(&LayerRep::evaluate_ms, 50), "ms");
    m.Add("trace.overhead_s", traced_wall - Median(untraced), "s");
    m.PrintTable();
    std::cout << "tiered pass wall: traced " << traced_wall << " s, untraced "
              << Median(untraced) << " s; " << tracer.num_spans()
              << " spans\n";
  }
  if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
    std::cout << "could not write " << trace_out << "\n";
  }
  PrintResultLine(failed == 0 && !reps.empty(), attempted, failed, m);
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      std::cerr << "unexpected argument: " << key << "\n";
      return 2;
    }
  }
  if (args.count("--selftest")) return RunSelfTest(std::cout) ? 0 : 1;

  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args["--workload"] == w.name) workload = &w;
  }
  if (workload == nullptr || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    std::cerr << "usage: perfbench --workload <rank-deep|init-pmc|"
                 "huge-atoms> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] | --selftest\n";
    return 2;
  }
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["--seconds"].c_str());
  const bool trace = args["--trace"] == "1";

  PrintProvenance(*workload, seed);
  std::vector<Instance> inputs;
  for (int i = 0; i < workload->inputs; ++i) {
    inputs.push_back(workload->generate(i + 1, TextSeed(seed, i)));
  }
  return trace ? RunTraced(*workload, inputs, seconds, args["--trace-out"])
               : RunEndToEnd(*workload, inputs, seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
