#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mintri {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult Invoke(const std::vector<std::string>& args, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out, err;
  int code = RunCli(args, in, out, err);
  return {code, out.str(), err.str()};
}

constexpr char kC4[] =
    "p tw 4 4\n"
    "1 2\n2 3\n3 4\n4 1\n";

TEST(CliTest, RankedSummaryOnC4) {
  CliResult r = Invoke({"--cost=fill", "--top=10"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  // C4 has exactly two minimal triangulations, both fill 1.
  EXPECT_NE(r.out.find("#1 cost=1 width=2 fill=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("#2 cost=1 width=2 fill=1"), std::string::npos);
  EXPECT_EQ(r.out.find("#3"), std::string::npos);
}

TEST(CliTest, TdFormatIsWellFormed) {
  CliResult r = Invoke({"--format=td", "--top=1"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("s td 2 3 4\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("b 1 "), std::string::npos);
  EXPECT_NE(r.out.find("b 2 "), std::string::npos);
}

// Counts the tree-edge lines ("<i> <j>") of a --format=td output.
int TdEdgeLines(const std::string& out) {
  std::istringstream lines(out);
  int edges = 0;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] >= '0' && line[0] <= '9') ++edges;
  }
  return edges;
}

TEST(CliTest, TdOutputIsOneTreeOnDisconnectedInputs) {
  // C4 plus a triangle, and three isolated vertices: b bags need b - 1
  // edges in a PACE .td, whether the components were ranked directly or
  // reduced by Tier 0.
  const std::string kDisconnected =
      "p tw 7 7\n1 2\n2 3\n3 4\n4 1\n5 6\n6 7\n7 5\n";
  const std::string kIsolated = "p tw 3 0\n";
  for (const char* tier : {"--tier=exact", "--tier=auto"}) {
    CliResult d = Invoke({"rank", tier, "--format=td", "--top=1"},
                         kDisconnected);
    EXPECT_EQ(d.code, 0) << d.err;
    EXPECT_NE(d.out.find("s td 3 3 7\n"), std::string::npos) << d.out;
    EXPECT_EQ(TdEdgeLines(d.out), 2) << tier << "\n" << d.out;
    CliResult i =
        Invoke({"rank", tier, "--format=td", "--top=1"}, kIsolated);
    EXPECT_EQ(i.code, 0) << i.err;
    EXPECT_NE(i.out.find("s td 3 1 3\n"), std::string::npos) << i.out;
    EXPECT_EQ(TdEdgeLines(i.out), 2) << tier << "\n" << i.out;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// `mintri rank` output pinned byte for byte: tests/data/golden/
// <input>.<cost>.<format> holds `rank --cost=<cost> --format=<format>
// --top=30 <input>.gr`. The inputs cover an atom chain with pendants (glued
// atoms and lift bags), a disconnected graph (one tree per component, joined
// in the .td), a chordal graph (every vertex reduced away, no unit left) and
// 10000 isolated vertices.
TEST(CliTest, RankOutputMatchesGoldenFiles) {
  const std::string data = MINTRI_TEST_DATA_DIR;
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"atom_chain", {"width", "fill"}},
       {"disconnected", {"width", "fill"}},
       {"chordal", {"width", "fill"}},
       {"edgeless_10000", {"width"}}};
  for (const auto& [input, costs] : cases) {
    for (const std::string& cost : costs) {
      for (const std::string format : {"td", "summary"}) {
        const std::string name = input + "." + cost + "." + format;
        CliResult r = Invoke({"rank", "--cost=" + cost, "--format=" + format,
                              "--top=30", data + "/" + input + ".gr"},
                             "");
        EXPECT_EQ(r.code, 0) << name << ": " << r.err;
        EXPECT_TRUE(r.out == ReadFile(data + "/golden/" + name))
            << name << " differs from its golden file; got:\n"
            << r.out.substr(0, 2000);
      }
    }
  }
}

TEST(CliTest, RejectsHeaderOtherThanPtw) {
  for (const char* input : {"p foo 3 1\n1 2\n", "p hg 3 1\n1 2\n"}) {
    CliResult r = Invoke({"rank", "--top=1"}, input);
    EXPECT_EQ(r.code, 1) << input;
    EXPECT_NE(r.err.find("malformed DIMACS/PACE .gr input"),
              std::string::npos)
        << r.err;
  }
}

TEST(CliTest, CkkBaseline) {
  CliResult r = Invoke({"--algo=ckk", "--top=10"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#2"), std::string::npos);
  EXPECT_EQ(r.out.find("#3"), std::string::npos);
}

TEST(CliTest, BoundedWidth) {
  // Width bound 1 on C4: infeasible, no output rows but exit 0.
  CliResult r = Invoke({"--bound=1"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("#1"), std::string::npos);
}

TEST(CliTest, DisconnectedGraphWorksWithRanked) {
  CliResult r = Invoke({"--cost=fill", "--top=5"},
                    "p tw 8 8\n1 2\n2 3\n3 4\n4 1\n5 6\n6 7\n7 8\n8 5\n");
  EXPECT_EQ(r.code, 0) << r.err;
  // Two C4s: 2x2 = 4 minimal triangulations, total fill 2 each.
  EXPECT_NE(r.out.find("#4 cost=2"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("#5"), std::string::npos);
}

TEST(CliTest, HelpPrintsUsageAndExitsZero) {
  CliResult r = Invoke({"--help"}, "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("usage: mintri"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("--cost="), std::string::npos);
  EXPECT_EQ(Invoke({"-h"}, "").code, 0);
}

TEST(CliTest, ErrorsAreReported) {
  EXPECT_EQ(Invoke({"--cost=bogus"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--algo=bogus"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--fancy"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--top=1O"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--bound="}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--time-limit=3O"}, kC4).code, 1);
  EXPECT_EQ(Invoke({}, "not a graph").code, 1);
  EXPECT_EQ(Invoke({"nonexistent_file.gr"}, "").code, 1);
}

TEST(CliTest, NumericFlagOverflowIsRejected) {
  // strtoll saturates to LLONG_MAX on overflow without an errno check —
  // these used to parse "successfully". Worse, --bound=2^32+1 silently
  // truncated to bound=1 through the long long → int narrowing.
  EXPECT_EQ(Invoke({"--top=99999999999999999999"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--bound=4294967297"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--bound=99999999999999999999"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--time-limit=1e999"}, kC4).code, 1);
  CliResult bad = Invoke({"--top=99999999999999999999"}, kC4);
  EXPECT_NE(bad.err.find("invalid value for --top"), std::string::npos)
      << bad.err;
}

// There is one repair engine, so no flag selects it: `mintri rank` and
// `mintri bench` reject an engine choice as an unknown option.
const std::string kSolverFlag = std::string("--") + "solver=";

TEST(CliTest, SolverFlagIsGoneAndStatsNameTheOneEngine) {
  for (const char* engine : {"indexed", "scan"}) {
    const std::string flag = kSolverFlag + engine;
    CliResult r = Invoke({"--cost=fill", "--top=10", flag}, kC4);
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_NE(r.err.find("unknown option: " + flag), std::string::npos)
        << r.err;
  }

  // --stats reports the solver's counters, including the segment-tree
  // activity every repair goes through, and the result count, so calls per
  // result read straight off the line.
  CliResult stats = Invoke({"--cost=fill", "--top=10", "--stats"}, kC4);
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.err.find("\nsolver: optimizer_calls="), std::string::npos)
      << stats.err;
  // ... and how many results those calls paid for (C4 has two).
  EXPECT_NE(stats.err.find(" results=2\n"), std::string::npos) << stats.err;
  EXPECT_EQ(stats.err.find("solver["), std::string::npos) << stats.err;
  EXPECT_EQ(stats.err.find("index_updates=0 range_queries=0"),
            std::string::npos)
      << stats.err;
  // The init line ends with the PMC stage's IsPmc test count.
  EXPECT_NE(stats.err.find(" pmc_tests="), std::string::npos) << stats.err;
  EXPECT_LT(stats.err.find(" threads="), stats.err.find(" pmc_tests="))
      << stats.err;
}

TEST(CliTest, ThreadsFlagValidation) {
  // 0, negative, garbage, empty, and absurd counts are all rejected up
  // front — including values whose low 32 bits would truncate to a small
  // "valid" int.
  EXPECT_EQ(Invoke({"--threads=0"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=-2"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=two"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=2x"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads="}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=500000"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=4294967297"}, kC4).code, 1);
  CliResult bad = Invoke({"--threads=0"}, kC4);
  EXPECT_NE(bad.err.find("invalid value for --threads"), std::string::npos)
      << bad.err;

  // A valid thread count runs the normal pipeline to the same answer.
  CliResult r = Invoke({"--threads=2", "--cost=fill", "--top=10"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#1 cost=1 width=2 fill=1"), std::string::npos)
      << r.out;
  EXPECT_EQ(r.out.find("#3"), std::string::npos);
}

TEST(CliTest, BenchThreadsFlag) {
  EXPECT_EQ(Invoke({"bench", "--threads=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--threads=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--threads=garbage"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--threads=1000000"}, "").code, 1);

  // --threads=2 pins every entry of the report to two threads.
  CliResult r = Invoke(
      {"bench", "minseps", "--smoke", "--quiet", "--threads=2", "--out=-"},
      "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"threads\": 2"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("\"threads\": 1"), std::string::npos) << r.out;
}

TEST(CliTest, StateSpaceCost) {
  CliResult r = Invoke({"--cost=state-space", "--top=1"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  // Two bags of 3 binary variables: 8 + 8 = 16.
  EXPECT_NE(r.out.find("cost=16"), std::string::npos) << r.out;
}

TEST(CliTest, BenchHelpAndArgumentValidation) {
  CliResult help = Invoke({"bench", "--help"}, "");
  EXPECT_EQ(help.code, 0) << help.err;
  EXPECT_NE(help.out.find("usage: mintri bench"), std::string::npos)
      << help.out;
  EXPECT_NE(help.out.find("BENCH_core.json"), std::string::npos);

  EXPECT_EQ(Invoke({"bench", "bogus-suite"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--bogus-flag"}, "").code, 1);
}

TEST(CliTest, RankSubcommandIsTheBareAliasSpelled) {
  CliResult bare = Invoke({"--cost=fill", "--top=10"}, kC4);
  CliResult rank = Invoke({"rank", "--cost=fill", "--top=10"}, kC4);
  EXPECT_EQ(rank.code, 0) << rank.err;
  EXPECT_EQ(rank.out, bare.out);
}

TEST(CliTest, FhwOnTpchHypergraphBuiltin) {
  // TPC-H Q5's join cycle: the cheapest decomposition has fhw 2.
  CliResult r = Invoke({"rank", "--cost=fhw", "--top=1", "tpch:5"}, "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#1 cost=2"), std::string::npos) << r.out;
  // The acyclic Q3 chain has fhw 1.
  CliResult acyclic =
      Invoke({"rank", "--cost=fhw", "--top=1", "tpch:3"}, "");
  EXPECT_EQ(acyclic.code, 0) << acyclic.err;
  EXPECT_NE(acyclic.out.find("#1 cost=1"), std::string::npos) << acyclic.out;
}

TEST(CliTest, HypertreeCostRequiresHypergraphInstance) {
  CliResult r = Invoke({"--cost=hypertree"}, kC4);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("hypergraph"), std::string::npos) << r.err;
  EXPECT_EQ(Invoke({"--cost=fhw"}, kC4).code, 1);
}

TEST(CliTest, HypergraphOnStdin) {
  // The triangle query as a .hg stream: ghw 2, fhw 1.5.
  const char* kTriangle = "p hg 3 3\n1 2\n2 3\n3 1\n";
  CliResult ghw =
      Invoke({"--input=hg", "--cost=hypertree", "--top=1"}, kTriangle);
  EXPECT_EQ(ghw.code, 0) << ghw.err;
  EXPECT_NE(ghw.out.find("#1 cost=2"), std::string::npos) << ghw.out;
  CliResult fhw = Invoke({"--input=hg", "--cost=fhw", "--top=1"}, kTriangle);
  EXPECT_EQ(fhw.code, 0) << fhw.err;
  EXPECT_NE(fhw.out.find("#1 cost=1.5"), std::string::npos) << fhw.out;
  EXPECT_EQ(Invoke({"--input=hg"}, "not a hypergraph").code, 1);
  EXPECT_EQ(Invoke({"--input=bogus"}, kTriangle).code, 1);
}

TEST(CliTest, UaiModelOnStdin) {
  // Two binary variables, one pairwise factor: a single 2-variable bag,
  // state space 4.
  const char* kModel =
      "MARKOV\n2\n2 2\n1\n2 0 1\n4 1 2 3 4\n";
  CliResult r =
      Invoke({"--input=uai", "--cost=state-space", "--top=1"}, kModel);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#1 cost=4"), std::string::npos) << r.out;
}

TEST(CliTest, StatsReportCacheHitRate) {
  CliResult r =
      Invoke({"rank", "--cost=fhw", "--top=5", "--stats", "tpch:5"}, "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("bag-score cache: lookups="), std::string::npos)
      << r.err;
  // --no-cache suppresses the cache (and so its stats line).
  CliResult off = Invoke(
      {"rank", "--cost=fhw", "--top=5", "--stats", "--no-cache", "tpch:5"},
      "");
  EXPECT_EQ(off.code, 0) << off.err;
  EXPECT_EQ(off.err.find("bag-score cache"), std::string::npos) << off.err;
  EXPECT_EQ(off.out, r.out);
}

TEST(CliTest, BatchCommand) {
  CliResult help = Invoke({"batch", "--help"}, "");
  EXPECT_EQ(help.code, 0) << help.err;
  EXPECT_NE(help.out.find("usage: mintri batch"), std::string::npos);

  EXPECT_EQ(Invoke({"batch"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "no-such-list.txt"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--threads=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--inner-threads=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--top=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--top=-3"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--bogus"}, "").code, 1);
  // The batch parser is the same strict one as rank/bench: overflow and
  // trailing garbage are rejected, not silently accepted (the old
  // istringstream parser and cli.cc's unchecked strtoll disagreed on both).
  EXPECT_EQ(Invoke({"batch", "x.txt", "--top=99999999999999999999"}, "").code,
            1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--threads=8abc"}, "").code, 1);
  EXPECT_EQ(
      Invoke({"batch", "x.txt", "--inner-threads=99999999999999999999"}, "")
          .code,
      1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=1e999"}, "").code, 1);
}

TEST(CliTest, BatchShardingFlags) {
  CliResult help = Invoke({"batch", "--help"}, "");
  EXPECT_NE(help.out.find("--workers="), std::string::npos) << help.out;
  EXPECT_NE(help.out.find("--deadline="), std::string::npos) << help.out;
  EXPECT_NE(help.out.find("--stats"), std::string::npos) << help.out;

  // --workers rides the same strict parser as --threads: zero, negatives,
  // overflow, and trailing garbage are all rejected up front.
  EXPECT_EQ(Invoke({"batch", "x.txt", "--workers=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--workers=-2"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--workers=8abc"}, "").code, 1);
  EXPECT_EQ(
      Invoke({"batch", "x.txt", "--workers=99999999999999999999"}, "").code,
      1);
  // A deadline of zero (or less) would kill every worker instantly; the
  // flag requires a positive budget.
  EXPECT_EQ(Invoke({"batch", "x.txt", "--deadline=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--deadline=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--deadline=2s"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--worker-binary="}, "").code, 1);
}

TEST(CliTest, BenchSmokeEmitsSchemaShapedJson) {
  // The smallest real run: one suite, smoke-trimmed families, JSON on
  // stdout. Spot-checks the schema keys the validator enforces.
  CliResult r = Invoke({"bench", "minseps", "--smoke", "--quiet", "--out=-"},
                       "");
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* key :
       {"\"schema_version\": 2", "\"git_sha\"", "\"time_scale\"",
        "\"smoke\": true", "\"suites\": [\"minseps\"]", "\"entries\"",
        "\"results_per_sec\"", "\"wall_ms\"", "\"status\"",
        "\"threads\": 1", "\"candidate_evals\"",
        "\"index_updates\"", "\"range_queries\"", "\"best_cost\"",
        "\"best_count\""}) {
    EXPECT_NE(r.out.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(CliTest, BenchRankedRunsEachPointOnce) {
  CliResult flag = Invoke({"bench", kSolverFlag + "scan"}, "");
  EXPECT_EQ(flag.code, 1);
  EXPECT_NE(flag.err.find("unknown option: " + kSolverFlag + "scan"),
            std::string::npos)
      << flag.err;

  // One entry per (threads, graph, cost) point, with no per-engine label.
  CliResult r = Invoke(
      {"bench", "ranked", "--smoke", "--quiet", "--threads=1", "--out=-"},
      "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"suite\": \"ranked\""), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("\"solver\""), std::string::npos) << r.out;
}

// The fields of each report entry that a smoke run must reproduce exactly,
// one line per entry.
std::vector<std::string> RepeatableFields(const std::string& json) {
  std::vector<std::string> rows;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("{\"suite\": ") == std::string::npos) continue;
    std::string row;
    for (const char* key : {"\"suite\"", "\"graph\"", "\"threads\"",
                            "\"cost\"", "\"count\"", "\"status\"",
                            "\"best_cost\"", "\"best_count\""}) {
      const size_t at = line.find(key);
      if (at == std::string::npos) {
        row += std::string(key) + " missing; ";
        continue;
      }
      row += line.substr(at, line.find_first_of(",}", at) - at) + "; ";
    }
    rows.push_back(row);
  }
  return rows;
}

// Smoke runs are fixed work: every entry stops at the stream's end or at a
// result cap, never at the clock, so two runs agree entry by entry. The
// budgets are widened so that a loaded test host cannot reach them either.
TEST(CliTest, BenchSmokeCountsRepeat) {
  ASSERT_EQ(setenv("MINTRI_TIME_SCALE", "4", /*overwrite=*/1), 0);
  const std::vector<std::string> args = {
      "bench", "ranked", "ckk", "--smoke", "--quiet", "--threads=1", "--out=-"};
  CliResult first = Invoke(args, "");
  CliResult second = Invoke(args, "");
  unsetenv("MINTRI_TIME_SCALE");
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(second.code, 0) << second.err;
  const std::vector<std::string> a = RepeatableFields(first.out);
  const std::vector<std::string> b = RepeatableFields(second.out);
  ASSERT_FALSE(a.empty()) << first.out;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(a[i].find("missing"), std::string::npos) << a[i];
  }
  // Both suites rank every smoke graph under both costs.
  for (const char* point :
       {"\"suite\": \"ranked\"; \"graph\": \"grid4x5\"; \"threads\": 1; "
        "\"cost\": \"width\"",
        "\"suite\": \"ckk\"; \"graph\": \"grid4x5\"; \"threads\": 1; "
        "\"cost\": \"fill\""}) {
    bool found = false;
    for (const std::string& row : a) found |= row.rfind(point, 0) == 0;
    EXPECT_TRUE(found) << "no entry " << point;
  }
}

}  // namespace
}  // namespace mintri
