#include "selftest.h"

#include <functional>
#include <string>
#include <vector>

#include "checker.h"
#include "generators.h"

namespace perfbench {

namespace {

Result MakeResult(long long rank, int width, int fill,
                  std::vector<std::vector<int>> bags) {
  Result r;
  r.rank = rank;
  r.cost = width;
  r.width = width;
  r.fill = fill;
  r.tier = "exact";
  r.bags = std::move(bags);
  return r;
}

// C4: 0-1-2-3-0.
const std::vector<std::pair<int, int>> kC4 = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
// K_{2,3}: {0,1} x {2,3,4}. Its minimal triangulations are the edge 0-1
// (width 2) and the saturated {2,3,4} (width 3).
const std::vector<std::pair<int, int>> kK23 = {{0, 2}, {0, 3}, {0, 4},
                                               {1, 2}, {1, 3}, {1, 4}};
const Result kK23Narrow =
    MakeResult(1, 2, 1, {{0, 1, 2}, {0, 1, 3}, {0, 1, 4}});
const Result kK23Wide = MakeResult(2, 3, 3, {{0, 2, 3, 4}, {1, 2, 3, 4}});

Result Renumbered(Result r, long long rank) {
  r.rank = rank;
  return r;
}

uint64_t Digest(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

bool RunSelfTest(std::ostream& log) {
  bool ok = true;
  auto expect = [&](bool condition, const std::string& what) {
    if (!condition) {
      log << "self-test FAILED: " << what << "\n";
      ok = false;
    }
  };
  auto rejects = [&](const std::vector<std::pair<int, int>>& edges, int n,
                     const std::vector<Result>& stream, long long k, int tw,
                     const std::string& what) {
    const Verdict v = CheckStream(n, edges, stream, k, tw);
    expect(!v.ok(), "checker accepts " + what);
  };

  // A valid stream passes.
  const Verdict valid = CheckStream(
      5, kK23, {kK23Narrow, kK23Wide}, 2, 2);
  expect(valid.ok() && valid.verified == 2,
         "checker rejects a valid stream: " + valid.error);

  rejects(kC4, 4, {MakeResult(1, 1, 0, {{0, 1}, {1, 2}, {2, 3}, {0, 3}})}, 1,
          1, "a non-chordal graph");
  rejects(kC4, 4, {MakeResult(1, 3, 2, {{0, 1, 2, 3}})}, 1, 3,
          "a non-minimal triangulation");
  rejects(kK23, 5, {kK23Narrow, Renumbered(kK23Narrow, 2)}, 2, 2,
          "a duplicate result");
  rejects(kK23, 5, {Renumbered(kK23Wide, 1), Renumbered(kK23Narrow, 2)}, 2,
          3, "an out-of-order κ");
  rejects(kK23, 5, {kK23Narrow}, 2, 2, "a short stream");
  rejects(kK23, 5, {Renumbered(kK23Wide, 1)}, 1, 2,
          "a first κ above the treewidth");
  rejects(kK23, 5, {MakeResult(1, 2, 0, kK23Narrow.bags)}, 1, 2,
          "a wrong fill count");
  rejects(kC4, 4, {MakeResult(1, 1, 0, {{0, 1}, {2, 3}})}, 1, 1,
          "bags that miss an edge");

  // Each generator is byte-identical for fixed seeds and still produces the
  // pinned bytes for seeds (1, 1); the shape seed changes the graph, and the
  // text seed changes only the text.
  struct Gen {
    const char* name;
    std::function<Instance(uint64_t, uint64_t)> make;
    int n;
    size_t m;
    uint64_t digest;
  };
  const std::vector<Gen> gens = {
      {"grid 5x5",
       [](uint64_t s, uint64_t t) { return RelabeledGrid(5, 5, s, t); }, 25,
       40, 0x18306c144c0247beULL},
      {"grid 6x6",
       [](uint64_t s, uint64_t t) { return RelabeledGrid(6, 6, s, t); }, 36,
       60, 0x3f271e1c51c88d90ULL},
      {"atom chain",
       [](uint64_t s, uint64_t t) { return AtomChain(30, 55, s, t); }, 372,
       551, 0x1a9edc27189f952dULL},
  };
  for (const Gen& gen : gens) {
    const std::string name = gen.name;
    const Instance a = gen.make(1, 1), b = gen.make(1, 1);
    const Instance other_shape = gen.make(2, 1), other_text = gen.make(1, 2);
    expect(a.text == b.text, name + " is not deterministic");
    expect(a.edges != other_shape.edges, name + " ignores its shape seed");
    expect(a.text != other_text.text && a.edges == other_text.edges,
           name + ": the text seed must change the text but not the graph");
    expect(a.n == gen.n, name + " has " + std::to_string(a.n) + " vertices");
    expect(a.edges.size() == gen.m,
           name + " has " + std::to_string(a.edges.size()) + " edges");
    log << "generator " << name << " digest " << std::hex << Digest(a.text)
        << std::dec << "\n";
    expect(Digest(a.text) == gen.digest, name + " output changed");
  }
  return ok;
}

}  // namespace perfbench
