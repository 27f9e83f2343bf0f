#include "preprocess/preprocess.h"

#include <algorithm>
#include <utility>

#include "chordal/clique_tree.h"
#include "chordal/lb_triang.h"
#include "util/timer.h"

namespace mintri {

namespace {

/// Clique-minimal-separator candidates for the connected part: the
/// clique-tree adhesions of one minimal triangulation of g[part] that are
/// cliques in g. By Berry–Pogorelcnik–Simonet these are exactly the clique
/// minimal separators of g[part], so the recursive split below only ever
/// tests genuine candidates. Returned sorted (original labels).
std::vector<VertexSet> CliqueSeparatorCandidates(const Graph& g,
                                                 const VertexSet& part) {
  std::vector<VertexSet> candidates;
  std::vector<int> old_to_new;
  Graph sub = g.InducedSubgraph(part, &old_to_new);
  if (sub.NumVertices() <= 1) return candidates;
  std::vector<int> new_to_old(sub.NumVertices());
  part.ForEach([&](int v) { new_to_old[old_to_new[v]] = v; });

  Graph h0 = LbTriangMinDegree(sub);
  CliqueTree tree = BuildCliqueTree(h0);
  for (const auto& [a, b] : tree.edges) {
    VertexSet adhesion = tree.cliques[a].Intersect(tree.cliques[b]);
    if (adhesion.Empty()) continue;
    VertexSet s(g.NumVertices());
    adhesion.ForEach([&](int v) { s.Insert(new_to_old[v]); });
    if (!g.IsClique(s)) continue;
    candidates.push_back(std::move(s));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

/// Recursively splits the connected `part` along clique minimal separators
/// (a separator splits when g[part] \ S has >= 2 full components), appending
/// the resulting atoms. Deterministic: candidates are scanned in sorted
/// order and the split peels the lowest-numbered full component.
void DecomposeConnectedPart(const Graph& g, VertexSet part,
                            std::vector<VertexSet>* atoms) {
  std::vector<VertexSet> candidates = CliqueSeparatorCandidates(g, part);
  std::vector<VertexSet> pending;
  pending.push_back(std::move(part));
  ComponentScanner scanner;
  while (!pending.empty()) {
    VertexSet p = std::move(pending.back());
    pending.pop_back();
    bool split = false;
    if (!candidates.empty()) {
      VertexSet removed(g.NumVertices());
      for (const VertexSet& s : candidates) {
        if (p.Count() - s.Count() < 2) continue;  // can't leave 2 components
        if (!s.IsSubsetOf(p)) continue;
        removed.AssignComplementOf(p);
        removed.UnionWith(s);
        int full = 0;
        VertexSet first_full;
        scanner.ForEachComponentWhile(
            g, removed, [&](const VertexSet& c, const VertexSet& nb) {
              // nb ⊆ removed, so nb ∩ p ⊆ s: the component is full iff its
              // neighborhood inside the part is all of s.
              if (nb.Intersect(p) == s) {
                if (++full == 1) first_full = c;  // copy out of scratch
              }
              return full < 2;
            });
        if (full >= 2) {
          VertexSet atom_side = first_full.Union(s);
          VertexSet rest = p.Minus(first_full);
          pending.push_back(std::move(rest));
          pending.push_back(std::move(atom_side));
          split = true;
          break;
        }
      }
    }
    if (!split) atoms->push_back(std::move(p));
  }
}

}  // namespace

std::vector<VertexSet> CliqueMinimalSeparatorAtoms(const Graph& g) {
  std::vector<VertexSet> atoms;
  for (const VertexSet& comp : g.ConnectedComponents()) {
    DecomposeConnectedPart(g, comp, &atoms);
  }
  std::sort(atoms.begin(), atoms.end());
  return atoms;
}

PreprocessResult Preprocess(const Graph& g) {
  WallTimer timer;
  PreprocessResult r;
  const int n = g.NumVertices();
  r.kept = g.Vertices();
  r.reduced = g;

  bool progress = true;
  while (progress) {
    progress = false;
    for (int v = 0; v < n; ++v) {
      if (!r.kept.Contains(v)) continue;
      VertexSet nb = g.Neighbors(v).Intersect(r.kept);
      if (!g.IsClique(nb)) continue;
      EliminatedVertex ev;
      ev.vertex = v;
      ev.bag = std::move(nb);
      ev.bag.Insert(v);
      r.eliminated.push_back(std::move(ev));
      r.kept.Erase(v);
      progress = true;
    }
  }

  if (!r.kept.Empty()) {
    ComponentScanner scanner;
    std::vector<VertexSet> comps;
    scanner.Components(g, r.kept.Complement(), &comps);
    for (const VertexSet& comp : comps) {
      DecomposeConnectedPart(g, comp, &r.atoms);
    }
    std::sort(r.atoms.begin(), r.atoms.end());
  }

  r.info.vertices_removed = static_cast<int>(r.eliminated.size());
  r.info.num_atoms = static_cast<int>(r.atoms.size());
  for (const VertexSet& atom : r.atoms) {
    int size = atom.Count();
    r.info.largest_atom = std::max(r.info.largest_atom, size);
    r.info.smallest_atom = r.info.smallest_atom == 0
                               ? size
                               : std::min(r.info.smallest_atom, size);
  }
  r.info.seconds = timer.Seconds();
  return r;
}

}  // namespace mintri
