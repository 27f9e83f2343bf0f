#include "preprocess/preprocess.h"

#include <algorithm>
#include <numeric>
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
/// the resulting atoms and one link per split, whose ends index `atoms`.
/// Deterministic: candidates are scanned in sorted order and the split
/// peels the lowest-numbered full component.
void DecomposeConnectedPart(const Graph& g, VertexSet part,
                            std::vector<VertexSet>* atoms,
                            std::vector<AtomLink>* links) {
  std::vector<VertexSet> candidates = CliqueSeparatorCandidates(g, part);
  // Pieces are numbered as they are made, and a link's ends name pieces
  // until those settle as atoms. A clique lies within one side of any split
  // (its vertices are pairwise adjacent), so a split piece hands each of its
  // links to a side that contains the link's separator.
  const size_t first_link = links->size();
  std::vector<std::vector<size_t>> links_of_piece(1);
  std::vector<int> atom_of_piece(1, -1);
  std::vector<std::pair<VertexSet, int>> pending;
  pending.emplace_back(std::move(part), 0);
  ComponentScanner scanner;
  while (!pending.empty()) {
    VertexSet p = std::move(pending.back().first);
    const int piece = pending.back().second;
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
          const int side_piece = static_cast<int>(atom_of_piece.size());
          const int rest_piece = side_piece + 1;
          links_of_piece.resize(rest_piece + 1);
          atom_of_piece.resize(rest_piece + 1, -1);
          for (const size_t l : links_of_piece[piece]) {
            AtomLink& link = (*links)[l];
            const int to = link.separator.IsSubsetOf(atom_side) ? side_piece
                                                                : rest_piece;
            (link.a == piece ? link.a : link.b) = to;
            links_of_piece[to].push_back(l);
          }
          links_of_piece[side_piece].push_back(links->size());
          links_of_piece[rest_piece].push_back(links->size());
          links->push_back({side_piece, rest_piece, s});
          pending.emplace_back(std::move(rest), rest_piece);
          pending.emplace_back(std::move(atom_side), side_piece);
          split = true;
          break;
        }
      }
    }
    if (!split) {
      atom_of_piece[piece] = static_cast<int>(atoms->size());
      atoms->push_back(std::move(p));
    }
  }
  for (size_t l = first_link; l < links->size(); ++l) {
    (*links)[l].a = atom_of_piece[(*links)[l].a];
    (*links)[l].b = atom_of_piece[(*links)[l].b];
  }
}

}  // namespace

std::vector<VertexSet> CliqueMinimalSeparatorAtoms(const Graph& g) {
  std::vector<VertexSet> atoms;
  std::vector<AtomLink> links;
  for (const VertexSet& comp : g.ConnectedComponents()) {
    DecomposeConnectedPart(g, comp, &atoms, &links);
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
    std::vector<VertexSet> atoms;
    for (const VertexSet& comp : comps) {
      DecomposeConnectedPart(g, comp, &atoms, &r.atom_links);
    }
    // Sort the atoms and renumber the link ends to match.
    std::vector<int> by_set(atoms.size());
    std::iota(by_set.begin(), by_set.end(), 0);
    std::sort(by_set.begin(), by_set.end(),
              [&](int x, int y) { return atoms[x] < atoms[y]; });
    std::vector<int> rank(atoms.size());
    for (size_t k = 0; k < by_set.size(); ++k) {
      rank[by_set[k]] = static_cast<int>(k);
      r.atoms.push_back(std::move(atoms[by_set[k]]));
    }
    for (AtomLink& link : r.atom_links) {
      link.a = rank[link.a];
      link.b = rank[link.b];
    }
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
