#include "graph/graph_io.h"

#include <sstream>

namespace mintri {

std::optional<Graph> ParseDimacs(std::istream& in) {
  std::string line;
  std::optional<Graph> g;
  long long declared_edges = 0;
  long long edge_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    if (line[0] == 'p') {
      std::string p, format;
      int n = 0;
      if (g.has_value() || !(ls >> p >> format >> n >> declared_edges) ||
          p != "p" || format != "tw" || n < 0) {
        return std::nullopt;
      }
      g.emplace(n);
      continue;
    }
    if (!g.has_value()) return std::nullopt;
    int u = 0, v = 0;
    std::string extra;
    if (!(ls >> u >> v) || (ls >> extra)) return std::nullopt;
    if (u < 1 || v < 1 || u > g->NumVertices() || v > g->NumVertices() ||
        u == v) {
      return std::nullopt;
    }
    g->AddEdge(u - 1, v - 1);
    ++edge_lines;
  }
  // The header's edge count is the number of edge lines (a repeated line
  // counts again), so a truncated or padded file is caught.
  if (g.has_value() && edge_lines != declared_edges) return std::nullopt;
  return g;
}

std::optional<Graph> ParseDimacsString(const std::string& text) {
  std::istringstream in(text);
  return ParseDimacs(in);
}

void WriteDimacs(const Graph& g, std::ostream& out) {
  out << "p tw " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (const auto& [u, v] : g.Edges()) {
    out << (u + 1) << " " << (v + 1) << "\n";
  }
}

}  // namespace mintri
