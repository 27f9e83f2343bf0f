#ifndef MINTRI_GRAPH_GRAPH_IO_H_
#define MINTRI_GRAPH_GRAPH_IO_H_

#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "graph/graph.h"

namespace mintri {

/// Parses the PACE / DIMACS ".gr" format:
///   c comment lines
///   p tw <n> <m>
///   <u> <v>            (1-based vertex ids)
/// Returns std::nullopt on malformed input, including a header other than
/// `p tw` (a `p hg` hypergraph header, say), a second `p` line,
/// an edge line with more than two fields, a self-loop, and a header <m>
/// that differs from the number of edge lines (a repeated line counts).
std::optional<Graph> ParseDimacs(std::istream& in);
std::optional<Graph> ParseDimacsString(const std::string& text);

/// Writes the graph in the same format.
void WriteDimacs(const Graph& g, std::ostream& out);

}  // namespace mintri

#endif  // MINTRI_GRAPH_GRAPH_IO_H_
