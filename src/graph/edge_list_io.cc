#include "graph/edge_list_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "graph/graph_builder.h"

namespace asti {

namespace {

// The tokenizer below accepts and rejects exactly what `std::istream >>`
// does in the classic locale, one field at a time, without building a
// stream per line. Each Read* skips leading whitespace and consumes the
// longest prefix the stream extractor would consume.

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

const char* SkipSpace(const char* pos, const char* end) {
  while (pos < end && IsSpace(*pos)) ++pos;
  return pos;
}

// `>> long long`: optional sign, then decimal digits. Fails on no digits
// and on overflow.
bool ReadInt(const char*& pos, const char* end, long long& value) {
  pos = SkipSpace(pos, end);
  const char* digits = pos;
  if (digits < end && (*digits == '+' || *digits == '-')) ++digits;
  if (digits == end || !IsDigit(*digits)) return false;
  // from_chars takes a leading '-' but not a leading '+'.
  const auto [next, ec] = std::from_chars(*pos == '+' ? digits : pos, end, value);
  if (ec != std::errc()) return false;
  pos = next;
  return true;
}

enum class FieldRead { kEnd, kNumber, kFailed };

// `>> double`: kEnd when only whitespace is left (value untouched). The
// field is [sign] digits [. digits] [(e|E) [sign] digits], with an exponent
// only after a mantissa digit; it fails (value 0) unless it is a complete
// number, and an overflow fails with value ±DBL_MAX. Underflow succeeds.
FieldRead ReadDouble(const char*& pos, const char* end, double& value) {
  pos = SkipSpace(pos, end);
  if (pos == end) return FieldRead::kEnd;
  const char* field = pos;
  const char* p = pos;
  if (*p == '+' || *p == '-') ++p;
  bool mantissa = false;
  bool dot = false;
  bool complete = true;
  for (; p < end; ++p) {
    if (IsDigit(*p)) {
      mantissa = true;
    } else if (*p == '.' && !dot) {
      dot = true;
    } else {
      break;
    }
  }
  if (p < end && (*p == 'e' || *p == 'E') && mantissa) {
    ++p;
    if (p < end && (*p == '+' || *p == '-')) ++p;
    const char* exponent = p;
    while (p < end && IsDigit(*p)) ++p;
    complete = p != exponent;
  }
  pos = p;
  if (!mantissa || !complete) {
    value = 0.0;
    return FieldRead::kFailed;
  }
  const auto [next, ec] =
      std::from_chars(*field == '+' ? field + 1 : field, p, value);
  if (ec != std::errc() || next != p) {
    // Out of range: strtod gives the stream's value (±inf, or the
    // underflowed result).
    value = std::strtod(std::string(field, p).c_str(), nullptr);
  }
  if (std::isinf(value)) {
    value = std::copysign(std::numeric_limits<double>::max(), value);
    return FieldRead::kFailed;
  }
  return FieldRead::kNumber;
}

StatusOr<EdgeListFile> ParseFromStream(std::istream& in) {
  EdgeListFile file;
  std::string line;
  size_t line_number = 0;
  bool saw_probability = false;
  bool saw_bare_edge = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#' || line[0] == '%') {
      if (line.find("undirected") != std::string::npos) file.undirected = true;
      continue;
    }
    const char* pos = line.data();
    const char* const end = pos + line.size();
    long long u = -1;
    long long v = -1;
    double p = 1.0;
    if (!ReadInt(pos, end, u) || !ReadInt(pos, end, v)) {
      return Status::InvalidArgument("malformed edge at line " + std::to_string(line_number) +
                                     ": '" + line + "'");
    }
    if (u < 0 || v < 0 || u >= static_cast<long long>(kInvalidNode) ||
        v >= static_cast<long long>(kInvalidNode)) {
      return Status::InvalidArgument("node id out of range at line " +
                                     std::to_string(line_number));
    }
    if (ReadDouble(pos, end, p) == FieldRead::kNumber) {
      saw_probability = true;
      if (!(p > 0.0) || p > 1.0) {
        return Status::InvalidArgument("probability out of (0,1] at line " +
                                       std::to_string(line_number));
      }
    } else {
      saw_bare_edge = true;
    }
    file.edges.push_back(
        Edge{static_cast<NodeId>(u), static_cast<NodeId>(v), p});
    file.num_nodes = std::max(file.num_nodes, static_cast<NodeId>(std::max(u, v) + 1));
  }
  if (saw_probability && saw_bare_edge) {
    return Status::InvalidArgument("mixed weighted and unweighted edge lines");
  }
  file.has_probabilities = saw_probability;
  return file;
}

}  // namespace

StatusOr<EdgeListFile> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ParseFromStream(in);
}

StatusOr<EdgeListFile> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseFromStream(in);
}

StatusOr<DirectedGraph> BuildGraphFromEdgeList(const EdgeListFile& file) {
  GraphBuilder builder(file.num_nodes);
  for (const Edge& e : file.edges) {
    if (file.undirected) {
      ASM_RETURN_NOT_OK(builder.AddUndirectedEdge(e.source, e.target, e.probability));
    } else {
      ASM_RETURN_NOT_OK(builder.AddEdge(e.source, e.target, e.probability));
    }
  }
  return builder.Build(GraphBuilder::DuplicatePolicy::kKeepMaxProbability);
}

Status SaveEdgeList(const DirectedGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << "# directed edge list: source target probability\n";
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    auto neighbors = graph.OutNeighbors(u);
    auto probs = graph.OutProbabilities(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      out << u << ' ' << neighbors[i] << ' ' << probs[i] << '\n';
    }
  }
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace asti
