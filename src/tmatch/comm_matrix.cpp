#include "tmatch/comm_matrix.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace lama {

namespace {

// Weights come off the wire: reject anything that is not a finite,
// non-negative number before it can poison an accumulation.
double parse_weight(const std::string& text, const char* what) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw ParseError(std::string(what) + " is not a number: '" + text + "'");
  }
  if (consumed != text.size()) {
    throw ParseError(std::string(what) + " has trailing characters: '" + text +
                     "'");
  }
  if (!std::isfinite(value) || value < 0.0) {
    throw ParseError(std::string(what) +
                     " must be finite and non-negative: '" + text + "'");
  }
  return value;
}

}  // namespace

CommMatrix::CommMatrix(int np) : np_(np) {
  if (np <= 0) throw MappingError("communication matrix needs processes");
  cells_.assign(static_cast<std::size_t>(np) * static_cast<std::size_t>(np),
                0.0);
}

CommMatrix CommMatrix::from_pattern(const TrafficPattern& pattern) {
  CommMatrix m(pattern.np);
  for (const Message& msg : pattern.messages) {
    m.add(msg.src, msg.dst, static_cast<double>(msg.bytes));
  }
  return m;
}

CommMatrix CommMatrix::parse(const std::string& text) {
  int np = -1;
  std::vector<std::array<double, 3>> edges;
  // Dense rows are collected separately: they *set* cells (both triangles),
  // so symmetry is an input property to verify, not a side effect of add().
  std::vector<std::pair<int, std::vector<double>>> rows;
  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> fields = split_ws(line);
    if (fields.empty()) continue;
    if (fields[0] == "np") {
      if (fields.size() != 2 || np != -1) {
        throw ParseError("matrix header must be a single 'np <N>' line");
      }
      np = static_cast<int>(parse_size(fields[1], "matrix process count"));
      continue;
    }
    if (fields[0] == "row") {
      if (np <= 0) {
        throw ParseError("matrix 'row' lines must follow the 'np <N>' header");
      }
      if (fields.size() != 2 + static_cast<std::size_t>(np)) {
        throw ParseError("matrix row must carry exactly np=" +
                         std::to_string(np) + " values (non-square input): '" +
                         trim(line) + "'");
      }
      std::vector<double> values;
      values.reserve(static_cast<std::size_t>(np));
      for (std::size_t i = 2; i < fields.size(); ++i) {
        values.push_back(parse_weight(fields[i], "matrix row weight"));
      }
      rows.emplace_back(
          static_cast<int>(parse_size(fields[1], "matrix row index")),
          std::move(values));
      continue;
    }
    if (fields.size() != 3) {
      throw ParseError("matrix edge must be '<src> <dst> <bytes>': '" +
                       trim(line) + "'");
    }
    edges.push_back({static_cast<double>(parse_size(fields[0], "matrix src")),
                     static_cast<double>(parse_size(fields[1], "matrix dst")),
                     parse_weight(fields[2], "matrix bytes")});
  }
  if (np <= 0) {
    throw ParseError("matrix file missing 'np <N>' header");
  }
  CommMatrix m(np);
  for (const auto& [src, dst, bytes] : edges) {
    if (src >= np || dst >= np) {
      throw ParseError("matrix edge references rank beyond np");
    }
    m.add(static_cast<int>(src), static_cast<int>(dst), bytes);
  }
  for (const auto& [index, values] : rows) {
    if (index >= np) {
      throw ParseError("matrix row index beyond np");
    }
    for (int q = 0; q < np; ++q) {
      if (q == index) continue;
      m.cells_[static_cast<std::size_t>(index) *
                   static_cast<std::size_t>(np) +
               static_cast<std::size_t>(q)] +=
          values[static_cast<std::size_t>(q)];
    }
  }
  if (!rows.empty()) {
    // A dense listing must describe a symmetric (square, undirected) matrix.
    for (int a = 0; a < np; ++a) {
      for (int b = a + 1; b < np; ++b) {
        if (m.at(a, b) != m.at(b, a)) {
          throw ParseError("matrix rows are not symmetric at (" +
                           std::to_string(a) + "," + std::to_string(b) + ")");
        }
      }
    }
  }
  return m;
}

std::string CommMatrix::serialize() const {
  std::string out = "np " + std::to_string(np_) + "\n";
  char buf[64];
  for (int a = 0; a < np_; ++a) {
    for (int b = a + 1; b < np_; ++b) {
      const double bytes = at(a, b);
      if (bytes <= 0.0) continue;
      // One line per undirected edge; parse() re-adds it symmetrically.
      std::snprintf(buf, sizeof(buf), "%d %d %.0f\n", a, b, bytes);
      out += buf;
    }
  }
  return out;
}

std::uint64_t CommMatrix::digest() const {
  // Upper triangle in (a, b) order: the accumulation into cells_ already
  // canonicalized edge order and direction, so any two semantically equal
  // matrices walk identical bytes here.
  std::uint64_t h = fnv1a64("comm-matrix");
  h = hash_combine(h, static_cast<std::uint64_t>(np_));
  for (int a = 0; a < np_; ++a) {
    for (int b = a + 1; b < np_; ++b) {
      const double bytes = at(a, b);
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(bytes));
      std::memcpy(&bits, &bytes, sizeof(bits));
      h = hash_combine(h, bits);
    }
  }
  return h;
}

void CommMatrix::add(int a, int b, double bytes) {
  LAMA_ASSERT(a >= 0 && a < np_ && b >= 0 && b < np_);
  if (!std::isfinite(bytes) || bytes < 0.0) {
    throw MappingError("communication volume must be finite and non-negative");
  }
  if (a == b) return;
  cells_[static_cast<std::size_t>(a) * static_cast<std::size_t>(np_) +
         static_cast<std::size_t>(b)] += bytes;
  cells_[static_cast<std::size_t>(b) * static_cast<std::size_t>(np_) +
         static_cast<std::size_t>(a)] += bytes;
}

double CommMatrix::at(int a, int b) const {
  LAMA_ASSERT(a >= 0 && a < np_ && b >= 0 && b < np_);
  return cells_[static_cast<std::size_t>(a) * static_cast<std::size_t>(np_) +
                static_cast<std::size_t>(b)];
}

CommGraph::CommGraph(const CommMatrix& matrix) {
  const auto np = static_cast<std::size_t>(matrix.np());
  const double* cells = matrix.cells_.data();
  // Each upper-triangle cell (a, b) is both row a's entry b and row b's
  // entry a. Rows fill in ascending a, so row p receives its entries q < p
  // in ascending order before its own pass appends those q > p.
  row_start_.assign(np + 1, 0);
  for (std::size_t a = 0; a < np; ++a) {
    for (std::size_t b = a + 1; b < np; ++b) {
      if (cells[a * np + b] > 0.0) {
        ++row_start_[a + 1];
        ++row_start_[b + 1];
      }
    }
  }
  for (std::size_t p = 0; p < np; ++p) row_start_[p + 1] += row_start_[p];
  edges_.resize(row_start_[np]);
  std::vector<std::size_t> fill(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t a = 0; a < np; ++a) {
    for (std::size_t b = a + 1; b < np; ++b) {
      const double bytes = cells[a * np + b];
      if (bytes > 0.0) {
        edges_[fill[a]++] = {static_cast<int>(b), bytes};
        edges_[fill[b]++] = {static_cast<int>(a), bytes};
      }
    }
  }
}

double CommMatrix::row_sum(int p) const {
  double total = 0.0;
  for (int q = 0; q < np_; ++q) total += at(p, q);
  return total;
}

double CommMatrix::affinity(int p, const std::vector<int>& group) const {
  double total = 0.0;
  for (int q : group) total += at(p, q);
  return total;
}

}  // namespace lama
