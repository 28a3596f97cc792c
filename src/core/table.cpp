#include "core/table.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "core/error.h"

namespace hpcarbon {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  HPC_REQUIRE(header_.empty() || row.size() == header_.size(),
              "row width does not match header");
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, v);
  return buf;
}

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  bool digit = false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      digit = true;
    } else if (s[i] != '.' && s[i] != '%' && s[i] != 'e' && s[i] != '-' &&
               s[i] != '+') {
      return false;
    }
  }
  return digit;
}
}  // namespace

std::string TextTable::to_string() const {
  std::vector<std::vector<std::string>> all;
  if (!header_.empty()) all.push_back(header_);
  all.insert(all.end(), rows_.begin(), rows_.end());
  if (all.empty()) return "";

  std::size_t cols = 0;
  for (const auto& r : all) cols = std::max(cols, r.size());
  std::vector<std::size_t> width(cols, 0);
  for (const auto& r : all) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& r, bool is_header) {
    out << "|";
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string cell = c < r.size() ? r[c] : "";
      const bool right = !is_header && looks_numeric(cell);
      out << ' ';
      if (right) {
        out << std::string(width[c] - cell.size(), ' ') << cell;
      } else {
        out << cell << std::string(width[c] - cell.size(), ' ');
      }
      out << " |";
    }
    out << '\n';
  };

  bool first = true;
  for (const auto& r : all) {
    emit_row(r, first && !header_.empty());
    if (first && !header_.empty()) {
      out << "|";
      for (std::size_t c = 0; c < cols; ++c) {
        out << std::string(width[c] + 2, '-') << "|";
      }
      out << '\n';
      first = false;
    }
  }
  return out.str();
}

std::string banner(const std::string& title) {
  const std::string line(title.size() + 6, '=');
  return line + "\n== " + title + " ==\n" + line + "\n";
}

std::string bar(double value, double max_value, int width) {
  if (max_value <= 0 || value < 0) return "";
  int n = static_cast<int>(value / max_value * width + 0.5);
  n = std::clamp(n, 0, width);
  return std::string(static_cast<std::size_t>(n), '#');
}

}  // namespace hpcarbon
