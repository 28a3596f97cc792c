// Plain-text table rendering for the bench harnesses.
//
// Every figure/table bench prints its reproduced data as an aligned ASCII
// table so the output can be diffed, plotted, or pasted into
// EXPERIMENTS.md directly.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

namespace hpcarbon {

class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);
  /// Percentage with sign, e.g. "+12.3%" / "-4.0%".
  static std::string pct(double v, int precision = 1);

  std::size_t rows() const { return rows_.size(); }

  /// Render with column alignment; numeric-looking cells right-aligned.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner used by benches: "== Figure 1 (a): ... ==".
std::string banner(const std::string& title);

/// A crude horizontal bar for terminal "plots": value scaled to width.
std::string bar(double value, double max_value, int width = 40);

}  // namespace hpcarbon
