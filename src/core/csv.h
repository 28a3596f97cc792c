// CSV import/export for carbon-intensity traces and bench outputs.
//
// Real deployments would feed measured grid data (Electricity Maps / UK
// ESO API exports) straight into the analysis; this module provides the
// interchange point. Format: optional header row, comma separation,
// RFC 4180-style double quotes around cells that contain commas ("" escapes
// a literal quote), and an optional newline on the final row.
//
// parse_csv_table reads raw string cells (timestamped grid exports need the
// datetime column verbatim); grid/import.h and fleetsim/jobs.h build on it.
//
// Emission goes through csv_escape / csv_row so that every CSV the tools
// write parses back through this module (RFC 4180 round-trip), even when a
// cell carries a comma or quote.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace hpcarbon {

/// Raw rectangular view: every cell as text, no header detection.
struct CsvTable {
  std::vector<std::vector<std::string>> rows;
  /// 1-based source line of each row (blank lines counted), parallel to
  /// `rows`; lets importers report gaps against the original file.
  std::vector<std::size_t> line_numbers;
};

/// Parse CSV text into string cells. Throws hpcarbon::Error on ragged rows
/// (all rows must match the first row's width) or malformed quoting, with
/// a message that names the row and nothing of this source: the text comes
/// from outside the program, so the message is the whole answer.
CsvTable parse_csv_table(const std::string& text);

/// Read a whole file; throws hpcarbon::Error if it cannot be opened or
/// read ("cannot read file: <path>" for a directory).
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& content);

/// RFC 4180 escaping: cells containing a comma, quote, CR, or LF are
/// wrapped in double quotes with internal quotes doubled; all other cells
/// pass through untouched (so numeric output stays byte-identical).
std::string csv_escape(const std::string& cell);

/// One emitted row: cells escaped, comma-joined, terminated with '\n'.
std::string csv_row(const std::vector<std::string>& cells);

/// Default ostream formatting of a double ("3.14", "42") — the cell format
/// every tool's CSV uses for numeric columns.
std::string csv_num(double v);

}  // namespace hpcarbon
