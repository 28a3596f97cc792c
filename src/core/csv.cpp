#include "core/csv.h"

#include <fstream>
#include <sstream>

#include "core/error.h"

namespace hpcarbon {

namespace {

std::vector<std::string> split_line(const std::string& line,
                                    std::size_t line_no) {
  std::vector<std::string> cells;
  std::string cur;
  bool quoted = false;
  bool sealed = false;  // cell ended with a closing quote; next must be ','
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');  // RFC 4180 escaped quote
          ++i;
        } else {
          quoted = false;
          sealed = true;
        }
      } else {
        cur.push_back(ch);
      }
    } else if (ch == ',') {
      cells.push_back(cur);
      cur.clear();
      sealed = false;
    } else if (ch == '\r') {
      continue;
    } else if (sealed) {
      throw Error("text after closing quote in CSV row " +
                  std::to_string(line_no));
    } else if (ch == '"' && cur.empty()) {
      quoted = true;
    } else {
      cur.push_back(ch);
    }
  }
  if (quoted) {
    throw Error("unterminated quote in CSV row " + std::to_string(line_no));
  }
  cells.push_back(cur);
  return cells;
}

}  // namespace

CsvTable parse_csv_table(const std::string& text) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  std::size_t expected_cols = 0;
  std::size_t line_no = 0;  // 1-based, counting blank lines too
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    auto cells = split_line(line, line_no);
    if (table.rows.empty()) {
      expected_cols = cells.size();
    }
    if (cells.size() != expected_cols) {
      throw Error("ragged CSV row " + std::to_string(line_no) + ": got " +
                  std::to_string(cells.size()) + " cells, expected " +
                  std::to_string(expected_cols));
    }
    table.rows.push_back(std::move(cells));
    table.line_numbers.push_back(line_no);
  }
  return table;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open file: " + path);
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  // A directory opens, and its first read fails (EISDIR): an error, not
  // an empty file.
  if (in.bad()) throw Error("cannot read file: " + path);
  return text;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open file for writing: " + path);
  out << content;
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (const char ch : cell) {
    if (ch == '"') out.push_back('"');
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

std::string csv_row(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += csv_escape(cells[i]);
  }
  out.push_back('\n');
  return out;
}

std::string csv_num(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace hpcarbon
