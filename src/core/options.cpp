#include "core/options.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "core/error.h"

namespace hpcarbon::options {

namespace {

/// The whole of `value` as a double; nullopt for "", "abc" or "8x".
std::optional<double> to_double(const std::string& value) {
  if (value.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) return std::nullopt;
  return v;
}

/// "[lo, hi]", "(lo, hi]" or "[lo, inf)"; %g spells infinity "inf".
std::string interval(double lo, double hi, bool lo_open) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%c%.17g, %.17g%c",
                lo_open || std::isinf(lo) ? '(' : '[', lo, hi,
                std::isinf(hi) ? ')' : ']');
  return buf;
}

[[noreturn]] void reject(const std::string& flag, const char* kind,
                         const std::string& range, const std::string& value) {
  throw Error(flag + " expects " + kind + " in " + range + ", got '" + value +
              "'");
}

}  // namespace

double parse_number(const std::string& name, const std::string& value,
                    Range range) {
  const std::optional<double> v = to_double(value);
  if (!v || !std::isfinite(*v) || *v > range.hi ||
      (range.lo_open ? *v <= range.lo : *v < range.lo)) {
    reject(name, "a number", interval(range.lo, range.hi, range.lo_open),
           value);
  }
  return *v;
}

Table::Table(std::string command, std::string synopsis, std::string summary)
    : command_(std::move(command)),
      synopsis_(std::move(synopsis)),
      summary_(std::move(summary)) {}

Table& Table::flag(std::string name, bool* field, std::string help) {
  return repeated(
      std::move(name), "", [field](const std::string&) { *field = true; },
      std::move(help));
}

Table& Table::text(std::string name, std::string meta, std::string* field,
                   std::string help) {
  return repeated(
      std::move(name), std::move(meta),
      [field](const std::string& value) { *field = value; }, std::move(help));
}

Table& Table::number(std::string name, std::string meta, double* field,
                     Range range, std::string help) {
  Each apply = [flag = name, field, range](const std::string& value) {
    *field = parse_number(flag, value, range);
  };
  return repeated(std::move(name), std::move(meta), std::move(apply),
                  std::move(help));
}

Table& Table::list(std::string name, std::string meta, Each each,
                   std::string help) {
  Each apply = [each = std::move(each)](const std::string& value) {
    std::size_t pos = 0;
    while (pos <= value.size()) {
      const std::size_t comma = std::min(value.find(',', pos), value.size());
      if (comma > pos) each(value.substr(pos, comma - pos));
      pos = comma + 1;
    }
  };
  return repeated(std::move(name), std::move(meta), std::move(apply),
                  std::move(help));
}

Table& Table::repeated(std::string name, std::string meta, Each each,
                       std::string help) {
  flags_.push_back(
      {std::move(name), std::move(meta), std::move(help), std::move(each)});
  return *this;
}

Table& Table::positional(Each each, std::size_t max) {
  positional_ = std::move(each);
  max_positionals_ = max;
  return *this;
}

double Table::whole(const std::string& flag, const std::string& value,
                    double lo, double hi) {
  const std::optional<double> v = to_double(value);
  // NaN fails both comparisons; the range is finite, so +-inf fails too.
  if (!v || !(*v >= lo && *v <= hi) || *v != std::trunc(*v)) {
    reject(flag, "an integer", interval(lo, hi, false), value);
  }
  return *v;
}

bool Table::parse(int argc, char* const* argv, std::ostream& help_out) const {
  const std::string see = " (see `hpcarbon " + command_ + " --help`)";
  std::size_t positionals = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(help_out);
      return false;
    }
    if (arg.size() < 2 || arg[0] != '-' ||
        (positional_ && to_double(arg))) {
      // max_positionals_ is 0 without a callback.
      if (positionals++ == max_positionals_) {
        throw Error("unexpected " + command_ + " argument '" + arg + "'" +
                    see);
      }
      positional_(arg);
      continue;
    }
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      throw Error("unknown " + command_ + " flag '" + arg + "'" + see);
    }
    if (flag->meta.empty()) {
      flag->apply(arg);
    } else if (i + 1 < argc) {
      flag->apply(argv[++i]);
    } else {
      throw Error(flag->name + " needs a value");
    }
  }
  return true;
}

void Table::usage(std::ostream& out) const {
  auto line = [&](const std::string& left, const std::string& help) {
    const std::size_t pad = left.size() < 24 ? 24 - left.size() : 0;
    out << "  " << left << std::string(pad + 2, ' ') << help << '\n';
  };
  out << "usage: hpcarbon " << command_;
  if (!synopsis_.empty()) out << ' ' << synopsis_;
  out << '\n';
  if (!summary_.empty()) out << summary_ << '\n';
  for (const Flag& f : flags_) {
    line(f.meta.empty() ? f.name : f.name + ' ' + f.meta, f.help);
  }
  line("-h, --help", "print this help and exit");
}

}  // namespace hpcarbon::options
