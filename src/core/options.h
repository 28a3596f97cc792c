// One typed option table per command.
//
// A command declares each of its flags once: the name, the value
// placeholder shown in the usage, a help line, the kind of value and its
// range, and the field (or callback) the value lands in. That declaration
// parses argv, words every error, and renders the usage, so no command
// keeps an argv loop, a number parser or usage text of its own.
//
// The rules are the same for every command:
//  * A flag's value is the next argument, taken verbatim even when it
//    starts with '-' (`--tz-offset -5`). There is no `--flag=value` form
//    and no prefix abbreviation.
//  * A scalar flag given twice keeps its last value; lists and repeatable
//    flags accumulate.
//  * An argument that does not start with '-', or is a bare "-", is
//    positional.
//  * -h / --help renders the usage and stops parsing; it sets nothing.
//  * Every error is an hpcarbon::Error, worded one way:
//      --x needs a value
//      --x expects a number in (0, inf), got 'v'
//      --x expects an integer in [0, 4096], got 'v'
//      unknown <cmd> flag '--x' (see `hpcarbon <cmd> --help`)
#pragma once

#include <algorithm>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.h"

namespace hpcarbon::options {

/// 2^53, the widest bound an integer flag may declare: past it, whole
/// doubles are more than one apart.
inline constexpr double kMaxExact = 9007199254740992.0;

/// Bounds of a number flag: [lo, hi], or (lo, hi] when lo_open. An
/// infinite bound leaves that side open; the value itself must be finite.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
};

class Table {
 public:
  using Each = std::function<void(const std::string&)>;

  /// `command` names the command in errors and usage ("run", "bench
  /// netload"); `synopsis` follows it on the usage line; `summary` is the
  /// description printed under it (omitted when empty).
  Table(std::string command, std::string synopsis, std::string summary);

  /// A switch: present sets *field to true.
  Table& flag(std::string name, bool* field, std::string help);
  /// Text, taken verbatim.
  Table& text(std::string name, std::string meta, std::string* field,
              std::string help);
  /// A finite number inside `range`.
  Table& number(std::string name, std::string meta, double* field,
                Range range, std::string help);
  /// A whole number inside [lo, hi]. The range is checked on the parsed
  /// value before the cast, so it must fit the field's type and stay
  /// within +-2^53, where every whole double is exact. `Int` may be a
  /// std::optional, which stays empty unless the flag is given.
  template <typename Int>
  Table& integer(std::string name, std::string meta, Int* field, double lo,
                 double hi, std::string help);
  /// A comma list: `each` runs once per non-empty item.
  Table& list(std::string name, std::string meta, Each each,
              std::string help);
  /// A repeatable flag: `each` runs once per occurrence. The other kinds
  /// are built on it (a scalar's setter overwrites, so the last value
  /// wins); an empty `meta` makes a switch that takes no value.
  Table& repeated(std::string name, std::string meta, Each each,
                  std::string help);
  /// Arguments that are not flags, in order. Without this, any positional
  /// argument is an error.
  Table& positional(Each each);

  /// Parse the arguments that follow the command name. Returns false when
  /// -h or --help was reached: the usage went to `help_out` and the caller
  /// exits 0 without running.
  bool parse(int argc, char* const* argv, std::ostream& help_out) const;

  /// "usage: hpcarbon <command> <synopsis>", the summary, one line per
  /// flag, and the -h/--help line.
  void usage(std::ostream& out) const;

 private:
  struct Flag {
    std::string name;
    std::string meta;  // value placeholder; empty for a switch
    std::string help;
    Each apply;
  };

  template <typename T>
  struct Unwrap {
    using type = T;
  };
  template <typename T>
  struct Unwrap<std::optional<T>> {
    using type = T;
  };

  /// `value` as a whole number inside [lo, hi]; throws the flag's error.
  static double whole(const std::string& flag, const std::string& value,
                      double lo, double hi);

  std::string command_;
  std::string synopsis_;
  std::string summary_;
  std::vector<Flag> flags_;
  Each positional_;
};

template <typename Int>
Table& Table::integer(std::string name, std::string meta, Int* field,
                      double lo, double hi, std::string help) {
  using T = typename Unwrap<Int>::type;
  static_assert(std::is_integral_v<T>, "integer flags bind integral fields");
  const auto type_lo = static_cast<double>(std::numeric_limits<T>::lowest());
  const auto type_hi = static_cast<double>(std::numeric_limits<T>::max());
  HPC_REQUIRE(lo <= hi && lo >= std::max(type_lo, -kMaxExact) &&
                  hi <= std::min(type_hi, kMaxExact),
              name + ": integer range must fit its field and +-2^53");
  Each apply = [flag = name, field, lo, hi](const std::string& value) {
    *field = static_cast<T>(whole(flag, value, lo, hi));
  };
  return repeated(std::move(name), std::move(meta), std::move(apply),
                  std::move(help));
}

}  // namespace hpcarbon::options
