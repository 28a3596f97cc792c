// Machine-readable benchmark trajectory: the JSON side of the bench
// harness.
//
// Every perf-relevant bench accepts --json and, when asked, appends one
// *row* to a trajectory file (BENCH_<name>.json by default): an
// environment fingerprint (compiler, build type, CPU model, worker
// threads, full/smoke mode), a free-form label, a UTC stamp, and a map of
// named metrics. Metrics marked *pinned* are the regression contract —
// tools/bench_diff.py compares two rows (or the first and last row of one
// committed trajectory) and exits nonzero when any pinned metric moved in
// its bad direction by more than the threshold. Without --json the
// benches print their human tables exactly as before; the Reporter is
// additive.
//
// Trajectory layout (one file per bench, rows append-only):
//
//   {"bench":"serve_load","schema":1,"rows":[
//   {"fingerprint":{...},"label":"baseline","metrics":{...},"utc":"..."},
//   {"fingerprint":{...},"label":"zero-copy","metrics":{...},"utc":"..."}
//   ]}
//
// Rows are never rewritten: the history of a metric across PRs is the
// point — a speed claim without a row here is just prose.
#pragma once

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/options.h"

namespace hpcarbon::bench {

/// Shared bench command line: every JSON-emitting bench understands
///   --json            append a row to the trajectory file
///   --out PATH        trajectory path (default BENCH_<name>.json in cwd)
///   --label TEXT      row label (default "run")
///   --smoke           reduced iteration counts for CI smoke jobs
struct BenchArgs {
  bool json = false;
  bool smoke = false;
  std::string label = "run";
  std::string out;

  /// The shared flags, bound to this object (and --out's default set
  /// from `bench_name`); a bench with flags of its own adds them before
  /// parsing.
  options::Table table(const std::string& bench_name) {
    out = "BENCH_" + file_slug(bench_name) + ".json";
    options::Table t("bench " + bench_name, "[flags]", "");
    t.flag("--json", &json, "append a row to the trajectory file")
        .text("--out", "PATH", &out,
              "trajectory path (default BENCH_<name>.json in cwd)")
        .text("--label", "TEXT", &label, "row label (default \"run\")")
        .flag("--smoke", &smoke, "reduced iteration counts for CI smoke jobs");
    return t;
  }

  /// Parse a bench's argv (argv[0] is the bench itself). Returns false
  /// once --help has printed the flags; the bench then exits 0.
  bool parse(int argc, char** argv, const std::string& bench_name) {
    return table(bench_name).parse(argc - 1, argv + 1, std::cout);
  }

  /// "serve-load" -> "serve_load": the file stem of the trajectory.
  static std::string file_slug(const std::string& bench_name) {
    std::string s = bench_name;
    for (char& c : s) {
      if (c == '-') c = '_';
    }
    return s;
  }
};

enum class Direction { kHigherIsBetter, kLowerIsBetter };

class Reporter {
 public:
  Reporter(std::string bench_name, BenchArgs args)
      : name_(std::move(bench_name)), args_(std::move(args)) {}

  bool enabled() const { return args_.json; }
  bool smoke() const { return args_.smoke; }

  /// Record one metric. Pinned metrics form the regression contract that
  /// tools/bench_diff.py enforces; unpinned ones are informational.
  void metric(const std::string& name, double value, const std::string& unit,
              Direction better, bool pinned = false) {
    metrics_.push_back({name, value, unit, better, pinned});
  }

  /// Append the row to the trajectory file. No-op without --json.
  void write() const {
    if (!args_.json) return;
    json::Value doc = load_or_init();
    doc.set("rows", appended_rows(doc));
    std::ofstream out(args_.out, std::ios::trunc);
    HPC_REQUIRE(out.good(), "bench: cannot write trajectory " + args_.out);
    out << render(doc);
    std::cerr << "bench " << name_ << ": trajectory row '" << args_.label
              << "' (" << metrics_.size() << " metrics) appended to "
              << args_.out << "\n";
  }

  /// The row's environment fingerprint. bench_diff warns when two compared
  /// rows disagree here: a cross-machine or smoke-vs-full comparison is
  /// still printable, but it is not a regression verdict.
  json::Value fingerprint() const {
    json::Value fp = json::Value::object();
    fp.set("build", json::Value::string(build_type()));
    fp.set("compiler", json::Value::string(compiler()));
    fp.set("cpu", json::Value::string(cpu_model()));
    fp.set("mode", json::Value::string(args_.smoke ? "smoke" : "full"));
    fp.set("threads",
           json::Value::number(static_cast<double>(worker_threads())));
    return fp;
  }

  static std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

  static std::string build_type() {
#ifdef NDEBUG
    return "release";
#else
    return "debug";
#endif
  }

  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t colon = line.find(':');
      if (line.compare(0, 10, "model name") == 0 &&
          colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
    return "unknown";
  }

  static std::size_t worker_threads() {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    Direction better = Direction::kHigherIsBetter;
    bool pinned = false;
  };

  json::Value row() const {
    json::Value metrics = json::Value::object();
    for (const auto& m : metrics_) {
      json::Value entry = json::Value::object();
      entry.set("better", json::Value::string(
                              m.better == Direction::kHigherIsBetter
                                  ? "higher"
                                  : "lower"));
      entry.set("pinned", json::Value::boolean(m.pinned));
      entry.set("unit", json::Value::string(m.unit));
      entry.set("value", json::Value::number(m.value));
      metrics.set(m.name, std::move(entry));
    }
    json::Value r = json::Value::object();
    r.set("fingerprint", fingerprint());
    r.set("label", json::Value::string(args_.label));
    r.set("metrics", std::move(metrics));
    r.set("utc", json::Value::string(utc_now()));
    return r;
  }

  json::Value load_or_init() const {
    std::ifstream in(args_.out);
    if (in.good()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      json::Value doc = json::Value::parse(buf.str());
      const json::Value* bench = doc.find("bench");
      HPC_REQUIRE(bench != nullptr && bench->is_string() &&
                      bench->as_string() == BenchArgs::file_slug(name_),
                  "bench: " + args_.out + " belongs to another bench; "
                  "pass --out to write elsewhere");
      return doc;
    }
    json::Value doc = json::Value::object();
    doc.set("bench", json::Value::string(BenchArgs::file_slug(name_)));
    doc.set("schema", json::Value::number(1));
    doc.set("rows", json::Value::array());
    return doc;
  }

  json::Value appended_rows(const json::Value& doc) const {
    json::Value rows = json::Value::array();
    if (const json::Value* existing = doc.find("rows")) {
      for (const auto& r : existing->items()) rows.push_back(r);
    }
    rows.push_back(row());
    return rows;
  }

  /// One row per line: readable diffs, still a single JSON document.
  static std::string render(const json::Value& doc) {
    std::string out = "{\"bench\":";
    out += json::quote(doc.find("bench")->as_string());
    out += ",\"schema\":";
    out += json::dump_number(doc.find("schema")->as_number());
    out += ",\"rows\":[\n";
    const auto& rows = doc.find("rows")->items();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].dump_to(out, /*sort_keys=*/true);
      if (i + 1 < rows.size()) out.push_back(',');
      out.push_back('\n');
    }
    out += "]}\n";
    return out;
  }

  static std::string utc_now() {
    const std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[80];  // worst-case %04d expansions stay within bounds
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                  tm.tm_min, tm.tm_sec);
    return buf;
  }

  std::string name_;
  BenchArgs args_;
  std::vector<Metric> metrics_;
};

}  // namespace hpcarbon::bench
