#include "cli/registry.h"

#include <algorithm>
#include <deque>
#include <iostream>
#include <tuple>
#include <utility>

#include "core/options.h"
#include "core/thread_annotations.h"

namespace hpcarbon::cli {

namespace {

struct Registry {
  AnnotatedMutex mu;
  /// Deque, not vector: entries are append-or-replace only and a deque
  /// never relocates survivors, so the pointers find_tool hands out stay
  /// valid for the process lifetime; the lock serializes registration
  /// against concurrent enumeration in a daemon.
  std::deque<ToolEntry> entries HPCARBON_GUARDED_BY(mu);
};

// Function-local static: tool registrars run during static initialization
// of other translation units, before any global here would be guaranteed
// constructed.
Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

const char* to_string(ToolKind kind) {
  switch (kind) {
    case ToolKind::kBench:
      return "bench";
    case ToolKind::kExample:
      return "example";
  }
  return "unknown";
}

ToolEntry tool_entry(std::string name, ToolKind kind, std::string description,
                     int (*main)(int, char**)) {
  return {std::move(name), kind, std::move(description), main};
}

ToolEntry tool_entry(std::string name, ToolKind kind, std::string description,
                     int (*main)()) {
  const options::Table flags(std::string(to_string(kind)) + " " + name, "",
                             description);
  return {std::move(name), kind, std::move(description),
          [flags, main](int argc, char** argv) {
            return flags.parse(argc - 1, argv + 1, std::cout) ? main() : 0;
          }};
}

void register_tool(ToolEntry entry) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  for (auto& e : r.entries) {
    if (e.name == entry.name) {
      e = std::move(entry);
      return;
    }
  }
  r.entries.push_back(std::move(entry));
}

std::vector<ToolEntry> tools() {
  Registry& r = registry();
  std::vector<ToolEntry> sorted;
  {
    MutexLock lock(r.mu);
    sorted.assign(r.entries.begin(), r.entries.end());
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const ToolEntry& a, const ToolEntry& b) {
              return std::tie(a.kind, a.name) < std::tie(b.kind, b.name);
            });
  return sorted;
}

const ToolEntry* find_tool(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  for (const auto& e : r.entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace hpcarbon::cli
