// Tool registry behind the unified `hpcarbon` driver.
//
// Every example and figure/table bench file defines a file-local
// `tool_main(int, char**)` and closes with HPCARBON_TOOL(name, kind, desc).
// Compiled standalone (-DHPCARBON_STANDALONE) the macro emits a forwarding
// main(), so `./bench/bench_fig1` keeps working; compiled into the driver it
// registers the entry point here instead, so `hpcarbon bench fig1` routes
// to the same code with no duplicated logic.
#pragma once

#include <string>
#include <vector>

namespace hpcarbon::cli {

enum class ToolKind { kBench, kExample };

const char* to_string(ToolKind kind);

struct ToolEntry {
  std::string name;         // subcommand name, e.g. "fig1", "quickstart"
  ToolKind kind = ToolKind::kBench;
  std::string description;  // one line for `hpcarbon list`
  int (*fn)(int, char**) = nullptr;
};

/// Idempotent per name: re-registering an existing name replaces the entry.
void register_tool(ToolEntry entry);

/// All registered tools, sorted by (kind, name).
std::vector<ToolEntry> tools();

/// nullptr when no tool has that name.
const ToolEntry* find_tool(const std::string& name);

}  // namespace hpcarbon::cli

#ifdef HPCARBON_STANDALONE
#include <iostream>

#include "core/error.h"

// Same exit contract as `hpcarbon`'s main: a bad flag or input is a
// one-line error and exit 1, never an uncaught-exception abort.
#define HPCARBON_TOOL(name_, kind_, desc_)                     \
  int main(int argc, char** argv) {                            \
    try {                                                      \
      return tool_main(argc, argv);                            \
    } catch (const ::hpcarbon::Error& e) {                     \
      std::cerr << "hpcarbon: " << e.what() << '\n';           \
      return 1;                                                \
    }                                                          \
  }
#else
#define HPCARBON_TOOL(name_, kind_, desc_)                         \
  namespace {                                                      \
  [[maybe_unused]] const bool hpcarbon_tool_registered = [] {      \
    ::hpcarbon::cli::register_tool(                                \
        {name_, ::hpcarbon::cli::kind_, desc_, &tool_main});       \
    return true;                                                   \
  }();                                                             \
  }
#endif
