// Tool registry behind the unified `hpcarbon` driver.
//
// Every example and figure/table bench file defines a file-local
// `tool_main(int, char**)` and closes with HPCARBON_TOOL(name, kind, desc),
// which registers the entry point here, so `hpcarbon bench fig1` routes to
// it. Each file is compiled once, into the driver.
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

#define HPCARBON_TOOL(name_, kind_, desc_)                         \
  namespace {                                                      \
  [[maybe_unused]] const bool hpcarbon_tool_registered = [] {      \
    ::hpcarbon::cli::register_tool(                                \
        {name_, ::hpcarbon::cli::kind_, desc_, &tool_main});       \
    return true;                                                   \
  }();                                                             \
  }
