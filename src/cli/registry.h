// Tool registry behind the unified `hpcarbon` driver.
//
// Every example and figure/table bench file defines a file-local
// `tool_main` and closes with HPCARBON_TOOL(name, kind, desc), which
// registers the entry point here, so `hpcarbon bench fig1` routes to it.
// Each file is compiled once, into the driver. A tool reads its arguments
// only through an options::Table: `tool_main(int argc, char** argv)`
// parses its own, and a `tool_main()` that takes none is wrapped in an
// empty table named after the tool, so any argument is an error and
// --help prints its usage.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace hpcarbon::cli {

enum class ToolKind { kBench, kExample };

const char* to_string(ToolKind kind);

struct ToolEntry {
  std::string name;         // subcommand name, e.g. "fig1", "quickstart"
  ToolKind kind = ToolKind::kBench;
  std::string description;  // one line for `hpcarbon list`
  std::function<int(int, char**)> fn;  // argv[0] is the tool's name
};

/// The entry of a tool that parses its own arguments.
ToolEntry tool_entry(std::string name, ToolKind kind, std::string description,
                     int (*main)(int, char**));
/// The entry of a tool that takes no arguments: an empty options::Table
/// named "<kind> <name>", with the description as its summary, parses
/// them before `main` runs.
ToolEntry tool_entry(std::string name, ToolKind kind, std::string description,
                     int (*main)());

/// Idempotent per name: re-registering an existing name replaces the entry.
void register_tool(ToolEntry entry);

/// All registered tools, sorted by (kind, name).
std::vector<ToolEntry> tools();

/// nullptr when no tool has that name.
const ToolEntry* find_tool(const std::string& name);

}  // namespace hpcarbon::cli

#define HPCARBON_TOOL(name_, kind_, desc_)                           \
  namespace {                                                        \
  [[maybe_unused]] const bool hpcarbon_tool_registered = [] {        \
    ::hpcarbon::cli::register_tool(::hpcarbon::cli::tool_entry(      \
        name_, ::hpcarbon::cli::kind_, desc_, &tool_main));          \
    return true;                                                     \
  }();                                                               \
  }
