// Traced, in-process replay of a query stream, layer by layer.
//
// The socket run shows what a client sees; this replay splits the same
// requests across the serve layers by calling each layer's public entry
// point in the order Engine::handle_line_to does, with a span around each
// call:
//
//   net::LineFramer -> serve::parse_query_line -> ResultCache::get_append
//     -> serve::evaluate -> json::Value::dump -> ResultCache::put
//
// Beside it, Engine::handle_line_to answers the same lines on a fresh
// engine of the same cache geometry, so the two see identical hit/miss
// sequences and each request's engine time can be set against the sum of
// its layer times. Spans (name, start, end, parent, request) stay in
// memory and are written out as CSV when the replay ends.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct ReplayInput {
  std::vector<std::string> warmup;    // answered untimed first, as in set-up
  std::vector<std::string> lines;     // request lines, no newline
  std::vector<int> family;            // per line: family index, -1 = stats
  std::size_t cache_bytes = 0;
  std::size_t cache_shards = 0;
  std::string spans_path;             // CSV output; empty = not written
};

struct ReplayResult {
  Metrics metrics;
  std::size_t mismatches = 0;  // layered bytes != engine bytes
};

ReplayResult replay_layers(const ReplayInput& in);

}  // namespace perfbench
