#include "oracle.h"

#include <string_view>

#include "core/thread_pool.h"
#include "gen.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/engine.h"

namespace perfbench {

namespace serve = hpcarbon::serve;

struct Oracle::State {
  // Three pool threads: with the caller, four — the benchmark's budget.
  hpcarbon::ThreadPool pool{3};
  hpcarbon::obs::MetricsRegistry registry;
  serve::TraceStore traces;
  std::unique_ptr<serve::Engine> engine;
};

Oracle::Oracle() : state_(std::make_unique<State>()) {
  serve::ServeOptions so;
  so.cache_bytes = std::size_t{512} << 20;
  so.cache_shards = 8;
  so.pool = &state_->pool;
  so.traces = &state_->traces;
  so.registry = &state_->registry;
  state_->engine = std::make_unique<serve::Engine>(so);
}

Oracle::~Oracle() = default;

std::size_t Oracle::check(const std::vector<std::string>& lines,
                          const std::uint64_t* digests,
                          const Outcome* outcomes,
                          std::vector<std::string>& problems) {
  const std::vector<std::string> expected = state_->engine->handle_batch(lines);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Outcome o = outcomes[i];
    if (o == Outcome::kShed || o == Outcome::kUnanswered) continue;
    const bool stats = std::string_view(expected[i]).find(
                           "\"ok\":true,\"op\":\"stats\",") !=
                       std::string_view::npos;
    const bool ok =
        stats ? o == Outcome::kOk : digest(expected[i]) == digests[i];
    if (!ok) {
      ++mismatches;
      if (problems.size() < 5) {
        problems.push_back("answer to " + lines[i] +
                           " differs from Engine::handle_batch");
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
