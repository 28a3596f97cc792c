// The correctness oracle of the query workloads: every line the socket
// answered is answered again by Engine::handle_batch on a fresh engine
// (large cache, private trace store and registry), and the two answers
// must be byte-identical. {"op":"stats"} answers depend on counters, so
// for them only "ok":true is required. Shed and unanswered requests are
// failures the run counts, not mismatches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"

namespace perfbench {

class Oracle {
 public:
  Oracle();
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Mismatches among `lines`, whose answers arrived as `digests` with
  /// `outcomes` (parallel arrays). Describes the first few in `problems`.
  std::size_t check(const std::vector<std::string>& lines,
                    const std::uint64_t* digests, const Outcome* outcomes,
                    std::vector<std::string>& problems);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
