// Open-loop load generator of the benchmark.
//
// Requests go out on a precomputed Poisson schedule whether or not earlier
// answers have come back (independent dashboard users), round-robin over
// at most four connections; each connection answers in order, so request
// i is the (i / conns)-th answer on connection i % conns. Latency runs
// from the *scheduled* send time, so a stall is charged to every request
// queued behind it, and the client's own lateness against the schedule is
// recorded separately. The open loop polls its sockets without sleeping
// until its last send, so the client's own wake-up delay is not part of
// any latency. A closed loop, for the saturation rate, keeps a
// fixed number of requests outstanding instead. Responses are kept only
// as 64-bit digests and an outcome class, so a run of a million requests
// stays small.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

enum class Outcome : std::uint8_t {
  kUnanswered = 0,
  kOk,      // "ok":true
  kError,   // "ok":false other than shedding
  kShed,    // "ok":false "server overloaded"
};

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t shed = 0;
  std::size_t unanswered = 0;
  std::vector<double> latency_us;     // per request; answered only valid
  std::vector<double> lag_us;         // send time minus scheduled time
  std::vector<double> done_us;        // answer time, from phase start
  std::vector<std::uint64_t> digest;  // per request response digest
  std::vector<Outcome> outcome;
  double scheduled_s = 0;   // phase start to the last scheduled send
  double answered_s = 0;    // phase start to the last answer

  std::size_t failed() const { return errors + shed + unanswered; }
  /// Latencies of answered requests only, in schedule order.
  std::vector<double> answered_latencies() const;
};

/// Appends request i, newline-terminated, to the buffer.
using LineFn = std::function<void(std::size_t, std::string&)>;

/// Blocking TCP connect to "host:port", then TCP_NODELAY and O_NONBLOCK.
/// Returns -1 on failure.
int connect_tcp_nonblocking(const std::string& host_port);

/// Replay `schedule_us.size()` requests over `fds`. Requests not answered
/// within `timeout_s` after the last scheduled send count as unanswered.
PhaseResult run_open_loop(const std::vector<int>& fds,
                          const std::vector<double>& schedule_us,
                          const LineFn& line, double timeout_s);

/// Closed loop: each connection keeps `window` requests outstanding and
/// sends the next as soon as one is answered, until `seconds` have passed
/// or `count` requests have gone out; then it waits up to `timeout_s` for
/// the rest. Latency runs from the actual send time; `attempted` is the
/// number sent.
PhaseResult run_closed_loop(const std::vector<int>& fds, std::size_t count,
                            const LineFn& line, std::size_t window,
                            double seconds, double timeout_s);

/// Closed batches: `count` requests sent `batch` at a time, each batch
/// after the previous one is fully answered.
PhaseResult run_batches(const std::vector<int>& fds, std::size_t count,
                        const LineFn& line, std::size_t batch,
                        double timeout_s);

}  // namespace perfbench
