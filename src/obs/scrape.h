// Unix-domain metrics scrape endpoint (`hpcarbon serve --metrics-unix`).
//
// The daemon's data plane speaks line-delimited JSON; operators' scrape
// tooling wants Prometheus text. Rather than multiplexing the two on one
// socket, the daemon exposes a second, trivially simple endpoint: each
// connection receives one full Prometheus exposition of the registry
// (after an optional pre-scrape hook — the serve daemon sets its uptime
// gauge there; every other count is already in the registry) and is
// closed. `hpcarbon metrics
// --unix PATH` and any netcat-style scraper read it without speaking a
// protocol; the CI loopback smoke validates the format with
// tools/check_prometheus.py.
//
// One blocking accept-loop thread; stop() closes the listener, which
// unblocks accept and joins the thread. No epoll, no pipelining — a
// scrape every few seconds is not a data plane.
#pragma once

#include <functional>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace hpcarbon::obs {

class ScrapeServer {
 public:
  /// `registry` nullptr selects MetricsRegistry::global(). `pre_scrape`
  /// (may be empty) runs before every snapshot, on the scrape thread.
  explicit ScrapeServer(std::string unix_path,
                        MetricsRegistry* registry = nullptr,
                        std::function<void()> pre_scrape = {});
  ~ScrapeServer();  // stop() + join + unlink

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Bind + listen + spawn the accept thread. Throws hpcarbon::Error on
  /// any socket failure (stale socket files are unlinked first).
  void start();
  /// Close the listener and join the accept thread; idempotent.
  void stop();

  const std::string& path() const { return path_; }

 private:
  void accept_loop();

  std::string path_;
  MetricsRegistry* registry_;
  std::function<void()> pre_scrape_;
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace hpcarbon::obs
