// Epoll network front-end: thousands of concurrent TCP / Unix-domain
// connections multiplexed onto one serve::Engine.
//
// Architecture — one IO thread, an optional worker pool:
//
//   * The IO thread (the caller of run()) owns the epoll set, accepts,
//     reads, frames request lines (net/framing.h — shared max-line guard
//     with the pipe/batch front-ends), and writes responses. Per
//     connection it keeps a LineFramer, an ordered slot queue of
//     requests awaiting answers, and an output block queue written with
//     vectored sendmsg (partial writes and EINTR/EAGAIN handled; blocks
//     amortize hundreds of small responses per syscall).
//   * The IO thread also runs the first half of every request,
//     Engine::begin_line: it parses the line and answers an invalid
//     request or a cache hit on the spot, with no thread hop. The answer
//     goes straight into the output block when nothing earlier on the
//     connection is pending, else into a slot already marked done.
//   * Workers (`workers` threads) answer the rest — cache misses and the
//     stats/metrics control requests — with Engine::finish_line into the
//     slot's own response buffer. They pull these from a bounded global
//     in-flight queue. When the queue is full the request is *shed*
//     instead of queued: the client gets an explicit ok:false "server
//     overloaded" response in-order, and net_shed counts it. Only a
//     request bound for a worker can be shed; a hit never is. With
//     `workers == 0` the IO thread finishes every request itself (no
//     queue, no shedding — backpressure is purely the read watermark +
//     TCP); this is the fastest shape on a single-core host and mirrors
//     the classic single-threaded event-loop servers.
//
// Pipelining: clients may send any number of requests without waiting;
// responses always come back in request order per connection (slots
// complete out of order across workers, but are flushed strictly FIFO).
//
// Overload & abuse guards: bounded in-flight queue (shed), per-connection
// read high-watermark (reads pause while the connection's answered but
// untransmitted bytes are large: the output backlog plus the answers held
// behind a request still in flight), shared max request-line length
// (oversized lines are answered with the serve::oversize_line_error
// document and the connection resyncs at the next newline), max
// connection count (excess accepts are closed immediately), idle timeout.
//
// Graceful drain: begin_drain() (or SIGTERM via
// install_signal_drain/uninstall_signal_drain) stops accepting — the
// listeners close, so new connects are refused — finishes every request
// already received, flushes all responses, closes the connections, and
// run() returns. A second drain request forces immediate shutdown.
//
// Responses are byte-identical to the pipe and batch front-ends for the
// same request stream: framing rules are shared, and the engine is a
// pure function of the canonical request.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>

#include "core/thread_annotations.h"
#include "net/framing.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/limits.h"

namespace hpcarbon::net {

struct ServerOptions {
  /// Engine configuration (cache geometry, trace store, registry). The
  /// server's FrontEndStats registers in the same registry as the engine,
  /// whose {"op":"stats"} reads those series as its net_* fields.
  serve::ServeOptions serve;

  /// TCP listen address "host:port" (port 0 = ephemeral; see
  /// Server::tcp_endpoint). Empty = no TCP listener.
  std::string tcp;
  /// Unix-domain socket path (unlinked on drain). Empty = no UDS
  /// listener. TCP and UDS listeners can be active simultaneously.
  std::string unix_path;

  /// Worker threads evaluating cache misses and answering stats/metrics;
  /// the IO thread answers hits and invalid requests itself. 0 = the IO
  /// thread answers everything (fastest on one core; an expensive cold
  /// query blocks the loop, and no shedding occurs). Default: hardware
  /// threads - 1.
  std::size_t workers = default_workers();
  /// Bounded global in-flight queue of requests bound for a worker
  /// (queued + executing). Such a request that would exceed it is shed
  /// with an explicit error response; hits never queue, so they are never
  /// shed. Ignored when workers == 0.
  std::size_t max_inflight = 4096;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_conns = 10000;
  /// Seconds with no activity and no pending work before a connection is
  /// closed. <= 0 disables the sweep.
  double idle_timeout_s = 300.0;
  /// Pause reading a connection while its answered but untransmitted
  /// bytes — output backlog plus answers held behind an unfinished
  /// request — exceed this many; resume below half.
  std::size_t read_high_watermark = std::size_t{4} << 20;
  /// Shared request-line limit (serve/limits.h).
  std::size_t max_line_bytes = serve::kMaxRequestLineBytes;

  static std::size_t default_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the configured endpoints and create the event
  /// loop plumbing. Throws hpcarbon::Error on any failure. Must be
  /// called (once) before run().
  void start();

  /// The actual "ip:port" of the TCP listener (resolves port 0). Valid
  /// after start(); empty when no TCP listener is configured.
  const std::string& tcp_endpoint() const { return tcp_endpoint_; }

  /// Run the event loop on the calling thread until drained. Spawns the
  /// worker pool on entry and joins it before returning.
  void run();

  /// Request graceful drain: stop accepting, answer everything already
  /// received, flush, close, return from run(). Callable from any
  /// thread; also callable from a signal handler (atomics + write(2)
  /// only). A second call forces immediate shutdown.
  void begin_drain();

  /// Transport instruments ({"op":"stats"} reads their series as net_*).
  const serve::FrontEndStats& stats() const { return fe_stats_; }
  serve::Engine& engine() { return engine_; }
  const ServerOptions& options() const { return opts_; }

 private:
  struct Slot {
    serve::PlannedLine planned;  // the rest of the request (worker input)
    std::string response;        // the answer, trailing '\n' included
    /// IO thread only: answered, so flushable once it reaches the front.
    /// A worker's answer counts once the IO thread collects it.
    bool done = false;
  };

  struct Conn;
  struct Task {
    std::shared_ptr<Conn> conn;
    Slot* slot = nullptr;
  };

  // IO-thread internals (no locks: single-threaded by construction).
  void accept_ready(int listen_fd);
  void conn_event(const std::shared_ptr<Conn>& c, std::uint32_t events);
  void read_ready(const std::shared_ptr<Conn>& c);
  void process_framed(const std::shared_ptr<Conn>& c, bool at_eof);
  void enqueue(const std::shared_ptr<Conn>& c, const LineFramer::Item& item);
  void hold(Conn& c, Slot& slot);
  void drain_ready_slots(const std::shared_ptr<Conn>& c);
  void flush(const std::shared_ptr<Conn>& c);
  void update_interest(const std::shared_ptr<Conn>& c);
  void close_conn(const std::shared_ptr<Conn>& c);
  void maybe_finish_conn(const std::shared_ptr<Conn>& c);
  void close_listeners();
  void pause_accept(bool paused);
  void sweep_idle();
  void drain_completions();
  std::string& out_block(Conn& c);

  // Worker pool.
  void worker_loop();
  bool try_submit(std::shared_ptr<Conn> c, Slot* slot)
      HPCARBON_EXCLUDES(task_mu_);
  void post_completion(Task task) HPCARBON_EXCLUDES(done_mu_);
  void wake();

  ServerOptions opts_;
  serve::FrontEndStats fe_stats_;
  // Transport instruments beyond the stats-op net_* set, registered in
  // the same registry as fe_stats_ (serve.registry or the global one):
  // connection churn, live queue depth, and per-connection lifetime.
  obs::Counter& connections_closed_;
  obs::Gauge& queue_depth_;
  obs::Histogram& conn_lifetime_us_;
  serve::Engine engine_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: worker completions + drain requests
  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  std::string tcp_endpoint_;
  bool started_ = false;

  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // IO thread only
  bool draining_ = false;                                 // IO thread only
  std::uint32_t conn_gen_ = 0;       // guards against same-batch fd reuse
  std::uint64_t now_ms_ = 0;         // steady clock, refreshed per wakeup
  std::uint64_t last_sweep_ms_ = 0;  // idle-sweep cadence
  bool accept_paused_ = false;       // EMFILE backoff
  std::uint64_t accept_resume_ms_ = 0;

  std::atomic<std::uint32_t> drain_requests_{0};

  AnnotatedMutex task_mu_;
  std::condition_variable_any task_cv_;
  std::deque<Task> task_queue_ HPCARBON_GUARDED_BY(task_mu_);
  std::size_t executing_ HPCARBON_GUARDED_BY(task_mu_) = 0;
  bool workers_stop_ HPCARBON_GUARDED_BY(task_mu_) = false;

  AnnotatedMutex done_mu_;
  std::vector<Task> done_ HPCARBON_GUARDED_BY(done_mu_);

  std::vector<std::thread> workers_;
};

/// Route SIGTERM/SIGINT to server.begin_drain() (handler does atomics +
/// an eventfd write only). One server at a time; uninstall restores the
/// previous dispositions.
void install_signal_drain(Server& server);
void uninstall_signal_drain();

}  // namespace hpcarbon::net
