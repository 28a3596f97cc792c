#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/error.h"
#include "net/framing.h"
#include "net/listener.h"

namespace hpcarbon::net {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// epoll user data: low 32 bits fd, high 32 bits connection generation.
// The generation guard matters within one epoll_wait batch: closing a
// connection and accepting a new one can recycle the fd number before the
// old fd's queued events are processed, and those stale events must not
// touch the new connection.
std::uint64_t epoll_key(int fd, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(fd);
}

// Responses are ~100-200 bytes; batching them into shared blocks turns a
// syscall per response into a vectored write per tens-of-KB.
constexpr std::size_t kOutBlockTarget = std::size_t{32} << 10;
constexpr int kMaxIov = 16;

obs::MetricsRegistry& registry_of(const ServerOptions& opts) {
  return opts.serve.registry != nullptr ? *opts.serve.registry
                                        : obs::MetricsRegistry::global();
}

}  // namespace

struct Server::Conn {
  explicit Conn(std::size_t max_line_bytes) : framer(max_line_bytes) {}

  int fd = -1;
  std::uint32_t gen = 0;
  LineFramer framer;
  // Requests awaiting answers, in arrival order. A worker fills
  // slot.response and posts the task; the IO thread marks the slot done
  // when it collects that completion. Only the IO thread pushes/pops, and
  // std::deque never relocates other elements, so a worker's Slot* stays
  // valid until its slot is popped (which requires done == true).
  std::deque<Slot> slots;
  // Response bytes of done slots not yet popped: answers held behind an
  // unfinished request (see hold()).
  std::size_t held_bytes = 0;
  // Untransmitted response bytes, as a queue of append-only blocks;
  // front_off is the partial-write offset into the front block.
  std::deque<std::string> outq;
  std::size_t front_off = 0;
  std::size_t out_bytes = 0;
  std::uint64_t last_activity_ms = 0;
  std::uint64_t opened_at_ticks = 0;  // obs::ticks() at accept
  std::uint32_t interest = 0;  // current epoll event mask
  bool got_eof = false;
  bool paused = false;  // read high-watermark backpressure
  bool closed = false;

  /// What the read watermark weighs: answered, untransmitted bytes.
  std::size_t backlog() const { return out_bytes + held_bytes; }
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      fe_stats_(registry_of(opts_)),
      connections_closed_(registry_of(opts_).counter(
          "hpcarbon_net_connections_closed_total", "", "Connections closed.")),
      queue_depth_(registry_of(opts_).gauge(
          "hpcarbon_net_queue_depth", "",
          "Requests queued or executing on the worker pool.")),
      conn_lifetime_us_(registry_of(opts_).histogram(
          "hpcarbon_net_conn_lifetime_us", "",
          "Connection lifetime, accept to close (overflow bucket past "
          "100 s).")),
      engine_(opts_.serve) {}

Server::~Server() {
  close_listeners();
  for (auto& [fd, c] : conns_) {
    if (!c->closed) {
      c->closed = true;
      ::close(c->fd);
    }
  }
  conns_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Server::start() {
  HPC_REQUIRE(!started_, "net: Server::start called twice");
  HPC_REQUIRE(!opts_.tcp.empty() || !opts_.unix_path.empty(),
              "net: no listen endpoint configured (need tcp and/or unix)");
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw Error("net: epoll_create1 failed");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw Error("net: eventfd failed");

  auto add = [&](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = epoll_key(fd, 0);
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw Error("net: epoll_ctl(ADD) failed");
    }
  };
  add(wake_fd_);
  if (!opts_.tcp.empty()) {
    tcp_listen_fd_ = listen_tcp(opts_.tcp);
    tcp_endpoint_ = bound_endpoint(tcp_listen_fd_);
    add(tcp_listen_fd_);
  }
  if (!opts_.unix_path.empty()) {
    unix_listen_fd_ = listen_unix(opts_.unix_path);
    add(unix_listen_fd_);
  }
  started_ = true;
}

void Server::begin_drain() {
  // Async-signal-safe: one atomic increment plus an eventfd write.
  drain_requests_.fetch_add(1, std::memory_order_acq_rel);
  wake();
}

void Server::wake() {
  const std::uint64_t one = 1;
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
  // EAGAIN means the counter is already huge — the loop is awake anyway.
}

void Server::close_listeners() {
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  if (unix_listen_fd_ >= 0) {
    ::close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    ::unlink(opts_.unix_path.c_str());
  }
}

void Server::pause_accept(bool paused) {
  for (const int fd : {tcp_listen_fd_, unix_listen_fd_}) {
    if (fd < 0) continue;
    epoll_event ev{};
    ev.events = paused ? 0 : static_cast<std::uint32_t>(EPOLLIN);
    ev.data.u64 = epoll_key(fd, 0);
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
  accept_paused_ = paused;
}

void Server::accept_ready(int listen_fd) {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // EMFILE/ENFILE and friends: stop watching the listeners briefly,
      // otherwise level-triggered epoll spins on the un-acceptable
      // connection at 100% CPU.
      accept_resume_ms_ = now_ms_ + 100;
      pause_accept(true);
      return;
    }
    if (conns_.size() >= opts_.max_conns) {
      ::close(fd);  // explicit refusal: the client sees EOF immediately
      continue;
    }
    const int one = 1;
    // No-op (harmless failure) on Unix-domain sockets.
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto c = std::make_shared<Conn>(opts_.max_line_bytes);
    c->fd = fd;
    c->gen = ++conn_gen_;
    c->last_activity_ms = now_ms_;
    c->opened_at_ticks = obs::ticks();
    c->interest = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = epoll_key(fd, c->gen);
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(c));
    fe_stats_.connections_accepted.inc();
    fe_stats_.connections_active.add(1);
  }
}

void Server::close_conn(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  c->closed = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  fe_stats_.connections_active.sub(1);
  connections_closed_.inc();
  conn_lifetime_us_.record_ns(
      obs::elapsed_ns(c->opened_at_ticks, obs::ticks()));
  conns_.erase(c->fd);  // `c` is the caller's own shared_ptr; still valid
}

void Server::maybe_finish_conn(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  // Finished = no more input will arrive (peer EOF or server drain) and
  // every received request has been answered and transmitted.
  if ((c->got_eof || draining_) && c->slots.empty() && c->out_bytes == 0) {
    close_conn(c);
  }
}

void Server::update_interest(const std::shared_ptr<Conn>& c) {
  if (c->closed) return;
  std::uint32_t want = 0;
  if (!c->got_eof && !c->paused && !draining_) want |= EPOLLIN;
  if (c->out_bytes > 0) want |= EPOLLOUT;
  if (want == c->interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = epoll_key(c->fd, c->gen);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) < 0) {
    close_conn(c);
    return;
  }
  c->interest = want;
}

std::string& Server::out_block(Conn& c) {
  if (c.outq.empty() || c.outq.back().size() >= kOutBlockTarget) {
    c.outq.emplace_back();
  }
  return c.outq.back();
}

void Server::enqueue(const std::shared_ptr<Conn>& c,
                     const LineFramer::Item& item) {
  // The first half runs here, so an invalid request or a cache hit is
  // answered with no thread hop: straight into the output block when
  // nothing earlier is pending (the zero-copy path the pipe loop uses),
  // else into a slot behind it.
  const bool behind = !c->slots.empty();
  std::string& out = behind ? c->slots.emplace_back().response : out_block(*c);
  const std::size_t before = out.size();
  serve::PlannedLine planned;
  bool answered = true;
  if (item.kind == LineFramer::Item::Kind::kOversize) {
    // The framer never buffered the line: answer it without an id.
    serve::append_error_response(
        out, {}, serve::oversize_line_error(item.oversize_bytes));
  } else {
    answered = engine_.begin_line(item.line, out, planned);
    if (!answered && opts_.workers == 0) {
      engine_.finish_line(planned, out);  // inline mode: no worker to wait for
      answered = true;
    }
  }
  if (answered) {
    fe_stats_.max_inflight.observe_max(1);
    out += '\n';
    if (behind) {
      hold(*c, c->slots.back());
    } else {
      c->out_bytes += out.size() - before;
    }
    return;
  }
  Slot& slot = behind ? c->slots.back() : c->slots.emplace_back();
  slot.planned = std::move(planned);
  if (!try_submit(c, &slot)) {
    // Shed: answer in-order with an explicit error instead of queueing.
    fe_stats_.requests_shed.inc();
    serve::append_error_response(
        slot.response, {},
        "server overloaded: in-flight queue full (max " +
            std::to_string(opts_.max_inflight) + "), request shed");
    slot.response += '\n';
    hold(*c, slot);
  }
}

void Server::hold(Conn& c, Slot& slot) {
  // Answered: its bytes weigh on the read watermark until
  // drain_ready_slots moves them to the output queue.
  c.held_bytes += slot.response.size();
  slot.done = true;
}

void Server::process_framed(const std::shared_ptr<Conn>& c, bool at_eof) {
  while (true) {
    LineFramer::Item item = c->framer.next();
    if (item.kind == LineFramer::Item::Kind::kNone) {
      if (!at_eof) break;
      item = c->framer.finish();  // trailing unterminated line, if any
      at_eof = false;
      if (item.kind == LineFramer::Item::Kind::kNone) break;
    }
    enqueue(c, item);
  }
}

void Server::read_ready(const std::shared_ptr<Conn>& c) {
  char chunk[65536];
  // Cap the reads per event so one firehose connection cannot starve the
  // rest of the loop; level-triggered epoll re-delivers what is left.
  for (int i = 0; i < 8 && !c->closed && !c->paused; ++i) {
    const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      fe_stats_.bytes_in.inc(static_cast<std::uint64_t>(n));
      c->last_activity_ms = now_ms_;
      c->framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
      process_framed(c, /*at_eof=*/false);
      if (c->backlog() > opts_.read_high_watermark) c->paused = true;
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;  // drained
      continue;
    }
    if (n == 0) {
      // Peer EOF (possibly a half-close: keep flushing responses).
      c->got_eof = true;
      process_framed(c, /*at_eof=*/true);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(c);  // ECONNRESET and friends
    return;
  }
  if (c->closed) return;
  drain_ready_slots(c);
  flush(c);
  if (c->closed) return;
  update_interest(c);
  maybe_finish_conn(c);
}

void Server::drain_ready_slots(const std::shared_ptr<Conn>& c) {
  while (!c->slots.empty() && c->slots.front().done) {
    std::string& resp = c->slots.front().response;
    const std::size_t bytes = resp.size();
    if (c->outq.empty() || c->outq.back().size() >= kOutBlockTarget) {
      c->outq.push_back(std::move(resp));  // adopt the buffer, no copy
    } else {
      c->outq.back().append(resp);
    }
    c->held_bytes -= bytes;
    c->out_bytes += bytes;
    c->slots.pop_front();
  }
}

void Server::flush(const std::shared_ptr<Conn>& c) {
  while (c->out_bytes > 0 && !c->closed) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t off = c->front_off;
    for (const std::string& block : c->outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<char*>(block.data()) + off;
      iov[iovcnt].iov_len = block.size() - off;
      ++iovcnt;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // EPOLLOUT rearms
      close_conn(c);  // EPIPE/ECONNRESET: peer is gone
      return;
    }
    fe_stats_.bytes_out.inc(static_cast<std::uint64_t>(n));
    c->last_activity_ms = now_ms_;
    c->out_bytes -= static_cast<std::size_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      const std::size_t avail = c->outq.front().size() - c->front_off;
      if (left >= avail) {
        left -= avail;
        c->outq.pop_front();
        c->front_off = 0;
      } else {
        c->front_off += left;
        left = 0;
      }
    }
  }
  if (!c->closed && c->paused &&
      c->backlog() < opts_.read_high_watermark / 2) {
    c->paused = false;  // update_interest re-arms EPOLLIN
  }
}

void Server::conn_event(const std::shared_ptr<Conn>& c, std::uint32_t events) {
  if (c->closed) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    close_conn(c);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    flush(c);
    if (c->closed) return;
  }
  if ((events & EPOLLIN) != 0) {
    read_ready(c);  // flushes + updates interest itself
  } else {
    update_interest(c);
    maybe_finish_conn(c);
  }
}

void Server::sweep_idle() {
  if (opts_.idle_timeout_s <= 0) return;
  const auto limit_ms =
      static_cast<std::uint64_t>(opts_.idle_timeout_s * 1000.0);
  std::vector<std::shared_ptr<Conn>> victims;
  for (const auto& [fd, c] : conns_) {
    if (!c->slots.empty() || c->out_bytes > 0) continue;  // busy, not idle
    if (now_ms_ - c->last_activity_ms >= limit_ms) victims.push_back(c);
  }
  for (const auto& c : victims) close_conn(c);
}

void Server::drain_completions() {
  std::vector<Task> done;
  {
    MutexLock lock(done_mu_);
    done.swap(done_);
  }
  for (const Task& t : done) {
    const std::shared_ptr<Conn>& c = t.conn;
    if (c->closed) continue;
    hold(*c, *t.slot);
    drain_ready_slots(c);
    flush(c);
    if (c->closed) continue;
    update_interest(c);
    maybe_finish_conn(c);
  }
}

void Server::run() {
  HPC_REQUIRE(started_, "net: Server::run before start");
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }

  // Epoll timeout doubles as the idle-sweep tick: fine-grained enough to
  // honor sub-second timeouts (tests), 1s when timeouts are long/off.
  int tick_ms = 1000;
  if (opts_.idle_timeout_s > 0) {
    const auto quarter =
        static_cast<int>(opts_.idle_timeout_s * 1000.0 / 4.0);
    tick_ms = quarter < 10 ? 10 : (quarter > 1000 ? 1000 : quarter);
  }

  std::vector<epoll_event> events(256);
  std::uint32_t drain_seen = 0;
  now_ms_ = steady_ms();
  while (true) {
    const std::uint32_t dr = drain_requests_.load(std::memory_order_acquire);
    if (dr > drain_seen) {
      drain_seen = dr;
      if (!draining_) {
        draining_ = true;
        close_listeners();
        // Stop reading everywhere; answer what was already received.
        std::vector<std::shared_ptr<Conn>> all;
        all.reserve(conns_.size());
        for (const auto& [fd, c] : conns_) all.push_back(c);
        for (const auto& c : all) {
          drain_ready_slots(c);
          flush(c);
          if (c->closed) continue;
          update_interest(c);
          maybe_finish_conn(c);
        }
      } else {
        // Second drain request: force shutdown, abandon pending work.
        {
          MutexLock lock(task_mu_);
          task_queue_.clear();
        }
        std::vector<std::shared_ptr<Conn>> all;
        all.reserve(conns_.size());
        for (const auto& [fd, c] : conns_) all.push_back(c);
        for (const auto& c : all) close_conn(c);
      }
    }
    if (draining_ && conns_.empty()) break;

    const int n =
        epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), tick_ms);
    now_ms_ = steady_ms();
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("net: epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      const int fd = static_cast<int>(key & 0xffffffffu);
      const auto gen = static_cast<std::uint32_t>(key >> 32);
      if (fd == wake_fd_) {
        std::uint64_t counter = 0;
        while (::read(wake_fd_, &counter, sizeof(counter)) < 0 &&
               errno == EINTR) {
        }
        drain_completions();
        continue;
      }
      if (fd == tcp_listen_fd_ || fd == unix_listen_fd_) {
        accept_ready(fd);
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end() || it->second->gen != gen) continue;  // stale
      const std::shared_ptr<Conn> c = it->second;  // close_conn erases
      conn_event(c, events[i].events);
    }
    // Completions can land while we were processing events; picking them
    // up here saves an eventfd round-trip.
    drain_completions();
    if (accept_paused_ && !draining_ && now_ms_ >= accept_resume_ms_) {
      pause_accept(false);
    }
    if (now_ms_ - last_sweep_ms_ >= static_cast<std::uint64_t>(tick_ms)) {
      last_sweep_ms_ = now_ms_;
      sweep_idle();
    }
  }

  {
    MutexLock lock(task_mu_);
    workers_stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  {
    MutexLock lock(done_mu_);
    done_.clear();
  }
}

bool Server::try_submit(std::shared_ptr<Conn> c, Slot* slot) {
  {
    MutexLock lock(task_mu_);
    const std::size_t inflight = task_queue_.size() + executing_;
    if (inflight >= opts_.max_inflight) return false;
    task_queue_.push_back(Task{std::move(c), slot});
    const auto seen = static_cast<std::int64_t>(inflight + 1);
    queue_depth_.set(seen);
    fe_stats_.max_inflight.observe_max(seen);
  }
  task_cv_.notify_one();
  return true;
}

void Server::post_completion(Task task) {
  bool was_empty = false;
  {
    MutexLock lock(done_mu_);
    was_empty = done_.empty();
    done_.push_back(std::move(task));
  }
  if (was_empty) wake();  // coalesce: one eventfd write per burst
}

void Server::worker_loop() {
  while (true) {
    Task task;
    {
      MutexLock lock(task_mu_);
      while (task_queue_.empty() && !workers_stop_) task_cv_.wait(task_mu_);
      if (task_queue_.empty()) break;  // stop requested and queue drained
      task = std::move(task_queue_.front());
      task_queue_.pop_front();
      ++executing_;
    }
    engine_.finish_line(task.slot->planned, task.slot->response);
    task.slot->response += '\n';
    {
      MutexLock lock(task_mu_);
      --executing_;
      queue_depth_.set(
          static_cast<std::int64_t>(task_queue_.size() + executing_));
    }
    post_completion(std::move(task));
  }
}

// ---------------------------------------------------------------------------
// Signal-driven drain.

namespace {
std::atomic<Server*> g_drain_server{nullptr};
struct sigaction g_prev_term;
struct sigaction g_prev_int;

void drain_signal_handler(int) {
  const int saved_errno = errno;
  Server* s = g_drain_server.load(std::memory_order_acquire);
  if (s != nullptr) s->begin_drain();
  errno = saved_errno;
}
}  // namespace

void install_signal_drain(Server& server) {
  g_drain_server.store(&server, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, &g_prev_term);
  sigaction(SIGINT, &sa, &g_prev_int);
}

void uninstall_signal_drain() {
  sigaction(SIGTERM, &g_prev_term, nullptr);
  sigaction(SIGINT, &g_prev_int, nullptr);
  g_drain_server.store(nullptr, std::memory_order_release);
}

}  // namespace hpcarbon::net
