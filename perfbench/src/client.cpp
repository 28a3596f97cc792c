#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cstring>
#include <deque>
#include <string_view>

#include "gen.h"
#include "stats.h"

namespace perfbench {

std::vector<double> PhaseResult::answered_latencies() const {
  std::vector<double> out;
  out.reserve(ok + errors + shed);
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    if (outcome[i] != Outcome::kUnanswered) out.push_back(latency_us[i]);
  }
  return out;
}

int connect_tcp_nonblocking(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(host_port.substr(colon + 1))));
  if (inet_pton(AF_INET, host_port.substr(0, colon).c_str(), &addr.sin_addr) !=
      1) {
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

namespace {

struct Conn {
  int fd = -1;
  std::size_t index = 0;     // position in fds: carries requests index + k*n
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t answered = 0;  // responses received so far
  std::deque<std::size_t> pending;  // closed loop: requests awaiting answers
  bool broken = false;
};

Outcome classify(std::string_view resp) {
  // Success documents start {"id":..,"ok":true or {"ok":true; errors
  // start {"error":.
  if (resp.rfind("{\"error\":", 0) == 0) {
    return resp.find("server overloaded") != std::string_view::npos
               ? Outcome::kShed
               : Outcome::kError;
  }
  const std::size_t ok = resp.find("\"ok\":");
  if (ok != std::string_view::npos && resp.compare(ok + 5, 4, "true") == 0) {
    return Outcome::kOk;
  }
  return Outcome::kError;
}

/// epoll wait with a microsecond timeout (<= 0: poll without blocking).
int wait_events(int ep, epoll_event* events, int max, double timeout_us) {
  if (timeout_us <= 0) return epoll_wait(ep, events, max, 0);
  timespec ts{};
  const auto ns = static_cast<long long>(timeout_us * 1000.0);
  ts.tv_sec = static_cast<time_t>(ns / 1000000000LL);
  ts.tv_nsec = static_cast<long>(ns % 1000000000LL);
  const int k = epoll_pwait2(ep, events, max, &ts, nullptr);
  if (k < 0 && errno == ENOSYS) {
    return epoll_wait(ep, events, max, static_cast<int>(timeout_us / 1000.0));
  }
  return k;
}

/// An epoll set over the connections, with per-request result slots.
struct Session {
  int ep = -1;
  std::vector<Conn> conns;
  PhaseResult r;

  Session(const std::vector<int>& fds, std::size_t n) : conns(fds.size()) {
    r.attempted = n;
    r.latency_us.assign(n, 0.0);
    r.lag_us.assign(n, 0.0);
    r.done_us.assign(n, 0.0);
    r.digest.assign(n, 0);
    r.outcome.assign(n, Outcome::kUnanswered);
    ep = epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t c = 0; c < fds.size(); ++c) {
      conns[c].fd = fds[c];
      conns[c].index = c;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
    }
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() { close(ep); }

  /// Sends what each connection has buffered; true when some is left.
  bool flush() {
    bool backlog = false;
    for (Conn& c : conns) {
      if (c.broken || c.out_off == c.out.size()) continue;
      const ssize_t w = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
        c.broken = true;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      } else {
        backlog = true;
      }
    }
    return backlog;
  }

  /// Waits up to `wait_us` and reads every ready connection. `request_of`
  /// names the request a connection's next answer belongs to; each answer
  /// is recorded against `sent_us` of that request, at time `now_us()`.
  /// Returns the number of answers recorded.
  template <typename RequestOf, typename SentUs, typename NowUs>
  std::size_t receive(double wait_us, RequestOf&& request_of, SentUs&& sent_us,
                      NowUs&& now_us) {
    epoll_event events[8];
    const int k = wait_events(ep, events, 8, wait_us);
    if (k <= 0) return 0;
    const double t = now_us();
    const std::size_t n = r.attempted;
    std::size_t done = 0;
    char buf[1 << 16];
    for (int e = 0; e < k; ++e) {
      Conn& c = conns[events[e].data.u64];
      for (;;) {
        const ssize_t got = read(c.fd, buf, sizeof buf);
        if (got <= 0) {
          if (got == 0 || (errno != EAGAIN && errno != EINTR)) c.broken = true;
          if (got == 0) epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
          break;
        }
        c.in.append(buf, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (;;) {
          const std::size_t nl = c.in.find('\n', start);
          if (nl == std::string::npos) break;
          const std::size_t req = request_of(c);
          if (req < n) {
            const std::string_view resp(c.in.data() + start, nl - start);
            r.digest[req] = digest(resp);
            r.outcome[req] = classify(resp);
            r.latency_us[req] = t - sent_us(req);
            r.done_us[req] = t;
            ++done;
          }
          start = nl + 1;
        }
        c.in.erase(0, start);
        if (static_cast<std::size_t>(got) < sizeof buf) break;
      }
      r.answered_s = t / 1e6;
    }
    return done;
  }

  /// Counts outcomes and hands the result over.
  PhaseResult finish() {
    for (Outcome o : r.outcome) {
      switch (o) {
        case Outcome::kOk: ++r.ok; break;
        case Outcome::kError: ++r.errors; break;
        case Outcome::kShed: ++r.shed; break;
        case Outcome::kUnanswered: ++r.unanswered; break;
      }
    }
    return std::move(r);
  }
};

}  // namespace

PhaseResult run_open_loop(const std::vector<int>& fds,
                          const std::vector<double>& schedule_us,
                          const LineFn& line, double timeout_s) {
  const std::size_t n = schedule_us.size();
  const std::size_t nconn = fds.size();
  Session s(fds, n);
  if (n == 0 || nconn == 0) return s.finish();

  const Clock::time_point t0 = Clock::now();
  auto now_us = [t0] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  const double deadline_us = schedule_us.back() + timeout_s * 1e6;
  std::size_t next = 0;
  std::size_t done = 0;

  while (done < n) {
    const double t = now_us();
    if (t > deadline_us) break;
    while (next < n && schedule_us[next] <= t) {
      line(next, s.conns[next % nconn].out);
      s.r.lag_us[next] = t - schedule_us[next];
      ++next;
    }
    // Poll without sleeping while sends remain: the client has a CPU of
    // its own, and waking it from a sleep would add the host's wake-up
    // delay, tens of microseconds that drift from minute to minute, to
    // every answer.
    s.flush();
    const double wait_us = next < n ? 0.0 : 2000.0;
    done += s.receive(
        wait_us,
        [nconn](Conn& c) { return c.index + c.answered++ * nconn; },
        [&schedule_us](std::size_t i) { return schedule_us[i]; }, now_us);
  }
  s.r.scheduled_s = schedule_us.back() / 1e6;
  return s.finish();
}

PhaseResult run_closed_loop(const std::vector<int>& fds, std::size_t count,
                            const LineFn& line, std::size_t window,
                            double seconds, double timeout_s) {
  const std::size_t nconn = fds.size();
  Session s(fds, count);
  if (count == 0 || nconn == 0) return s.finish();

  const Clock::time_point t0 = Clock::now();
  auto now_us = [t0] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::vector<double> sent_us(count, 0.0);
  std::size_t next = 0;
  std::size_t done = 0;
  for (;;) {
    const double t = now_us();
    const bool sending = next < count && t < seconds * 1e6;
    if ((!sending && done == next) || t > (seconds + timeout_s) * 1e6) break;
    for (Conn& c : s.conns) {
      while (sending && next < count && !c.broken &&
             c.pending.size() < window) {
        line(next, c.out);
        c.pending.push_back(next);
        sent_us[next++] = t;
      }
    }
    done += s.receive(
        s.flush() ? 0 : 2000.0,
        [count](Conn& c) {
          if (c.pending.empty()) return count;
          const std::size_t req = c.pending.front();
          c.pending.pop_front();
          return req;
        },
        [&sent_us](std::size_t i) { return sent_us[i]; }, now_us);
  }
  s.r.attempted = next;
  s.r.latency_us.resize(next);
  s.r.lag_us.resize(next);
  s.r.done_us.resize(next);
  s.r.digest.resize(next);
  s.r.outcome.resize(next);
  s.r.scheduled_s = next > 0 ? sent_us[next - 1] / 1e6 : 0.0;
  return s.finish();
}

PhaseResult run_batches(const std::vector<int>& fds, std::size_t count,
                        const LineFn& line, std::size_t batch,
                        double timeout_s) {
  PhaseResult all;
  for (std::size_t start = 0; start < count; start += batch) {
    const std::size_t n = std::min(batch, count - start);
    const PhaseResult r = run_open_loop(
        fds, std::vector<double>(n, 0.0),
        [&](std::size_t i, std::string& out) { line(start + i, out); },
        timeout_s);
    all.attempted += r.attempted;
    all.ok += r.ok;
    all.errors += r.errors;
    all.shed += r.shed;
    all.unanswered += r.unanswered;
    all.latency_us.insert(all.latency_us.end(), r.latency_us.begin(),
                          r.latency_us.end());
    all.lag_us.insert(all.lag_us.end(), r.lag_us.begin(), r.lag_us.end());
    all.done_us.insert(all.done_us.end(), r.done_us.begin(), r.done_us.end());
    all.digest.insert(all.digest.end(), r.digest.begin(), r.digest.end());
    all.outcome.insert(all.outcome.end(), r.outcome.begin(), r.outcome.end());
  }
  return all;
}

}  // namespace perfbench
