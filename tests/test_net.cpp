// The network front-end contract: framing (shared max-line guard, CRLF
// trimming, oversize discard accounting), deterministic load generation,
// and the epoll server end-to-end over real TCP and Unix-domain sockets
// — byte-identity with the batch front-end, pipelining order, bounded
// in-flight shedding (of requests bound for a worker only), the read
// watermark over held answers, cache counts equal to the pipe's,
// max-conns refusal, idle timeout, graceful drain (API call and
// SIGTERM), and the net_* stats counters.
#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "net/framing.h"
#include "net/listener.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/limits.h"

using namespace hpcarbon;

namespace {

// --------------------------------------------------------------------------
// LineFramer

TEST(Framer, SplitsTrimsAndSkipsBlankLines) {
  net::LineFramer f;
  std::vector<std::string> lines;
  const std::string input = "alpha\r\n\n  \t\nbeta gamma\n\r\ndelta";
  for (std::size_t i = 0; i < input.size(); ++i) {  // worst case: 1B chunks
    f.feed(std::string_view(input).substr(i, 1));
    for (auto it = f.next(); it.kind != net::LineFramer::Item::Kind::kNone;
         it = f.next()) {
      ASSERT_EQ(it.kind, net::LineFramer::Item::Kind::kLine);
      lines.emplace_back(it.line);
    }
  }
  const auto last = f.finish();  // "delta" has no trailing newline
  ASSERT_EQ(last.kind, net::LineFramer::Item::Kind::kLine);
  lines.emplace_back(last.line);
  EXPECT_EQ(lines, (std::vector<std::string>{"alpha", "beta gamma", "delta"}));
}

TEST(Framer, OversizeLineCountedNotBuffered) {
  net::LineFramer f(/*max_line_bytes=*/16);
  const std::string big(1000, 'x');
  std::size_t oversize_seen = 0;
  std::vector<std::string> lines;
  const std::string input = "ok-1\n" + big + "\nok-2\n";
  for (std::size_t i = 0; i < input.size(); i += 7) {
    f.feed(std::string_view(input).substr(i, 7));
    EXPECT_LE(f.buffered_bytes(), 16u + 7u);  // never holds the big line
    for (auto it = f.next(); it.kind != net::LineFramer::Item::Kind::kNone;
         it = f.next()) {
      if (it.kind == net::LineFramer::Item::Kind::kOversize) {
        oversize_seen = it.oversize_bytes;
      } else {
        lines.emplace_back(it.line);
      }
    }
  }
  EXPECT_EQ(oversize_seen, big.size());  // exact byte count, as batch reports
  EXPECT_EQ(lines, (std::vector<std::string>{"ok-1", "ok-2"}));
}

TEST(Framer, LimitCoversTrailingWhitespaceForEveryChunking) {
  // The limit and the count cover every byte before the '\n', so a line
  // over it only by trailing whitespace, or whose trailing whitespace is
  // counted after discard mode began, gets one answer however reads
  // split it.
  const std::string input = std::string(24, 'x') + "   \r\n" + "ok-1\n" +
                            std::string(10, 'x') + std::string(12, ' ') +
                            "\n" + std::string(20, ' ') + "\nok-2";
  const std::vector<std::string> want = {"oversize 28", "line ok-1",
                                         "oversize 22", "oversize 20",
                                         "line ok-2"};
  for (const std::size_t chunk : {input.size(), std::size_t{1},
                                  std::size_t{7}, std::size_t{65536}}) {
    net::LineFramer f(/*max_line_bytes=*/16);
    std::vector<std::string> got;
    auto take = [&got](const net::LineFramer::Item& it) {
      got.push_back(it.kind == net::LineFramer::Item::Kind::kOversize
                        ? "oversize " + std::to_string(it.oversize_bytes)
                        : "line " + std::string(it.line));
    };
    for (std::size_t i = 0; i < input.size(); i += chunk) {
      f.feed(std::string_view(input).substr(i, chunk));
      for (auto it = f.next(); it.kind != net::LineFramer::Item::Kind::kNone;
           it = f.next()) {
        take(it);
      }
    }
    const auto last = f.finish();
    if (last.kind != net::LineFramer::Item::Kind::kNone) take(last);
    EXPECT_EQ(got, want) << chunk << "-byte chunks";
  }
}

TEST(Framer, OversizeAtEofStillReported) {
  net::LineFramer f(8);
  f.feed("0123456789abcdef");  // unterminated and over the limit
  EXPECT_EQ(f.next().kind, net::LineFramer::Item::Kind::kNone);
  const auto last = f.finish();
  ASSERT_EQ(last.kind, net::LineFramer::Item::Kind::kOversize);
  EXPECT_EQ(last.oversize_bytes, 16u);
}

// --------------------------------------------------------------------------
// Load generation determinism (the bench's identity contract)

TEST(Loadgen, MixAndArrivalsAreBitIdenticalAcrossRuns) {
  const auto a = net::zipf_mix(500);
  const auto b = net::zipf_mix(500);
  EXPECT_EQ(a, b);
  // Prefix-stable: a longer replay extends the stream, never re-rolls it.
  const auto prefix = net::zipf_mix(100);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), a.begin()));

  const auto t1 = net::poisson_arrivals_us(1000, 5000.0, 23);
  const auto t2 = net::poisson_arrivals_us(1000, 5000.0, 23);
  EXPECT_EQ(t1, t2);  // exact double equality: same seed, same bits
  EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
  EXPECT_NE(t1, net::poisson_arrivals_us(1000, 5000.0, 24));
}

TEST(Loadgen, PercentileSorted) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(net::percentile_sorted(v, 0.5), 51);
  EXPECT_DOUBLE_EQ(net::percentile_sorted(v, 0.99), 100);
  EXPECT_DOUBLE_EQ(net::percentile_sorted(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(net::percentile_sorted({}, 0.5), 0);
}

// --------------------------------------------------------------------------
// Socket helpers

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << strerror(errno);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void set_recv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Stateful line reader: returns exactly `n` lines (fewer on EOF or the
/// 10s guard timeout), keeping any over-read bytes buffered for the next
/// call — pipelined responses often arrive batched in one recv.
struct LineReader {
  int fd;
  std::string buf;

  explicit LineReader(int fd_in) : fd(fd_in) { set_recv_timeout(fd, 10.0); }

  std::vector<std::string> read(std::size_t n) {
    std::vector<std::string> lines;
    char chunk[4096];
    while (lines.size() < n) {
      std::size_t nl = 0;
      while (lines.size() < n && (nl = buf.find('\n')) != std::string::npos) {
        lines.push_back(buf.substr(0, nl));
        buf.erase(0, nl + 1);
      }
      if (lines.size() >= n) break;
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r <= 0) break;  // EOF or timeout
      buf.append(chunk, static_cast<std::size_t>(r));
    }
    return lines;
  }
};

/// One-shot read of `n` lines; use LineReader directly when a later read
/// on the same connection must see bytes batched with the first.
std::vector<std::string> read_lines(int fd, std::size_t n) {
  return LineReader(fd).read(n);
}

/// True when the peer has closed: recv returns 0 within the timeout.
bool reads_eof(int fd, double timeout_s = 10.0) {
  set_recv_timeout(fd, timeout_s);
  char c = 0;
  return ::recv(fd, &c, 1, 0) == 0;
}

std::vector<std::string> fixture_requests() {
  std::ifstream in(std::string(HPCARBON_TEST_DATA_DIR) + "/requests.jsonl");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// In-process server on an ephemeral loopback port (and optionally a
/// UDS); run() on a private thread, drained+joined on destruction. Each
/// TestServer gets its own metrics registry — the process-global one
/// accumulates across every test in this binary, which would break the
/// exact transport-counter assertions below.
struct TestServer {
  obs::MetricsRegistry registry;
  net::Server server;
  std::thread io;

  explicit TestServer(net::ServerOptions opts)
      : server([&] {
          if (opts.tcp.empty() && opts.unix_path.empty()) {
            opts.tcp = "127.0.0.1:0";
          }
          if (opts.serve.registry == nullptr) opts.serve.registry = &registry;
          return std::move(opts);
        }()) {
    server.start();
    io = std::thread([this] { server.run(); });
  }
  ~TestServer() { stop(); }
  void stop() {
    if (io.joinable()) {
      server.begin_drain();
      io.join();
    }
  }
  int connect() const {
    return server.tcp_endpoint().empty()
               ? net::connect_unix(server.options().unix_path)
               : net::connect_tcp(server.tcp_endpoint());
  }
};

std::string test_socket_path(const char* name) {
  return std::string("/tmp/hpcarbon_test_") + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

// --------------------------------------------------------------------------
// End-to-end: byte-identity with the batch front-end

void expect_socket_matches_batch(net::ServerOptions opts) {
  const auto requests = fixture_requests();
  ASSERT_EQ(requests.size(), 8u);
  serve::Engine oracle;  // same defaults as the server's engine
  const auto expected = oracle.handle_batch(requests);

  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  std::string payload;
  for (const auto& r : requests) payload += r + "\n";
  send_all(fd, payload);
  const auto got = read_lines(fd, requests.size());
  ::close(fd);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "response " << i << " diverged";
  }
}

TEST(NetServer, TcpByteIdenticalToBatchInlineMode) {
  net::ServerOptions opts;
  opts.workers = 0;
  expect_socket_matches_batch(std::move(opts));
}

TEST(NetServer, TcpByteIdenticalToBatchWorkerMode) {
  net::ServerOptions opts;
  opts.workers = 2;
  expect_socket_matches_batch(std::move(opts));
}

TEST(NetServer, UnixSocketByteIdenticalToBatch) {
  net::ServerOptions opts;
  opts.unix_path = test_socket_path("uds");
  opts.workers = 2;
  expect_socket_matches_batch(std::move(opts));
  EXPECT_NE(::access(test_socket_path("uds").c_str(), F_OK), 0)
      << "drain must unlink the socket file";
}

TEST(NetServer, IdleMetricsSnapshotByteIdenticalToPipe) {
  // {"op":"metrics"} on an idle engine is transport-blind: the socket
  // front-end's first response matches a fresh pipe engine byte for
  // byte. Both sides use private registries (same instrument set, all
  // zeros) and the JSON rendering excludes the transport-scoped
  // hpcarbon_net_* / hpcarbon_process_* series, so the accepted
  // connection itself cannot leak into the comparison.
  obs::MetricsRegistry pipe_reg;
  serve::ServeOptions pipe_opts;
  pipe_opts.registry = &pipe_reg;
  serve::Engine pipe_engine(pipe_opts);
  const std::string line = R"({"op":"metrics","id":"m"})";
  const std::string expected = pipe_engine.handle_line(line);

  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  send_all(fd, line + "\n");
  const auto got = read_lines(fd, 1);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expected);
}

TEST(NetServer, PipelinedSplitWritesAnswerInOrder) {
  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();

  std::string payload;
  constexpr int kN = 40;
  for (int i = 0; i < kN; ++i) {
    payload += R"({"op":"embodied","id":"q)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  // Worst-case framing: the whole pipeline dribbles in 3-byte writes.
  for (std::size_t i = 0; i < payload.size(); i += 3) {
    send_all(fd, std::string_view(payload).substr(i, 3));
  }
  const auto got = read_lines(fd, kN);
  ::close(fd);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_NE(got[i].find("\"id\":\"q" + std::to_string(i) + "\""),
              std::string::npos)
        << "response " << i << " out of order: " << got[i];
    EXPECT_NE(got[i].find("\"ok\":true"), std::string::npos);
  }
}

TEST(NetServer, HalfCloseStillAnswersTrailingLine) {
  net::ServerOptions opts;
  opts.workers = 0;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  // No trailing newline, then shutdown(WR): getline semantics require an
  // answer, delivered on the half-open socket before EOF.
  send_all(fd, R"({"op":"embodied","id":"last","params":{"part":"epyc-7763"}})");
  ::shutdown(fd, SHUT_WR);
  const auto got = read_lines(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"id\":\"last\""), std::string::npos);
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
}

TEST(NetServer, OversizeLineMatchesEngineBytes) {
  // The contract behind the shared limit: socket framer (which never
  // buffers the line) and engine (which has it in hand) must reject with
  // identical bytes.
  std::string big = R"({"op":"embodied","params":{"part":")";
  big.append(serve::kMaxRequestLineBytes, 'x');
  big += "\"}}";

  serve::Engine oracle;
  const std::string expected = oracle.handle_line(big);
  EXPECT_NE(expected.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(expected.find(std::to_string(big.size())), std::string::npos);

  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  send_all(fd, big + "\n" +
                   R"({"op":"embodied","id":"after","params":{"part":"epyc-7763"}})" +
                   "\n");
  const auto got = read_lines(fd, 2);
  ::close(fd);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], expected);
  // The connection resynced at the newline and keeps serving.
  EXPECT_NE(got[1].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(got[1].find("\"ok\":true"), std::string::npos);
}

TEST(NetServer, MaxConnsRefusesExtraConnections) {
  net::ServerOptions opts;
  opts.workers = 0;
  opts.max_conns = 2;
  TestServer ts(std::move(opts));
  const int c1 = ts.connect();
  const int c2 = ts.connect();
  // Give the accept loop a chance to register both before the third.
  send_all(c1, "{\"op\":\"stats\"}\n");
  ASSERT_EQ(read_lines(c1, 1).size(), 1u);
  const int c3 = ts.connect();
  EXPECT_TRUE(reads_eof(c3)) << "connection over max-conns must be closed";
  // The first two still work.
  send_all(c2, "{\"op\":\"stats\"}\n");
  EXPECT_EQ(read_lines(c2, 1).size(), 1u);
  ::close(c1);
  ::close(c2);
  ::close(c3);
}

TEST(NetServer, BoundedInflightShedsInOrderAndRecovers) {
  net::ServerOptions opts;
  opts.workers = 1;
  opts.max_inflight = 1;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();

  // A cold scheduler query pins the only worker for milliseconds; the
  // pipelined burst behind it overflows the 1-deep queue and must be
  // answered with explicit shed errors, in order, without stalling.
  std::string payload =
      R"({"op":"sched","id":"head","params":{"policy":"net-benefit"}})" "\n";
  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    payload += R"({"op":"embodied","id":"b)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  send_all(fd, payload);
  const auto got = read_lines(fd, 1 + kBurst);
  ASSERT_EQ(got.size(), 1u + kBurst) << "every request must be answered";
  EXPECT_NE(got[0].find("\"id\":\"head\""), std::string::npos);
  EXPECT_NE(got[0].find("\"ok\":true"), std::string::npos);
  std::size_t shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string& r = got[1 + static_cast<std::size_t>(i)];
    if (r.find("request shed") != std::string::npos) {
      ++shed;
      EXPECT_NE(r.find("\"ok\":false"), std::string::npos);
    } else {
      EXPECT_NE(r.find("\"id\":\"b" + std::to_string(i) + "\""),
                std::string::npos)
          << "non-shed response out of order: " << r;
    }
  }
  EXPECT_GT(shed, 0u) << "the overloaded queue must shed";
  EXPECT_EQ(ts.server.stats().requests_shed.value(), shed);

  // After the burst the queue is empty again: new requests succeed.
  send_all(fd, R"({"op":"embodied","id":"post","params":{"part":"epyc-7763"}})"
               "\n");
  const auto after = read_lines(fd, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].find("\"ok\":true"), std::string::npos);
  ::close(fd);
}

TEST(NetServer, HitsAreNeverShed) {
  // Hits are answered on the IO thread, so they never wait for the one
  // in-flight place the cold head holds: none of them is shed.
  net::ServerOptions opts;
  opts.workers = 1;
  opts.max_inflight = 1;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  LineReader reader(fd);
  send_all(fd, R"({"op":"embodied","id":"warm","params":{"part":"epyc-7763"}})"
               "\n");
  ASSERT_EQ(reader.read(1).size(), 1u);

  std::string payload =
      R"({"op":"sched","id":"head","params":{"policy":"net-benefit"}})" "\n";
  constexpr int kHits = 50;
  for (int i = 0; i < kHits; ++i) {
    payload += R"({"op":"embodied","id":"h)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  send_all(fd, payload);
  const auto got = reader.read(1 + kHits);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u + kHits) << "every request must be answered";
  EXPECT_NE(got[0].find("\"id\":\"head\""), std::string::npos);
  EXPECT_NE(got[0].find("\"ok\":true"), std::string::npos);
  for (int i = 0; i < kHits; ++i) {
    const std::string& r = got[1 + static_cast<std::size_t>(i)];
    EXPECT_NE(r.find("\"id\":\"h" + std::to_string(i) + "\""),
              std::string::npos)
        << "response out of order: " << r;
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  }
  EXPECT_EQ(ts.server.stats().requests_shed.value(), 0u);
}

/// A trace_csv path that is a FIFO. A request importing it holds its
/// worker, blocked in open(), until release() writes a day of 5-minute
/// data into it: a request that stays in flight exactly as long as the
/// test wants, in any build type. Arm it once such a request is sent; the
/// destructor releases an armed gate, so a failing test still drains.
struct FifoGate {
  std::string path = "/tmp/hpcarbon_test_gate_" +
                     std::to_string(::getpid()) + ".csv";
  bool armed = false;

  FifoGate() {
    ::unlink(path.c_str());
    EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0) << strerror(errno);
  }
  ~FifoGate() {
    release();
    ::unlink(path.c_str());
  }
  void release() {
    if (!armed) return;
    armed = false;
    std::ifstream in(std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv");
    const std::string csv((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    const int fd = ::open(path.c_str(), O_WRONLY);  // waits for the worker
    ASSERT_GE(fd, 0) << strerror(errno);
    EXPECT_EQ(::write(fd, csv.data(), csv.size()),
              static_cast<ssize_t>(csv.size()));
    ::close(fd);
  }
};

TEST(NetServer, HeldAnswersCountTowardReadWatermark) {
  // One slow request at the head of a connection holds every answer
  // behind it. Those answers weigh on the read watermark, so a client
  // that pipelines hits without reading cannot make the server buffer
  // without bound: reads pause, and the client's sends block.
  obs::MetricsRegistry registry;
  serve::TraceStore traces(&registry);  // the gate's import is never cached
  net::ServerOptions opts;
  opts.workers = 1;
  opts.read_high_watermark = std::size_t{64} << 10;
  opts.serve.registry = &registry;
  opts.serve.traces = &traces;
  TestServer ts(std::move(opts));
  FifoGate gate;
  const int fd = ts.connect();
  LineReader reader(fd);
  send_all(fd, R"({"op":"embodied","params":{"part":"epyc-7763"}})" "\n");
  ASSERT_EQ(reader.read(1).size(), 1u);  // the flood below is all hits

  send_all(fd, R"({"op":"trace","id":"head","params":{"region":"ESO",)"
               R"("trace_csv":")" + gate.path + "\"}}\n");
  gate.armed = true;
  constexpr std::size_t kFloodBytes = std::size_t{16} << 20;
  std::string flood;
  for (int i = 0; flood.size() < kFloodBytes; ++i) {
    flood += R"({"op":"embodied","id":"f)" + std::to_string(i) +
             R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  // Send without reading until all of it is out or a send has been
  // blocked for 200 ms. A small send buffer keeps what the kernel holds,
  // and so the read-back, short.
  const int send_buffer = 64 << 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &send_buffer,
                         sizeof send_buffer),
            0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "send failed: " << strerror(errno);
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 200) == 0) break;
  }
  EXPECT_LT(ts.server.stats().bytes_in.value(), std::uint64_t{4} << 20)
      << "sent " << sent << " bytes without reading";

  // Let the head finish, then read everything back while the last,
  // partly sent line completes.
  gate.release();
  const std::size_t end =
      sent == 0 || flood[sent - 1] == '\n' ? sent : flood.find('\n', sent) + 1;
  const auto lines = static_cast<std::size_t>(
      std::count(flood.begin(), flood.begin() + static_cast<long>(end), '\n'));
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK), 0);
  std::vector<std::string> got;
  std::thread client_reader([&] { got = reader.read(1 + lines); });
  send_all(fd, std::string_view(flood).substr(sent, end - sent));
  client_reader.join();
  ::close(fd);
  ASSERT_EQ(got.size(), 1 + lines) << "every request must be answered";
  EXPECT_NE(got[0].find("\"id\":\"head\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("\"ok\":true"), std::string::npos) << got[0];
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::string& r = got[1 + i];
    if (r.find("\"id\":\"f" + std::to_string(i) + "\"") == std::string::npos ||
        r.find("\"ok\":true") == std::string::npos) {
      ++out_of_order;
    }
  }
  EXPECT_EQ(out_of_order, 0u);
}

/// The cache and trace-store fields of tests/data/stats_golden.jsonl: the
/// pipe's stats after the request fixture twice.
json::Value stats_golden() {
  std::ifstream in(std::string(HPCARBON_TEST_DATA_DIR) + "/stats_golden.jsonl");
  std::string line;
  std::getline(in, line);
  // The masked latency quantiles are the only non-JSON tokens.
  line = std::regex_replace(line, std::regex(R"(":X\b)"), "\":0");
  return *json::Value::parse(line).find("result");
}

TEST(NetServer, SequentialSocketCountsEqualThePipes) {
  // The request fixture twice, one line at a time, over a socket with
  // workers: hits answered on the IO thread and misses on workers count
  // exactly what the pipe front-end counts for the same stream.
  obs::MetricsRegistry registry;
  serve::TraceStore traces(&registry);
  net::ServerOptions opts;
  opts.workers = 2;
  opts.serve.registry = &registry;
  opts.serve.traces = &traces;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  LineReader reader(fd);
  const auto requests = fixture_requests();
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& line : requests) {
      send_all(fd, line + "\n");
      ASSERT_EQ(reader.read(1).size(), 1u) << line;
    }
  }
  send_all(fd, "{\"op\":\"stats\",\"id\":\"s\"}\n");
  const auto got = reader.read(1);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u);
  const json::Value stats = *json::Value::parse(got[0]).find("result");
  const json::Value golden = stats_golden();
  for (const char* field :
       {"bytes", "entries", "evictions", "hits", "inserts", "misses",
        "shard_bytes", "shard_entries", "trace_entries", "trace_hits",
        "trace_misses"}) {
    ASSERT_NE(stats.find(field), nullptr) << field;
    EXPECT_EQ(stats.find(field)->dump(), golden.find(field)->dump()) << field;
  }
}

TEST(NetServer, PipelinedCopiesOfAMissEvaluateOnce) {
  // Twenty copies of one uncached query queue behind a slow head. The IO
  // thread's lookups miss without counting, and the worker looks again:
  // the first copy misses and evaluates, the other nineteen hit its fill.
  net::ServerOptions opts;
  opts.workers = 1;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  std::string payload =
      R"({"op":"sched","id":"head","params":{"policy":"net-benefit"}})" "\n";
  constexpr int kCopies = 20;
  for (int i = 0; i < kCopies; ++i) {
    payload += R"({"op":"embodied","id":"c)" + std::to_string(i) +
               R"(","params":{"part":"mi250x"}})" + "\n";
  }
  send_all(fd, payload);
  const auto got = read_lines(fd, 1 + kCopies);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u + kCopies);
  for (int i = 0; i < kCopies; ++i) {
    const std::string& r = got[1 + static_cast<std::size_t>(i)];
    EXPECT_NE(r.find("\"id\":\"c" + std::to_string(i) + "\""),
              std::string::npos)
        << r;
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  }
  // The head adds one miss and one insert of its own.
  const serve::CacheStats stats = ts.server.engine().cache_stats();
  EXPECT_EQ(stats.misses, 1u + 1u);
  EXPECT_EQ(stats.inserts, 1u + 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kCopies - 1));
}

TEST(NetServer, StatsReportsTransportCounters) {
  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  send_all(fd, "{\"op\":\"embodied\",\"params\":{\"part\":\"epyc-7763\"}}\n");
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  send_all(fd, "{\"op\":\"stats\"}\n");
  const auto got = read_lines(fd, 1);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u);
  const std::string& s = got[0];
  EXPECT_NE(s.find("\"net_accepted\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"net_active\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"net_shed\":0"), std::string::npos) << s;
  // Bytes flowed both ways by the time the stats line was answered.
  EXPECT_EQ(s.find("\"net_bytes_in\":0"), std::string::npos) << s;
  EXPECT_EQ(s.find("\"net_bytes_out\":0"), std::string::npos) << s;
  EXPECT_NE(s.find("\"net_max_inflight\":"), std::string::npos) << s;
}

TEST(NetServer, IdleTimeoutClosesQuietConnections) {
  net::ServerOptions opts;
  opts.workers = 0;
  opts.idle_timeout_s = 0.15;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  EXPECT_TRUE(reads_eof(fd, 5.0)) << "idle connection must be closed";
  ::close(fd);
}

TEST(NetServer, GracefulDrainAnswersInFlightThenExits) {
  net::ServerOptions opts;
  opts.workers = 1;
  net::Server server([&] {
    opts.tcp = "127.0.0.1:0";
    return std::move(opts);
  }());
  server.start();
  std::thread io([&] { server.run(); });

  const int fd = net::connect_tcp(server.tcp_endpoint());
  std::string payload =
      R"({"op":"sched","id":"slow","params":{"policy":"net-benefit"}})" "\n";
  constexpr int kTail = 20;
  for (int i = 0; i < kTail; ++i) {
    payload += R"({"op":"embodied","id":"t)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  send_all(fd, payload);
  // The first response proves the server has read (and queued) the whole
  // burst; drain must now finish all of it, flush, close, and return.
  LineReader reader(fd);
  EXPECT_EQ(reader.read(1).size(), 1u);
  server.begin_drain();
  const auto rest = reader.read(kTail);
  EXPECT_EQ(rest.size(), static_cast<std::size_t>(kTail))
      << "drain must answer everything already received";
  EXPECT_TRUE(reads_eof(fd)) << "drained server closes the connection";
  ::close(fd);
  io.join();  // run() returned: full drain
  EXPECT_THROW((void)net::connect_tcp(server.tcp_endpoint()), Error)
      << "listeners must be closed during drain";
}

TEST(NetServer, SigtermTriggersGracefulDrain) {
  net::ServerOptions opts;
  opts.workers = 0;
  net::Server server([&] {
    opts.tcp = "127.0.0.1:0";
    return std::move(opts);
  }());
  server.start();
  net::install_signal_drain(server);
  std::thread io([&] { server.run(); });

  const int fd = net::connect_tcp(server.tcp_endpoint());
  send_all(fd, "{\"op\":\"stats\"}\n");
  EXPECT_EQ(read_lines(fd, 1).size(), 1u);
  std::raise(SIGTERM);
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
  io.join();
  net::uninstall_signal_drain();
}

// --------------------------------------------------------------------------
// Concurrency hammer (race_stress label: the TSan job runs this hot):
// several client threads pipeline bursts over their own connections while
// the worker pool answers; every connection must see its own responses,
// in its own order, byte-exact against a sequential oracle.

TEST(NetRaceStress, ConcurrentClientsSeeOrderedCorrectResponses) {
  net::ServerOptions opts;
  opts.workers = 3;
  TestServer ts(std::move(opts));

  const auto mix = net::zipf_mix(64);
  serve::Engine oracle;
  std::vector<std::string> expected;
  expected.reserve(mix.size());
  for (const auto& line : mix) expected.push_back(oracle.handle_line(line));

  constexpr int kClients = 4;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        int fd = -1;
        try {
          fd = ts.connect();
        } catch (const Error&) {
          failures.fetch_add(1);  // refused connect counts as a failure
          continue;
        }
        std::string payload;
        for (const auto& line : mix) payload += line + "\n";
        std::string_view rest = payload;
        while (!rest.empty()) {
          const ssize_t n =
              ::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
          if (n <= 0) {
            failures.fetch_add(1);
            break;
          }
          rest.remove_prefix(static_cast<std::size_t>(n));
        }
        const auto got = read_lines(fd, mix.size());
        ::close(fd);
        if (got.size() != expected.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i] != expected[i]) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ts.server.stats().connections_accepted.value(),
            static_cast<std::uint64_t>(kClients * kRounds));
}

}  // namespace
