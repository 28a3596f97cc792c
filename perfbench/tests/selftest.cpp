// Self-tests of the benchmark's own instruments: generators, Zipf shape,
// the fleet policy decorator, the correctness oracle, and the open-loop
// client end to end against a live server. Run by
// `python3 perfbench/run.py --selftest` (or ctest in the build tree);
// exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "client.h"
#include "fleet.h"
#include "fleetsim/workload.h"
#include "gen.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "rng.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "stats.h"

using namespace perfbench;
namespace serve = hpcarbon::serve;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

std::string stream_text(const Universe& u, const Stream& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    append_line(u, s, i, "t", out);
    out.push_back('\n');
  }
  return out;
}

bool same_universe(const Universe& a, const Universe& b) {
  if (a.questions.size() != b.questions.size()) return false;
  for (std::size_t i = 0; i < a.questions.size(); ++i) {
    if (a.questions[i].family != b.questions[i].family ||
        a.questions[i].spellings != b.questions[i].spellings) {
      return false;
    }
  }
  return true;
}

void test_generators_deterministic() {
  CHECK(same_universe(hot_universe(), hot_universe()));
  const Universe c1 = churn_universe(7, 2000);
  CHECK(same_universe(c1, churn_universe(7, 2000)));
  CHECK(!same_universe(c1, churn_universe(8, 2000)));

  const Universe hot = hot_universe();
  const Zipf z(hot.questions.size(), 1.1, 99);
  const std::string a = stream_text(hot, draw_stream(hot, z, 0.01, 5, 5000));
  CHECK(a == stream_text(hot, draw_stream(hot, z, 0.01, 5, 5000)));
  CHECK(a != stream_text(hot, draw_stream(hot, z, 0.01, 6, 5000)));
  const Zipf z2(hot.questions.size(), 1.1, 100);
  CHECK(a != stream_text(hot, draw_stream(hot, z2, 0.01, 5, 5000)));

  CHECK(poisson_schedule_us(1000, 5000, 3) == poisson_schedule_us(1000, 5000, 3));
  CHECK(poisson_schedule_us(1000, 5000, 3) != poisson_schedule_us(1000, 5000, 4));
  const std::vector<double> t = poisson_schedule_us(100000, 5000, 3);
  const double rate = 1e6 * static_cast<double>(t.size()) / t.back();
  CHECK(std::fabs(rate / 5000.0 - 1.0) < 0.02);

  const auto f1 = fleet_params(FleetShape{}, 1);
  CHECK(f1.seed == fleet_params(FleetShape{}, 1).seed);
  CHECK(f1.seed != fleet_params(FleetShape{}, 2).seed);
}

/// Every spelling is a valid request, spellings of one question share a
/// canonical key, and different questions have different keys.
void check_universe(const Universe& u, double min_distinct_share) {
  std::set<std::uint64_t> keys;
  for (const Question& q : u.questions) {
    std::uint64_t key = 0;
    for (std::size_t s = 0; s < q.spellings.size(); ++s) {
      std::string line;
      Stream one;
      one.question = {0};
      one.spelling = {static_cast<std::uint8_t>(s)};
      Universe single;
      single.questions = {q};
      append_line(single, one, 0, "x", line);
      try {
        const serve::Query parsed = serve::parse_query_line(line);
        CHECK(parsed.family == q.family);
        if (s == 0) key = parsed.key;
        CHECK(parsed.key == key);
      } catch (const std::exception& e) {
        std::printf("  invalid request %s: %s\n", line.c_str(), e.what());
        ++g_failures;
      }
    }
    keys.insert(key);
  }
  CHECK(static_cast<double>(keys.size()) >=
        min_distinct_share * static_cast<double>(u.questions.size()));
}

void test_universes_valid() {
  const Universe hot = hot_universe();
  CHECK(hot.questions.size() >= 150);
  std::set<int> families;
  for (const Question& q : hot.questions) families.insert(q.family);
  CHECK(families.size() == static_cast<std::size_t>(kFamilyCount));
  check_universe(hot, 1.0);
  // Embodied questions and whole-year traces repeat in the churn universe
  // (13 parts, 7 regions); everything else is distinct.
  const Universe churn = churn_universe(11, 3000);
  check_universe(churn, 0.5);

  // Family shares follow kChurnMix.
  std::vector<double> count(kFamilyCount, 0.0);
  for (const Question& q : churn.questions) count[q.family] += 1;
  int total = 0;
  for (const ChurnShare& s : kChurnMix) total += s.weight;
  for (const ChurnShare& s : kChurnMix) {
    const double want = static_cast<double>(s.weight) / total;
    const double got = count[s.family] / static_cast<double>(churn.questions.size());
    CHECK(std::fabs(got - want) < 0.025);
  }
}

/// Frequencies of the most popular ranks follow rank^-s.
void test_zipf_shape() {
  const std::size_t n = 1000;
  const double s = 1.1;
  const Zipf z(n, s, 17);
  std::vector<double> count(n, 0.0);
  Prng rng(23);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) count[z.item(rng.uniform())] += 1;
  // Least-squares slope of log(frequency) over log(rank), ranks 1..50.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const int ranks = 50;
  for (int r = 0; r < ranks; ++r) {
    const double x = std::log(r + 1.0);
    const double y = std::log(count[z.item_at_rank(static_cast<std::size_t>(r))]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope = (ranks * sxy - sx * sy) / (ranks * sxx - sx * sx);
  std::printf("  zipf slope %.3f (want %.3f)\n", slope, -s);
  CHECK(std::fabs(slope + s) < 0.08);
  // Popularity is spread over the universe, not tied to its order.
  CHECK(z.item_at_rank(0) != 0 || z.item_at_rank(1) != 1);
}

void test_decorator_transparent() {
  const auto engine = make_fleet_engine(16);
  FleetShape small;
  small.slots_per_site = 16;
  small.rate_per_hour = 4.0;
  small.days = 14.0;
  const auto jobs = hpcarbon::fleetsim::generate_fleet_jobs(
      fleet_params(small, 3));
  CHECK(jobs.size() > 500);
  for (const char* name : {"fcfs-local", "greedy-lowest-ci", "threshold-delay",
                           "forecast-net-benefit"}) {
    hpcarbon::fleetsim::FleetOutcomes plain_out, dec_out;
    auto plain_policy = hpcarbon::sched::make_policy(name);
    const auto plain = engine.run(jobs, *plain_policy, &plain_out);
    TimedPolicy timed(hpcarbon::sched::make_policy(name));
    const auto dec = engine.run(jobs, timed, &dec_out);
    CHECK(timed.name() == name);
    CHECK(same_metrics(plain, dec));
    CHECK(same_outcomes(plain_out, dec_out));
    CHECK(metrics_digest(plain) == metrics_digest(dec));
    CHECK(static_cast<std::size_t>(plain.jobs_completed) == jobs.size());
    const PolicyCounters& c = timed.counters();
    CHECK(c.select_calls >= jobs.size());
    CHECK(c.decisions == jobs.size());
    CHECK(c.started_calls == jobs.size());
    CHECK(c.planned_start_calls == jobs.size());
  }
}

void test_digest_detects_any_byte() {
  const std::string base =
      "{\"id\":\"q1\",\"ok\":true,\"op\":\"trace\",\"result\":{\"mean\":1}}";
  const std::uint64_t d = digest(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string changed = base;
    changed[i] ^= 0x01;
    CHECK(digest(changed) != d);
  }
  CHECK(digest(base + " ") != d);
}

/// The oracle accepts true answers and rejects one corrupted byte.
void test_oracle_rejects_corruption() {
  const Universe hot = hot_universe();
  const Zipf z(hot.questions.size(), 1.1, 5);
  const Stream s = draw_stream(hot, z, 0.05, 9, 300);
  std::vector<std::string> lines(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) append_line(hot, s, i, "o", lines[i]);

  hpcarbon::obs::MetricsRegistry registry;
  serve::TraceStore traces;
  serve::ServeOptions so;
  so.traces = &traces;
  so.registry = &registry;
  serve::Engine engine(so);
  std::vector<std::string> answers;
  for (const auto& l : lines) answers.push_back(engine.handle_line(l));

  std::vector<std::uint64_t> digests;
  std::vector<Outcome> outcomes(lines.size(), Outcome::kOk);
  for (const auto& a : answers) digests.push_back(digest(a));

  Oracle oracle;
  std::vector<std::string> problems;
  CHECK(oracle.check(lines, digests.data(), outcomes.data(), problems) == 0);

  std::size_t victim = 0;
  while (s.question[victim] == kStats) ++victim;
  std::string bad = answers[victim];
  bad[bad.size() / 2] ^= 0x20;
  digests[victim] = digest(bad);
  CHECK(oracle.check(lines, digests.data(), outcomes.data(), problems) == 1);
  CHECK(!problems.empty());
}

/// The open- and closed-loop clients against a live server: every answer
/// arrives, in order, and matches the oracle.
void test_client_end_to_end() {
  const Universe hot = hot_universe();
  const Zipf z(hot.questions.size(), 1.1, 5);
  const Stream s = draw_stream(hot, z, 0.02, 12, 2000);
  hpcarbon::obs::MetricsRegistry registry;
  serve::TraceStore traces;
  hpcarbon::net::ServerOptions so;
  so.serve.traces = &traces;
  so.serve.registry = &registry;
  so.tcp = "127.0.0.1:0";
  so.workers = 1;
  hpcarbon::net::Server server(so);
  server.start();
  std::thread io([&server] { server.run(); });
  std::vector<int> fds;
  for (int c = 0; c < 4; ++c) {
    fds.push_back(connect_tcp_nonblocking(server.tcp_endpoint()));
    CHECK(fds.back() >= 0);
  }
  const LineFn line = [&](std::size_t i, std::string& out) {
    append_line(hot, s, i, "c", out);
    out.push_back('\n');
  };
  const PhaseResult r = run_open_loop(fds, poisson_schedule_us(s.size(), 4000, 1),
                                      line, 30.0);
  const PhaseResult b = run_batches(fds, 300, line, 64, 30.0);
  const PhaseResult c = run_closed_loop(fds, s.size(), line, 4, 0.2, 30.0);
  server.begin_drain();
  io.join();
  for (int fd : fds) close(fd);

  CHECK(r.attempted == s.size());
  CHECK(r.ok == s.size());
  CHECK(r.failed() == 0);
  CHECK(b.ok == 300);
  std::vector<std::string> lines(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) append_line(hot, s, i, "c", lines[i]);
  Oracle oracle;
  std::vector<std::string> problems;
  CHECK(oracle.check(lines, r.digest.data(), r.outcome.data(), problems) == 0);
  CHECK(percentile(r.answered_latencies(), 0.5) > 0);
  // The closed loop answers a prefix of the stream, every answer true.
  CHECK(c.attempted > 0 && c.attempted <= s.size());
  CHECK(c.ok == c.attempted);
  lines.resize(c.attempted);
  CHECK(oracle.check(lines, c.digest.data(), c.outcome.data(), problems) == 0);
}

}  // namespace

int main() {
  const std::pair<const char*, std::function<void()>> tests[] = {
      {"generators are deterministic and seed-sensitive",
       test_generators_deterministic},
      {"universes are valid requests with stable keys", test_universes_valid},
      {"zipf rank-frequency shape", test_zipf_shape},
      {"policy decorator is transparent", test_decorator_transparent},
      {"digest detects any single-byte change", test_digest_detects_any_byte},
      {"oracle rejects one corrupted byte", test_oracle_rejects_corruption},
      {"open- and closed-loop clients end to end", test_client_end_to_end},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%s\n", g_failures == 0 ? "all self-tests passed"
                                      : "self-tests FAILED");
  return g_failures == 0 ? 0 : 1;
}
