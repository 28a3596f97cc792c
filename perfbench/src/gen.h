// Seeded input generators of the benchmark: the query universes, the
// Zipf-ranked request streams drawn over them, Poisson send schedules, and
// the fleet workload. Everything is a pure function of its seed and uses
// only the benchmark's own PRNG (rng.h), so the same seed regenerates
// byte-identical streams whatever the library does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleetsim/workload.h"

namespace perfbench {

/// The six query families, in the serve layer's family order.
inline constexpr int kFamilyCount = 6;
inline constexpr const char* kFamilies[kFamilyCount] = {
    "embodied", "lifetime", "breakeven", "sched", "trace", "fleetsim"};

/// One question with every way the stream may spell it. A spelling is a
/// complete request document whose "id" value is the placeholder '$'.
struct Question {
  int family = 0;
  std::vector<std::string> spellings;
};

struct Universe {
  std::vector<Question> questions;
};

/// query-hot: a fixed set of a few hundred questions from all six
/// families, each in several spellings (reordered fields, whitespace,
/// explicit defaults, short policy names).
Universe hot_universe();

/// Family weights of the churn universe. They copy the family counts of
/// net::query_universe, the dashboard mix behind the serve-load and
/// netload trajectories: 13 embodied, 14 trace, 10 lifetime, 3 breakeven
/// and 3 sched questions. That universe predates the fleetsim family,
/// which is given sched's weight.
struct ChurnShare {
  int family;
  int weight;
};
inline constexpr ChurnShare kChurnMix[] = {{0, 13}, {4, 14}, {1, 10},
                                           {2, 3},  {3, 3},  {5, 3}};

/// query-churn: `count` questions of seeded parameter draws inside the
/// request validation ranges, two spellings each, families drawn by
/// kChurnMix. Families with few distinct questions (embodied, whole-year
/// trace) repeat, as they would in a dashboard's polling.
Universe churn_universe(std::uint64_t seed, std::size_t count);

/// Zipf(s) ranks over `n` items, mapped onto the items through a seeded
/// permutation so that popularity is not tied to universe order.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t perm_seed);
  /// Item index of one draw; `u` uniform in [0, 1).
  std::size_t item(double u) const;
  /// Item index holding popularity rank r (0 = most popular).
  std::size_t item_at_rank(std::size_t r) const { return perm_[r]; }

 private:
  std::vector<double> cdf_;  // normalized cumulative rank weights
  std::vector<std::uint32_t> perm_;
};

/// A request stream: per request a question index (or kStats for the
/// {"op":"stats"} control request) and a spelling index.
inline constexpr std::uint32_t kStats = 0xFFFFFFFFu;
struct Stream {
  std::vector<std::uint32_t> question;
  std::vector<std::uint8_t> spelling;
  std::size_t size() const { return question.size(); }
};

Stream draw_stream(const Universe& u, const Zipf& zipf, double stats_share,
                   std::uint64_t seed, std::size_t count);

/// Append request i of the stream (no newline), its id being
/// `<id_prefix><i>`.
void append_line(const Universe& u, const Stream& s, std::size_t i,
                 std::string_view id_prefix, std::string& out);

/// Family index of request i, or -1 for a stats request.
int family_of(const Universe& u, const Stream& s, std::size_t i);

/// `count` Poisson send times (microseconds from phase start) at `rate`
/// requests per second.
std::vector<double> poisson_schedule_us(std::size_t count, double rate,
                                        std::uint64_t seed);

/// Fixed-size 64-bit digest of a byte string, eight bytes per step. Every
/// step is a bijection of the state, so a change to any single byte
/// always changes the digest.
std::uint64_t digest(std::string_view bytes);

/// The fleet-policies workload: a diurnal fleet on the ERCOT/ESO/CISO
/// trio, seeded by the benchmark seed.
struct FleetShape {
  int slots_per_site = 256;
  double rate_per_hour = 45.0;
  double days = 7.0;
};
hpcarbon::fleetsim::FleetWorkloadParams fleet_params(const FleetShape& shape,
                                                     std::uint64_t seed);

}  // namespace perfbench
