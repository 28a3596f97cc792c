#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "rng.h"

namespace perfbench {

namespace {

using Params = std::vector<std::pair<std::string, std::string>>;

const char* const kRegions[] = {"KN", "TK", "ESO", "CISO", "PJM", "MISO",
                                "ERCOT"};
const char* const kNodes[] = {"p100", "v100", "a100"};
const char* const kSuites[] = {"nlp", "vision", "candle"};
const char* const kParts[] = {
    "mi250x",       "a100-pcie-40",    "v100-sxm2-32",   "epyc-7763",
    "epyc-7742",    "xeon-gold-6240r", "dram-64gb-ddr4", "ssd-nytro-3530",
    "hdd-exos-x16", "p100-pcie-16",    "a100-sxm4-40",   "xeon-e5-2680",
    "epyc-7542"};
struct PolicyName {
  const char* name;
  const char* short_name;
};
const PolicyName kPolicies[] = {{"greedy-lowest-ci", "greedy"},
                                {"threshold-delay", "threshold"},
                                {"net-benefit", "net-benefit"},
                                {"forecast-net-benefit", "forecast-nb"},
                                {"budget-aware", "budget"}};

const char* const kChurnPolicies[] = {"greedy-lowest-ci", "net-benefit",
                                     "forecast-net-benefit"};

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

enum class Style { kPlain, kReordered, kSpaced };

/// One request document in the given spelling; the id value is '$'.
std::string render(const std::string& op, const Params& params, Style style) {
  std::string body;
  const bool spaced = style == Style::kSpaced;
  const char* colon = spaced ? " : " : ":";
  const char* comma = spaced ? " , " : ",";
  Params ordered = params;
  if (style == Style::kReordered) std::reverse(ordered.begin(), ordered.end());
  body += spaced ? "{ " : "{";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (i) body += comma;
    body += quoted(ordered[i].first) + colon + ordered[i].second;
  }
  body += spaced ? " }" : "}";
  const std::string op_f = std::string("\"op\"") + colon + quoted(op);
  const std::string params_f = std::string("\"params\"") + colon + body;
  const std::string id_f = std::string("\"id\"") + colon + "\"$\"";
  if (style == Style::kReordered) {
    return "{" + id_f + comma + params_f + comma + op_f + "}";
  }
  return std::string(spaced ? "{ " : "{") + op_f + comma + params_f + comma +
         id_f + (spaced ? " }" : "}");
}

/// Spellings of one question: three layouts, plus the explicit-defaults
/// form when `defaults` is given and the short-policy-name form when
/// `policy` names a policy with a distinct short name.
Question make_question(int family, const Params& params,
                       const Params& defaults = {},
                       const PolicyName* policy = nullptr) {
  const std::string op = kFamilies[family];
  Question q;
  q.family = family;
  q.spellings.push_back(render(op, params, Style::kPlain));
  q.spellings.push_back(render(op, params, Style::kReordered));
  q.spellings.push_back(render(op, params, Style::kSpaced));
  if (!defaults.empty()) {
    Params full = params;
    full.insert(full.end(), defaults.begin(), defaults.end());
    q.spellings.push_back(render(op, full, Style::kPlain));
  }
  if (policy != nullptr &&
      std::strcmp(policy->name, policy->short_name) != 0) {
    Params short_form = params;
    for (auto& [k, v] : short_form) {
      if (k == "policy") v = quoted(policy->short_name);
    }
    q.spellings.push_back(render(op, short_form, Style::kReordered));
  }
  return q;
}

}  // namespace

Universe hot_universe() {
  Universe u;
  auto add = [&u](Question q) { u.questions.push_back(std::move(q)); };
  for (const char* part : kParts) {
    add(make_question(0, {{"part", quoted(part)}}));
  }
  const Params lifetime_defaults = {
      {"suite", quoted("nlp")}, {"years", "5"},       {"gpu_usage", "0.4"},
      {"start_month", "5"},     {"pue", "1.2"},       {"samples", "0"},
      {"seed", "42"},           {"grid_band", "0.1"}};
  for (const char* node : kNodes) {
    for (const char* region : kRegions) {
      add(make_question(1, {{"node", quoted(node)}, {"region", quoted(region)}},
                        lifetime_defaults));
      for (const char* suite : {"vision", "candle"}) {
        add(make_question(1, {{"node", quoted(node)},
                              {"region", quoted(region)},
                              {"suite", quoted(suite)}}));
      }
    }
    for (const char* region : {"ESO", "CISO"}) {
      add(make_question(1, {{"node", quoted(node)},
                            {"region", quoted(region)},
                            {"samples", "256"}}));
    }
  }
  const Params breakeven_defaults = {{"suite", quoted("nlp")},
                                     {"horizon_years", "15"},
                                     {"gpu_usage", "0.4"},
                                     {"pue", "1.2"}};
  const std::pair<const char*, const char*> upgrades[] = {
      {"p100", "v100"}, {"p100", "a100"}, {"v100", "a100"}};
  for (const auto& [from, to] : upgrades) {
    for (const char* decline : {"0", "0.03", "0.07"}) {
      for (const char* intensity : {"100", "200", "400", "800"}) {
        add(make_question(2,
                          {{"old_node", quoted(from)},
                           {"new_node", quoted(to)},
                           {"annual_decline", decline},
                           {"intensity_g_per_kwh", intensity}},
                          breakeven_defaults));
      }
    }
  }
  const Params sched_defaults = {{"capacity", "16"},
                                 {"start_month", "5"},
                                 {"seed", "2024"},
                                 {"regions", "[\"ERCOT\",\"ESO\",\"CISO\"]"}};
  for (const PolicyName& p : kPolicies) {
    for (const char* days : {"1", "2"}) {
      add(make_question(3,
                        {{"policy", quoted(p.name)},
                         {"days", days},
                         {"rate", "2"}},
                        sched_defaults, &p));
    }
  }
  for (const char* region : kRegions) {
    add(make_question(4, {{"region", quoted(region)}}));
    for (const char* window :
         {"0,24", "3624,168", "4380,720", "8000,24", "1200,48"}) {
      const std::string w = window;
      const std::size_t comma = w.find(',');
      add(make_question(4, {{"region", quoted(region)},
                            {"window_start_hour", w.substr(0, comma)},
                            {"window_hours", w.substr(comma + 1)}}));
    }
  }
  const Params fleetsim_defaults = {{"capacity", "16"},
                                    {"start_month", "5"},
                                    {"samples", "0"},
                                    {"seed", "2024"}};
  for (const PolicyName& p : kPolicies) {
    for (const char* process : {"poisson", "diurnal", "bursty"}) {
      for (const char* rate : {"4", "8"}) {
        add(make_question(5,
                          {{"policy", quoted(p.name)},
                           {"process", quoted(process)},
                           {"days", "2"},
                           {"rate", rate}},
                          fleetsim_defaults, &p));
      }
    }
  }
  return u;
}

Universe churn_universe(std::uint64_t seed, std::size_t count) {
  Prng rng(derive_seed(seed, 0xC4u));
  Universe u;
  u.questions.reserve(count);
  auto pick = [&rng](const auto& arr) {
    return arr[rng.below(std::size(arr))];
  };
  auto add = [&u](int family, const Params& params) {
    const std::string op = kFamilies[family];
    Question q;
    q.family = family;
    q.spellings.push_back(render(op, params, Style::kPlain));
    q.spellings.push_back(render(op, params, Style::kReordered));
    u.questions.push_back(std::move(q));
  };
  int total = 0;
  for (const ChurnShare& s : kChurnMix) total += s.weight;
  while (u.questions.size() < count) {
    int f = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
    int family = 0;
    for (const ChurnShare& s : kChurnMix) {
      if (f < s.weight) {
        family = s.family;
        break;
      }
      f -= s.weight;
    }
    // Within a family, the draws mirror net::query_universe too: half the
    // trace questions ask for the whole year, one lifetime question in ten
    // asks for Monte-Carlo quantiles, and sched (here also fleetsim) asks
    // about greedy, net-benefit or forecast-net-benefit. Both are bounded
    // to one or two days at a few jobs per hour: a miss then costs about
    // 3 ms, or 6 ms under forecast-net-benefit.
    if (family == 0) {
      add(0, {{"part", quoted(pick(kParts))}});
    } else if (family == 1) {
      Params p = {{"node", quoted(pick(kNodes))},
                  {"suite", quoted(pick(kSuites))},
                  {"region", quoted(pick(kRegions))},
                  {"years", fixed(rng.uniform(1.0, 20.0), 2)},
                  {"gpu_usage", fixed(rng.uniform(0.05, 1.0), 3)},
                  {"pue", fixed(rng.uniform(1.05, 2.0), 3)},
                  {"start_month", std::to_string(rng.below(12))}};
      if (rng.uniform() < 0.1) {
        p.push_back({"samples", std::to_string(64u << rng.below(3))});
        p.push_back({"seed", std::to_string(rng.below(1000000))});
      }
      add(1, p);
    } else if (family == 2) {
      const char* from = pick(kNodes);
      const char* to = pick(kNodes);
      add(2, {{"old_node", quoted(from)},
              {"new_node", quoted(to)},
              {"suite", quoted(pick(kSuites))},
              {"intensity_g_per_kwh", fixed(rng.uniform(20.0, 900.0), 1)},
              {"annual_decline", fixed(rng.uniform(0.0, 0.15), 4)},
              {"horizon_years", fixed(rng.uniform(2.0, 30.0), 2)},
              {"gpu_usage", fixed(rng.uniform(0.05, 1.0), 3)}});
    } else if (family == 4) {
      if (rng.uniform() < 0.5) {
        add(4, {{"region", quoted(pick(kRegions))}});
      } else {
        add(4, {{"region", quoted(pick(kRegions))},
                {"window_start_hour", std::to_string(rng.below(8760 - 720))},
                {"window_hours", std::to_string(1 + rng.below(720))}});
      }
    } else if (family == 3) {
      add(3, {{"policy", quoted(pick(kChurnPolicies))},
              {"days", std::to_string(1 + rng.below(2))},
              {"rate", fixed(rng.uniform(1.0, 3.0), 2)},
              {"capacity", std::to_string(2 + rng.below(15))},
              {"seed", std::to_string(rng.below(1000000000))}});
    } else {
      const char* processes[] = {"poisson", "diurnal", "bursty"};
      add(5, {{"policy", quoted(pick(kChurnPolicies))},
              {"process", quoted(pick(processes))},
              {"days", std::to_string(1 + rng.below(2))},
              {"rate", fixed(rng.uniform(1.0, 4.0), 2)},
              {"capacity", std::to_string(2 + rng.below(15))},
              {"seed", std::to_string(rng.below(1000000000))}});
    }
  }
  return u;
}

Zipf::Zipf(std::size_t n, double s, std::uint64_t perm_seed)
    : cdf_(n), perm_(n) {
  if (n == 0) throw std::invalid_argument("Zipf over an empty universe");
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<std::uint32_t>(i);
  Prng rng(perm_seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.below(i)]);
  }
}

std::size_t Zipf::item(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank =
      std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return perm_[rank];
}

Stream draw_stream(const Universe& u, const Zipf& zipf, double stats_share,
                   std::uint64_t seed, std::size_t count) {
  Prng rng(seed);
  Stream s;
  s.question.reserve(count);
  s.spelling.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.uniform() < stats_share) {
      s.question.push_back(kStats);
      s.spelling.push_back(0);
      continue;
    }
    const std::size_t q = zipf.item(rng.uniform());
    s.question.push_back(static_cast<std::uint32_t>(q));
    s.spelling.push_back(static_cast<std::uint8_t>(
        rng.below(u.questions[q].spellings.size())));
  }
  return s;
}

void append_line(const Universe& u, const Stream& s, std::size_t i,
                 std::string_view id_prefix, std::string& out) {
  const std::string id = std::string(id_prefix) + std::to_string(i);
  if (s.question[i] == kStats) {
    out += "{\"op\":\"stats\",\"id\":\"";
    out += id;
    out += "\"}";
    return;
  }
  const std::string& text = u.questions[s.question[i]].spellings[s.spelling[i]];
  const std::size_t hole = text.find('$');
  out.append(text, 0, hole);
  out += id;
  out.append(text, hole + 1);
}

int family_of(const Universe& u, const Stream& s, std::size_t i) {
  return s.question[i] == kStats ? -1 : u.questions[s.question[i]].family;
}

std::vector<double> poisson_schedule_us(std::size_t count, double rate,
                                        std::uint64_t seed) {
  Prng rng(seed);
  std::vector<double> at;
  at.reserve(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(rate) * 1e6;
    at.push_back(t);
  }
  return at;
}

std::uint64_t digest(std::string_view bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = 0x243F6A8885A308D3ULL ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 32);
}

hpcarbon::fleetsim::FleetWorkloadParams fleet_params(const FleetShape& shape,
                                                     std::uint64_t seed) {
  hpcarbon::fleetsim::FleetWorkloadParams wp;
  wp.process = hpcarbon::fleetsim::ArrivalProcess::kDiurnal;
  wp.horizon_hours = 24.0 * shape.days;
  wp.rate_per_hour = shape.rate_per_hour;
  wp.diurnal_amplitude = 0.6;
  wp.diurnal_peak_hour = 14.0;
  wp.user_count = 64;
  wp.seed = derive_seed(seed, 0xF1u) % 1000000007u;
  return wp;
}

}  // namespace perfbench
