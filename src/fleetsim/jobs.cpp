#include "fleetsim/jobs.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/csv.h"
#include "core/error.h"

namespace hpcarbon::fleetsim {

void FleetJobs::push(std::int32_t job_id, Tick submit_tick, Tick duration_tick,
                     Power it_power, std::uint32_t user_index) {
  id.push_back(job_id);
  submit.push_back(submit_tick);
  duration.push_back(duration_tick);
  power.push_back(it_power);
  user.push_back(user_index);
}

void FleetJobs::validate() const {
  const std::size_t n = size();
  HPC_REQUIRE(id.size() == n && duration.size() == n && power.size() == n &&
                  user.size() == n,
              "fleet jobs: parallel vectors disagree on length");
  for (std::size_t i = 0; i < n; ++i) {
    HPC_REQUIRE(submit[i] >= 0, "fleet jobs: negative submit tick at index " +
                                    std::to_string(i));
    HPC_REQUIRE(i == 0 || submit[i - 1] <= submit[i],
                "fleet jobs: submits not sorted at index " +
                    std::to_string(i));
    HPC_REQUIRE(duration[i] > 0, "fleet jobs: non-positive duration at index " +
                                     std::to_string(i));
    HPC_REQUIRE(submit[i] <= kMaxJobTicks && duration[i] <= kMaxJobTicks,
                "fleet jobs: submit or duration above kMaxJobTicks at index " +
                    std::to_string(i));
    HPC_REQUIRE(user[i] < users.size(),
                "fleet jobs: user index out of range at index " +
                    std::to_string(i));
  }
}

FleetJobs FleetJobs::from_jobs(const std::vector<sched::Job>& jobs,
                               std::vector<std::string> users) {
  // Before the sort and the rounding: a NaN would break the sort's
  // ordering (the check is false for NaN), and llround's result is
  // unspecified outside the int64 range.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    HPC_REQUIRE(std::fabs(jobs[i].submit_hour) <= kMaxJobHours &&
                    std::fabs(jobs[i].duration_hours) <= kMaxJobHours,
                "fleet jobs: submit or duration beyond kMaxJobHours at index " +
                    std::to_string(i));
  }
  // Stable sort by submit: jobs submitted at the same instant keep their
  // input order, so FCFS tie-breaking (and therefore every policy
  // decision) is a deterministic function of the job list.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].submit_hour < jobs[b].submit_hour;
                   });
  FleetJobs out;
  out.users = std::move(users);
  out.id.reserve(jobs.size());
  out.submit.reserve(jobs.size());
  out.duration.reserve(jobs.size());
  out.power.reserve(jobs.size());
  out.user.reserve(jobs.size());
  for (const std::size_t i : order) {
    const sched::Job& j = jobs[i];
    const Tick dur = std::max<Tick>(1, nearest_tick(j.duration_hours));
    out.push(static_cast<std::int32_t>(j.id),
             std::max<Tick>(0, nearest_tick(j.submit_hour)), dur, j.it_power,
             j.user);
  }
  return out;
}

std::vector<sched::Job> FleetJobs::to_jobs() const {
  std::vector<sched::Job> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    sched::Job j;
    j.id = id[i];
    j.user = user[i];
    j.submit_hour = hours_of(submit[i]);
    j.duration_hours = hours_of(duration[i]);
    j.it_power = power[i];
    out.push_back(j);
  }
  return out;
}

namespace {

double parse_num(const std::string& cell, const char* column,
                 std::size_t line) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (cell.empty() || end != cell.c_str() + cell.size()) {
    throw Error("jobs CSV: non-numeric " + std::string(column) + " '" + cell +
                "' (line " + std::to_string(line) + ")");
  }
  // strtod accepts "nan" and "inf"; neither is a time, a power, or a site.
  if (!std::isfinite(v)) {
    throw Error("jobs CSV: non-finite " + std::string(column) + " '" + cell +
                "' (line " + std::to_string(line) + ")");
  }
  return v;
}

void require_at_most_max_hours(double hours, const char* column,
                               std::size_t line) {
  if (hours > kMaxJobHours) {
    throw Error("jobs CSV: " + std::string(column) + " above " +
                std::to_string(static_cast<long long>(kMaxJobHours)) +
                " hours (line " + std::to_string(line) + ")");
  }
}

}  // namespace

FleetJobs parse_jobs_csv(const std::string& text, std::size_t site_count,
                         std::vector<std::int32_t>* origin_site) {
  const CsvTable table = parse_csv_table(text);
  HPC_REQUIRE(!table.rows.empty(), "jobs CSV: empty file");
  const auto& header = table.rows[0];
  const bool has_site = header.size() == 5;
  if (header.size() < 4 || header.size() > 5 || header[0] != "submit_hours" ||
      header[1] != "duration_hours" || header[2] != "power_kw" ||
      header[3] != "user" || (has_site && header[4] != "site")) {
    throw Error(
        "jobs CSV: header must be "
        "submit_hours,duration_hours,power_kw,user[,site] (line " +
        std::to_string(table.line_numbers[0]) + ")");
  }

  std::vector<sched::Job> jobs;
  std::vector<std::pair<std::size_t, std::int32_t>> origins;  // (row, site)
  jobs.reserve(table.rows.size() - 1);
  std::vector<std::string> users;  // first appearance in the file
  std::unordered_map<std::string, std::uint32_t> user_index;
  for (std::size_t r = 1; r < table.rows.size(); ++r) {
    const auto& cells = table.rows[r];
    const std::size_t line = table.line_numbers[r];
    sched::Job j;
    j.id = static_cast<int>(r - 1);
    j.submit_hour = parse_num(cells[0], "submit_hours", line);
    if (j.submit_hour < 0) {
      throw Error("jobs CSV: negative submit_hours (line " +
                  std::to_string(line) + ")");
    }
    require_at_most_max_hours(j.submit_hour, "submit_hours", line);
    j.duration_hours = parse_num(cells[1], "duration_hours", line);
    if (j.duration_hours <= 0) {
      throw Error("jobs CSV: duration_hours must be positive (line " +
                  std::to_string(line) + ")");
    }
    require_at_most_max_hours(j.duration_hours, "duration_hours", line);
    const double kw = parse_num(cells[2], "power_kw", line);
    if (kw <= 0) {
      throw Error("jobs CSV: power_kw must be positive (line " +
                  std::to_string(line) + ")");
    }
    j.it_power = Power::kilowatts(kw);
    if (cells[3].empty()) {
      throw Error("jobs CSV: empty user (line " + std::to_string(line) + ")");
    }
    const auto [it, inserted] = user_index.try_emplace(
        cells[3], static_cast<std::uint32_t>(users.size()));
    if (inserted) users.push_back(cells[3]);
    j.user = it->second;
    if (has_site) {
      const double site = parse_num(cells[4], "site", line);
      if (site != std::floor(site) || site < 0 ||
          site >= static_cast<double>(site_count)) {
        throw Error("jobs CSV: site must be an integer in [0, " +
                    std::to_string(site_count) + ") (line " +
                    std::to_string(line) + ")");
      }
      origins.emplace_back(jobs.size(), static_cast<std::int32_t>(site));
    }
    jobs.push_back(j);
  }

  FleetJobs out = FleetJobs::from_jobs(jobs, std::move(users));
  if (origin_site != nullptr) {
    // from_jobs may reorder; map origins through the preserved ids (ids
    // are the pre-sort row order by construction above).
    std::vector<std::int32_t> by_row(jobs.size(), -1);
    for (const auto& [row, site] : origins) by_row[row] = site;
    origin_site->assign(out.size(), -1);
    for (std::size_t i = 0; i < out.size(); ++i) {
      (*origin_site)[i] = by_row[static_cast<std::size_t>(out.id[i])];
    }
  }
  return out;
}

FleetJobs load_jobs_csv(const std::string& path, std::size_t site_count,
                        std::vector<std::int32_t>* origin_site) {
  return parse_jobs_csv(read_file(path), site_count, origin_site);
}

}  // namespace hpcarbon::fleetsim
