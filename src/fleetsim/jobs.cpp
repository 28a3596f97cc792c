#include "fleetsim/jobs.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <utility>

#include "core/csv.h"
#include "core/error.h"

namespace hpcarbon::fleetsim {

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

FleetJobs::FleetJobs(std::vector<sched::Job> jobs,
                     std::vector<std::string> users)
    : arrivals_(std::move(jobs)), users_(std::move(users)) {
  HPC_REQUIRE(arrivals_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "a fleet holds at most 2^32 - 1 jobs");
  // Before the sort and the snapping: a NaN would break the sort's
  // ordering (the check is false for NaN), and nearest_tick is defined
  // only for ticks inside the int64 range.
  bool sorted = true;
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    const sched::Job& j = arrivals_[i];
    HPC_REQUIRE(std::fabs(j.submit_hour) <= kMaxJobHours &&
                    std::fabs(j.duration_hours) <= kMaxJobHours,
                "fleet jobs: submit or duration beyond kMaxJobHours at index " +
                    std::to_string(i));
    HPC_REQUIRE(j.user < users_.size(),
                "fleet jobs: user index without a name at index " +
                    std::to_string(i));
    sorted = sorted &&
             (i == 0 || arrivals_[i - 1].submit_hour <= j.submit_hour);
  }
  // Stable sort by the raw submit times: jobs submitted at the same
  // instant keep their input order, so FCFS tie-breaking (and therefore
  // every policy decision) is a deterministic function of the job list,
  // and two submits under half a tick apart keep their time order, which
  // sorting the snapped ticks would not.
  if (!sorted) {
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const sched::Job& a, const sched::Job& b) {
                       return a.submit_hour < b.submit_hour;
                     });
  }
  for (sched::Job& j : arrivals_) {
    j.submit_hour = hours_of(std::max<Tick>(0, nearest_tick(j.submit_hour)));
    j.duration_hours =
        hours_of(std::max<Tick>(1, nearest_tick(j.duration_hours)));
  }
}

FleetJobs parse_jobs_csv(const std::string& text, std::size_t site_count) {
  const CsvTable table = parse_csv_table(text);
  if (table.rows.empty()) throw Error("jobs CSV: empty file");
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
    }
    jobs.push_back(j);
  }

  return FleetJobs(std::move(jobs), std::move(users));
}

FleetJobs load_jobs_csv(const std::string& path, std::size_t site_count) {
  return parse_jobs_csv(read_file(path), site_count);
}

}  // namespace hpcarbon::fleetsim
