// Per-user carbon budget ledger.
//
// Implements the paper's incentive-structure implication: "similar to
// core-hour accounting and budgeting, HPC users should also be provided a
// carbon budget as part of their allocation, and they could be prioritized
// to reduce their queue wait time if the carbon footprint of their jobs has
// been economical."
//
// Users are indexes into the run's user-name table (sched::Job::user,
// fleetsim::FleetJobs::users()); the ledger holds no names. Callers that
// print or test by name look the index up in that table.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.h"

namespace hpcarbon::sched {

class CarbonBudgetLedger {
 public:
  CarbonBudgetLedger() = default;

  /// Grant a user an allocation-period budget.
  void set_allocation(std::uint32_t user, Mass budget);

  /// Charge emitted carbon against a user's budget.
  void charge(std::uint32_t user, Mass amount);

  /// An index the ledger has never seen reads 0.
  Mass allocation(std::uint32_t user) const;
  Mass spent(std::uint32_t user) const;

  /// Fraction of budget remaining, in (-inf, 1]; negative when overdrawn.
  /// Users without an allocation are treated as fully spent (0.0).
  double remaining_fraction(std::uint32_t user) const;

  bool is_overdrawn(std::uint32_t user) const {
    return remaining_fraction(user) < 0.0;
  }

  /// Priority key: higher = served sooner. Economical users (large
  /// remaining fraction) jump the queue.
  double priority(std::uint32_t user) const {
    return remaining_fraction(user);
  }

 private:
  struct Account {
    double allocation_g = 0;
    double spent_g = 0;
  };
  /// The user's account, growing the table to reach it.
  Account& account(std::uint32_t user);

  std::vector<Account> accounts_;  // by user index
};

}  // namespace hpcarbon::sched
