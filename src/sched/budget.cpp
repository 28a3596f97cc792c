#include "sched/budget.h"

#include "core/error.h"

namespace hpcarbon::sched {

CarbonBudgetLedger::Account& CarbonBudgetLedger::account(std::uint32_t user) {
  if (user >= accounts_.size()) accounts_.resize(std::size_t{user} + 1);
  return accounts_[user];
}

void CarbonBudgetLedger::set_allocation(std::uint32_t user, Mass budget) {
  HPC_REQUIRE(budget.to_grams() >= 0, "budget must be non-negative");
  account(user).allocation_g = budget.to_grams();
}

void CarbonBudgetLedger::charge(std::uint32_t user, Mass amount) {
  HPC_REQUIRE(amount.to_grams() >= 0, "charge must be non-negative");
  account(user).spent_g += amount.to_grams();
}

Mass CarbonBudgetLedger::allocation(std::uint32_t user) const {
  return Mass::grams(user < accounts_.size() ? accounts_[user].allocation_g
                                             : 0.0);
}

Mass CarbonBudgetLedger::spent(std::uint32_t user) const {
  return Mass::grams(user < accounts_.size() ? accounts_[user].spent_g : 0.0);
}

double CarbonBudgetLedger::remaining_fraction(std::uint32_t user) const {
  if (user >= accounts_.size() || accounts_[user].allocation_g <= 0) {
    return 0.0;
  }
  return 1.0 - accounts_[user].spent_g / accounts_[user].allocation_g;
}

}  // namespace hpcarbon::sched
