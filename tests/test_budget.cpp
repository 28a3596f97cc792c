#include "sched/budget.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/error.h"

namespace hpcarbon::sched {
namespace {

// The ledger is indexed by user (sched::Job::user); these tests name a few
// indexes for readability.
constexpr std::uint32_t kAlice = 0;
constexpr std::uint32_t kBob = 1;
constexpr std::uint32_t kCarol = 2;

TEST(Budget, AllocationAndCharge) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation(kAlice, Mass::kilograms(100));
  EXPECT_DOUBLE_EQ(ledger.allocation(kAlice).to_kilograms(), 100.0);
  EXPECT_DOUBLE_EQ(ledger.spent(kAlice).to_grams(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction(kAlice), 1.0);

  ledger.charge(kAlice, Mass::kilograms(25));
  EXPECT_DOUBLE_EQ(ledger.spent(kAlice).to_kilograms(), 25.0);
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction(kAlice), 0.75);
  EXPECT_FALSE(ledger.is_overdrawn(kAlice));
}

TEST(Budget, OverdraftDetected) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation(kBob, Mass::kilograms(10));
  ledger.charge(kBob, Mass::kilograms(15));
  EXPECT_LT(ledger.remaining_fraction(kBob), 0.0);
  EXPECT_TRUE(ledger.is_overdrawn(kBob));
}

TEST(Budget, UnknownUserTreatedAsSpent) {
  // An index the ledger has never seen reads 0, both on an empty ledger
  // and past the highest index it holds; so does a lower index it grew
  // over without touching.
  CarbonBudgetLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction(7), 0.0);
  EXPECT_DOUBLE_EQ(ledger.allocation(7).to_grams(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.spent(7).to_grams(), 0.0);
  ledger.set_allocation(kCarol, Mass::kilograms(5));
  ledger.charge(kCarol, Mass::kilograms(1));
  for (const std::uint32_t user : {kAlice, kBob, std::uint32_t{3},
                                   std::uint32_t{4000000000u}}) {
    EXPECT_DOUBLE_EQ(ledger.remaining_fraction(user), 0.0) << user;
    EXPECT_DOUBLE_EQ(ledger.allocation(user).to_grams(), 0.0) << user;
    EXPECT_DOUBLE_EQ(ledger.spent(user).to_grams(), 0.0) << user;
    EXPECT_FALSE(ledger.is_overdrawn(user)) << user;
  }
}

TEST(Budget, ChargesAccumulate) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation(kCarol, Mass::kilograms(100));
  for (int i = 0; i < 10; ++i) ledger.charge(kCarol, Mass::kilograms(5));
  EXPECT_DOUBLE_EQ(ledger.spent(kCarol).to_kilograms(), 50.0);
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction(kCarol), 0.5);
}

TEST(Budget, PriorityRanksEconomicalUsersFirst) {
  // The paper's incentive: economical users "could be prioritized to reduce
  // their queue wait time".
  constexpr std::uint32_t kThrifty = 5;
  constexpr std::uint32_t kSpender = 2;
  CarbonBudgetLedger ledger;
  ledger.set_allocation(kThrifty, Mass::kilograms(100));
  ledger.set_allocation(kSpender, Mass::kilograms(100));
  ledger.charge(kThrifty, Mass::kilograms(10));
  ledger.charge(kSpender, Mass::kilograms(90));
  EXPECT_GT(ledger.priority(kThrifty), ledger.priority(kSpender));
}

TEST(Budget, Validation) {
  CarbonBudgetLedger ledger;
  EXPECT_THROW(ledger.set_allocation(kAlice, Mass::grams(-1)), Error);
  EXPECT_THROW(ledger.charge(kAlice, Mass::grams(-1)), Error);
}

TEST(Budget, ZeroAllocationIsFullySpent) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation(kAlice, Mass::grams(0));
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction(kAlice), 0.0);
}

}  // namespace
}  // namespace hpcarbon::sched
