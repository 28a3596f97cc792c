#include "lifecycle/footprint.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "hw/power.h"
#include "op/operational.h"

namespace hpcarbon::lifecycle {
namespace {

using workload::Suite;

grid::CarbonIntensityTrace constant_trace(double v) {
  return grid::CarbonIntensityTrace(
      "X", kUtc, std::vector<double>(kHoursPerYear, v));
}

TEST(Footprint, Eq1TotalIsSum) {
  TotalFootprint f;
  f.embodied = Mass::kilograms(100);
  f.operational = Mass::kilograms(300);
  EXPECT_DOUBLE_EQ(f.total().to_kilograms(), 400.0);
  EXPECT_DOUBLE_EQ(f.embodied_share(), 0.25);
}

TEST(Footprint, ZeroTotalHasZeroShare) {
  EXPECT_DOUBLE_EQ(TotalFootprint{}.embodied_share(), 0.0);
}

TEST(Footprint, LifetimeMatchesHandComputation) {
  const auto node = hw::v100_node();
  const double usage = 0.4, years = 3.0, ci = 250.0;
  const auto f = node_lifetime_footprint(node, Suite::kNlp, usage, years,
                                         CarbonIntensity::grams_per_kwh(ci),
                                         op::PueModel(1.2));
  EXPECT_NEAR(f.embodied.to_grams(),
              hw::node_embodied(node).to_grams(), 1e-6);
  const double kwh = hw::node_training_power(node, Suite::kNlp).to_kilowatts() *
                     8760.0 * years * usage;
  EXPECT_NEAR(f.operational.to_grams(), kwh * 1.2 * ci, 1.0);
}

TEST(Footprint, TraceVariantMatchesConstantForFlatTrace) {
  const auto node = hw::a100_node();
  const auto flat = constant_trace(200.0);
  const auto ft = node_lifetime_footprint(node, Suite::kVision, 0.5, 1.0,
                                          flat, HourOfYear(0));
  const auto fc = node_lifetime_footprint(
      node, Suite::kVision, 0.5, 1.0, CarbonIntensity::grams_per_kwh(200));
  EXPECT_NEAR(ft.operational.to_grams(), fc.operational.to_grams(),
              fc.operational.to_grams() * 1e-9);
}

TEST(Footprint, EmbodiedShareShrinksWithLifetime) {
  const auto node = hw::v100_node();
  const auto ci = CarbonIntensity::grams_per_kwh(200);
  const auto f1 = node_lifetime_footprint(node, Suite::kNlp, 0.4, 1.0, ci);
  const auto f5 = node_lifetime_footprint(node, Suite::kNlp, 0.4, 5.0, ci);
  EXPECT_GT(f1.embodied_share(), f5.embodied_share());
  EXPECT_DOUBLE_EQ(f1.embodied.to_grams(), f5.embodied.to_grams());
}

TEST(Footprint, GreenGridMakesEmbodiedDominant) {
  // Implication of Observation 5: "as energy sources powering the
  // supercomputers become greener, this aspect [embodied] will become the
  // most dominant factor". On hydro the embodied term is tens of percent of
  // the lifetime total; on coal it is noise.
  const auto node = hw::a100_node();
  const auto green =
      node_lifetime_footprint(node, Suite::kNlp, 0.4, 3.0,
                              CarbonIntensity::grams_per_kwh(20));
  const auto coal =
      node_lifetime_footprint(node, Suite::kNlp, 0.4, 3.0,
                              CarbonIntensity::grams_per_kwh(800));
  EXPECT_GT(green.embodied_share(), 0.25);
  EXPECT_LT(coal.embodied_share(), 0.05);
  EXPECT_GT(green.embodied_share(), coal.embodied_share() * 10.0);
}

TEST(Footprint, ToStringMentionsBothTerms) {
  TotalFootprint f;
  f.embodied = Mass::kilograms(10);
  f.operational = Mass::kilograms(30);
  const auto s = f.to_string();
  EXPECT_NE(s.find("embodied"), std::string::npos);
  EXPECT_NE(s.find("operational"), std::string::npos);
  EXPECT_NE(s.find("25%"), std::string::npos);
}

TEST(Footprint, Validation) {
  const auto node = hw::v100_node();
  const auto ci = CarbonIntensity::grams_per_kwh(200);
  EXPECT_THROW(node_lifetime_footprint(node, Suite::kNlp, 0.4, 0.0, ci),
               Error);
  EXPECT_THROW(node_lifetime_footprint(node, Suite::kNlp, 1.5, 1.0, ci),
               Error);
}

}  // namespace
}  // namespace hpcarbon::lifecycle
