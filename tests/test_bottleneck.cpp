#include "core/bottleneck.hpp"

#include <gtest/gtest.h>

#include "simmachine/synthetic.hpp"

namespace estima::core {
namespace {

using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

TEST(Bottleneck, RanksDominantCategoryFirst) {
  SyntheticSpec spec;
  spec.mem_rate = 0.05;
  spec.stm_rate = 0.01;  // software aborts dominate at scale
  const auto measured = make_synthetic(spec, counts_up_to(12));

  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);

  auto report = analyze_bottlenecks(pred, measured, 48);
  ASSERT_FALSE(report.entries.empty());
  EXPECT_EQ(report.entries.front().category, "stm_abort_cycles");
  EXPECT_EQ(report.entries.front().domain, StallDomain::kSoftware);
  EXPECT_GT(report.entries.front().share_at_target, 0.5);
  // Shares must sum to ~1.
  double total = 0.0;
  for (const auto& e : report.entries) total += e.share_at_target;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Bottleneck, GrowthFactorReflectsExtrapolation) {
  SyntheticSpec spec;
  spec.mem_growth = 0.02;
  const auto measured = make_synthetic(spec, counts_up_to(12));
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);
  auto report = analyze_bottlenecks(pred, measured, 48);
  for (const auto& e : report.entries) {
    // Every category grows when extrapolating 12 -> 48 cores here.
    EXPECT_GT(e.growth_factor, 1.0) << e.category;
  }
}

TEST(Bottleneck, ThrowsOnUnknownTarget) {
  SyntheticSpec spec;
  const auto measured = make_synthetic(spec, counts_up_to(12));
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(48);
  auto pred = predict(measured, cfg);
  EXPECT_THROW(analyze_bottlenecks(pred, measured, 99),
               std::invalid_argument);
}

TEST(Bottleneck, ReportRendersText) {
  SyntheticSpec spec;
  spec.stm_rate = 0.003;
  const auto measured = make_synthetic(spec, counts_up_to(12));
  PredictionConfig cfg;
  cfg.target_cores = counts_up_to(24);
  auto pred = predict(measured, cfg);
  auto report = analyze_bottlenecks(pred, measured, 24);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("Bottleneck report"), std::string::npos);
  EXPECT_NE(text.find("stm_abort_cycles"), std::string::npos);
}

}  // namespace
}  // namespace estima::core
