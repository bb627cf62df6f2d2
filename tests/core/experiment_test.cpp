#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <regex>

#include "core/world.hpp"
#include "net/link.hpp"

namespace xmp::core {
namespace {

ExperimentConfig small_config(Pattern p, workload::SchemeSpec::Kind kind, int subflows = 2) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.scheme.kind = kind;
  cfg.scheme.subflows = subflows;
  cfg.pattern = p;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 100'000;
  cfg.perm_max_bytes = 300'000;
  cfg.rand_min_bytes = 100'000;
  cfg.rand_max_bytes = 400'000;
  cfg.duration = sim::Time::milliseconds(150);
  cfg.incast.n_jobs = 2;
  cfg.incast.servers_per_job = 4;
  return cfg;
}

TEST(Experiment, PermutationRunCollectsGoodput) {
  const auto res = run_experiment(small_config(Pattern::Permutation,
                                               workload::SchemeSpec::Kind::Xmp));
  EXPECT_EQ(res.goodput.count(), 16u);  // k=4: 16 hosts, 1 flow each
  EXPECT_GT(res.avg_goodput_mbps(), 50.0);
  EXPECT_GT(res.utilization_by_layer[0].count(), 0u);
  EXPECT_EQ(res.flows.size(), res.flow_category.size());
  EXPECT_EQ(res.flows.size(), res.flow_scheme.size());
}

// Every run checks packet conservation per link at its end. A link whose
// counters do not balance is reported in the results, as one line naming
// the link and every term; the library never exits the process.
TEST(Experiment, BrokenConservationIsReportedInTheResults) {
  auto cfg = small_config(Pattern::Permutation, workload::SchemeSpec::Kind::Xmp);
  cfg.duration = sim::Time::milliseconds(2);
  EXPECT_EQ(run_experiment(cfg).conservation_error, "");

  World w{cfg, nullptr};
  w.start(nullptr);
  w.sched.run_until(cfg.duration);
  // A packet put straight into link 3's queue was never offered to it.
  net::Link& l = *w.netw.links()[3];
  ASSERT_TRUE(l.queue().enqueue(net::Packet{}, w.sched.now()));
  const auto res = w.collect(w.sched.now(), w.sched.dispatched());
  EXPECT_TRUE(std::regex_match(
      res.conservation_error,
      std::regex{"link 3: conservation broken: offered=[0-9]+ \\+ duplicated=0 != "
                 "delivered=[0-9]+ \\+ drops=0 \\+ queued=[1-9][0-9]* \\+ "
                 "in_flight=[0-9]+ \\+ held=0"}))
      << res.conservation_error;
}

TEST(Experiment, RandomRunKeepsIssuingFlows) {
  const auto res = run_experiment(small_config(Pattern::Random,
                                               workload::SchemeSpec::Kind::Dctcp));
  EXPECT_GT(res.flows.size(), 16u);  // re-issue on completion
  EXPECT_GT(res.goodput.count(), 0u);
}

TEST(Experiment, IncastRunProducesJobs) {
  const auto res = run_experiment(small_config(Pattern::Incast,
                                               workload::SchemeSpec::Kind::Xmp));
  EXPECT_GT(res.jobs.size(), 0u);
  EXPECT_GT(res.avg_job_completion_ms(), 0.0);
  EXPECT_LE(res.job_completion_over_ms(300.0), 1.0);
  bool saw_small = false;
  for (const auto& rec : res.flows) saw_small |= !rec.large;
  EXPECT_TRUE(saw_small);
}

TEST(Experiment, DeterministicForFixedSeed) {
  const auto a = run_experiment(small_config(Pattern::Random, workload::SchemeSpec::Kind::Xmp));
  const auto b = run_experiment(small_config(Pattern::Random, workload::SchemeSpec::Kind::Xmp));
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  EXPECT_DOUBLE_EQ(a.avg_goodput_mbps(), b.avg_goodput_mbps());
}

TEST(Experiment, SeedChangesOutcome) {
  auto cfg = small_config(Pattern::Random, workload::SchemeSpec::Kind::Xmp);
  const auto a = run_experiment(cfg);
  cfg.seed = 999;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.events_dispatched, b.events_dispatched);
}

TEST(Experiment, CoexistenceSplitsSenders) {
  auto cfg = small_config(Pattern::Random, workload::SchemeSpec::Kind::Xmp);
  workload::SchemeSpec lia;
  lia.kind = workload::SchemeSpec::Kind::Lia;
  lia.subflows = 2;
  cfg.scheme_b = lia;
  const auto res = run_experiment(cfg);
  EXPECT_GT(res.goodput.count(), 0u);
  EXPECT_GT(res.goodput_b.count(), 0u);
  // Even hosts run scheme A, odd hosts scheme B.
  for (std::size_t i = 0; i < res.flows.size(); ++i) {
    if (!res.flows[i].large) continue;
    EXPECT_EQ(res.flows[i].src_host % 2, res.flow_scheme[i]);
  }
}

TEST(Experiment, RttSamplesLandInCategories) {
  const auto res = run_experiment(small_config(Pattern::Permutation,
                                               workload::SchemeSpec::Kind::Dctcp));
  std::size_t total = 0;
  for (const auto& d : res.rtt_by_category) total += d.count();
  EXPECT_GT(total, 0u);
}

TEST(Experiment, PatternNames) {
  EXPECT_STREQ(pattern_name(Pattern::Permutation), "Permutation");
  EXPECT_STREQ(pattern_name(Pattern::Random), "Random");
  EXPECT_STREQ(pattern_name(Pattern::Incast), "Incast");
}

}  // namespace
}  // namespace xmp::core
