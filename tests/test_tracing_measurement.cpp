// Per-rank measurement fan-out: collect_traces stamps each rank's events
// on its own split RNG stream, so the traces, sync records included,
// must be identical for every worker count.
#include <gtest/gtest.h>

#include <cstddef>

#include "seed_workloads.hpp"
#include "simnet/presets.hpp"
#include "tracing/measurement.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::tracing {
namespace {

TEST(MeasurementFanout, TracesIdenticalForEveryWorkerCount) {
  const auto topo = simnet::make_viola_experiment1();
  const auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg = seeds::seed_config(/*skewed=*/true);
  Rng clock_rng(cfg.clock_seed);
  const auto clocks = simnet::ClockSet::randomized(topo, cfg.clocks, clock_rng);
  const auto exec = simmpi::execute(topo, prog, cfg.engine);

  cfg.measurement.max_workers = 1;
  const TraceCollection ref =
      collect_traces(topo, clocks, prog, exec, cfg.measurement);
  ASSERT_EQ(ref.num_ranks(), topo.num_ranks());
  std::size_t sync_records = 0;
  for (const auto& lt : ref.ranks) sync_records += lt.sync.size();
  ASSERT_GT(sync_records, 0u);

  for (const std::size_t workers : {2u, 8u}) {
    cfg.measurement.max_workers = workers;
    const TraceCollection got =
        collect_traces(topo, clocks, prog, exec, cfg.measurement);
    EXPECT_EQ(got.scheme, ref.scheme);
    EXPECT_EQ(got.defs.locations, ref.defs.locations);
    EXPECT_EQ(got.defs.comms, ref.defs.comms);
    ASSERT_EQ(got.ranks.size(), ref.ranks.size());
    for (std::size_t r = 0; r < ref.ranks.size(); ++r)
      EXPECT_EQ(got.ranks[r], ref.ranks[r])
          << "rank " << r << " at " << workers << " workers";
  }
}

}  // namespace
}  // namespace metascope::tracing
