// Tests for the tracing layer: metahost identification, measurement
// stamping, binary trace I/O, and message matching.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "common/error.hpp"
#include "simnet/presets.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/matching.hpp"
#include "tracing/measurement.hpp"
#include "tracing/metahost_env.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope::tracing {
namespace {

using simnet::Topology;

// --- metahost identification ---------------------------------------------

TEST(MetahostEnv, DefaultEnvsAreWellFormed) {
  const Topology topo = simnet::make_viola_experiment1();
  const auto envs = default_envs(topo);
  ASSERT_EQ(envs.size(), 3u);
  const auto defs = resolve_metahosts(topo, envs);
  ASSERT_EQ(defs.size(), 3u);
  EXPECT_EQ(defs[0].name, "CAESAR");
  EXPECT_EQ(defs[1].name, "FH-BRS");
  EXPECT_EQ(defs[2].name, "FZJ");
  EXPECT_EQ(defs[0].id.get(), 0);
}

TEST(MetahostEnv, MissingIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[1].erase(kEnvMetahostId);
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, MissingNameRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[2].erase(kEnvMetahostName);
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, DuplicateIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[1][kEnvMetahostId] = "0";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, NonNumericIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[0][kEnvMetahostId] = "zero";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
  envs[0][kEnvMetahostId] = "1x";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, OutOfRangeIdRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[0][kEnvMetahostId] = "7";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, DuplicateNameRejected) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  envs[0][kEnvMetahostName] = "FZJ";
  EXPECT_THROW(resolve_metahosts(topo, envs), Error);
}

TEST(MetahostEnv, PermutedIdsReorderDefinitions) {
  const Topology topo = simnet::make_viola_experiment1();
  auto envs = default_envs(topo);
  // Swap the numeric ids of CAESAR (topo 0) and FZJ (topo 2).
  envs[0][kEnvMetahostId] = "2";
  envs[2][kEnvMetahostId] = "0";
  auto prog = workloads::late_sender_program(0.01);
  // The 2-rank program needs a small 2-metahost topology.
  Topology small;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 1;
  a.cpus_per_node = 1;
  simnet::MetahostSpec b = a;
  b.name = "B";
  small.add_metahost(a);
  small.add_metahost(b);
  small.place_block(MetahostId{0}, 1, 1);
  small.place_block(MetahostId{1}, 1, 1);
  std::vector<EnvMap> senvs = default_envs(small);
  senvs[0][kEnvMetahostId] = "1";
  senvs[0][kEnvMetahostName] = "EnvB";
  senvs[1][kEnvMetahostId] = "0";
  senvs[1][kEnvMetahostName] = "EnvA";
  const auto exec = simmpi::execute(small, prog);
  const auto clocks = simnet::ClockSet::perfect(small);
  MeasurementConfig mc;
  mc.scheme = SyncScheme::None;
  const TraceCollection tc =
      collect_traces(small, clocks, prog, exec, mc, senvs);
  // Rank 0 lives on topology metahost 0, whose env id is 1 / "EnvB".
  EXPECT_EQ(tc.defs.metahost_of(0).get(), 1);
  EXPECT_EQ(tc.defs.metahost(tc.defs.metahost_of(0)).name, "EnvB");
  EXPECT_EQ(tc.defs.metahost_of(1).get(), 0);
  EXPECT_TRUE(tc.defs.crosses_metahosts(0, 1));
}

// --- measurement -----------------------------------------------------------

class MeasurementTest : public ::testing::Test {
 protected:
  MeasurementTest()
      : topo_(simnet::make_viola_experiment1()),
        prog_(workloads::build_metatrace()) {}

  workloads::ExperimentData run(SyncScheme scheme,
                                bool perfect = false) const {
    workloads::ExperimentConfig cfg;
    cfg.measurement.scheme = scheme;
    cfg.perfect_clocks = perfect;
    return workloads::run_experiment(topo_, prog_, cfg);
  }

  Topology topo_;
  simmpi::Program prog_;
};

TEST_F(MeasurementTest, LocalStampsAreMonotonePerRank) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  for (const auto& t : data.traces.ranks) {
    for (std::size_t i = 1; i < t.events.size(); ++i)
      ASSERT_LT(t.events[i - 1].time, t.events[i].time + 1e-15)
          << "rank " << t.rank << " event " << i;
  }
}

TEST_F(MeasurementTest, EventCountsMatchExecution) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  ASSERT_EQ(data.traces.num_ranks(), topo_.num_ranks());
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(
        data.traces.ranks[static_cast<std::size_t>(r)].events.size(),
        data.exec.per_rank[static_cast<std::size_t>(r)].size());
  }
}

TEST_F(MeasurementTest, PerfectClocksReproduceTrueTime) {
  const auto data = run(SyncScheme::None, /*perfect=*/true);
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    const auto& tr = data.traces.ranks[static_cast<std::size_t>(r)];
    const auto& ex = data.exec.per_rank[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < tr.events.size(); ++i)
      ASSERT_NEAR(tr.events[i].time, ex[i].time.s, 1e-8);
  }
}

TEST_F(MeasurementTest, SkewedClocksDivergeFromTrueTime) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  // With offsets up to +-0.5 s, at least one rank's first stamp must be
  // far from true time.
  double max_div = 0.0;
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    const auto& tr = data.traces.ranks[static_cast<std::size_t>(r)];
    const auto& ex = data.exec.per_rank[static_cast<std::size_t>(r)];
    max_div = std::max(max_div, std::abs(tr.events[0].time - ex[0].time.s));
  }
  EXPECT_GT(max_div, 0.01);
}

TEST_F(MeasurementTest, FlatSchemeRecordsOnePhaseOrTwo) {
  const auto one = run(SyncScheme::FlatSingle);
  const auto two = run(SyncScheme::FlatTwo);
  for (Rank r = 1; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(one.traces.ranks[static_cast<std::size_t>(r)].sync.size(),
              1u);
    EXPECT_EQ(two.traces.ranks[static_cast<std::size_t>(r)].sync.size(),
              2u);
    for (const auto& rec :
         two.traces.ranks[static_cast<std::size_t>(r)].sync)
      EXPECT_EQ(rec.ref_rank, 0);
  }
  EXPECT_TRUE(one.traces.ranks[0].sync.empty());
}

TEST_F(MeasurementTest, HierarchicalRecordsReferenceLocalMasters) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  const auto masters = topo_.local_masters();
  const Rank metamaster = 0;
  for (Rank r = 0; r < topo_.num_ranks(); ++r) {
    const auto& sync = data.traces.ranks[static_cast<std::size_t>(r)].sync;
    const Rank lm =
        masters[static_cast<std::size_t>(topo_.metahost_of(r).get())];
    if (r == metamaster) {
      EXPECT_TRUE(sync.empty());
      continue;
    }
    ASSERT_EQ(sync.size(), 2u) << "rank " << r;
    const Rank expected_ref = (r == lm) ? metamaster : lm;
    EXPECT_EQ(sync[0].ref_rank, expected_ref) << "rank " << r;
    EXPECT_EQ(sync[0].phase, 0);
    EXPECT_EQ(sync[1].phase, 1);
  }
}

TEST_F(MeasurementTest, OffsetMeasurementsApproximateTrueOffset) {
  const auto data = run(SyncScheme::FlatTwo);
  // The recorded offset should be close to the true clock difference
  // (within jitter + asymmetry bias, bounded by ~200 us here).
  for (Rank r = 1; r < topo_.num_ranks(); ++r) {
    const auto& rec =
        data.traces.ranks[static_cast<std::size_t>(r)].sync.front();
    const auto& my_clock = data.clocks.clock_of(topo_, r);
    const auto& ref_clock = data.clocks.clock_of(topo_, 0);
    const TrueTime t = my_clock.true_of(LocalTime{rec.local_mid});
    const double true_offset = ref_clock.at(t).s - my_clock.at(t).s;
    EXPECT_NEAR(rec.offset, true_offset, 300e-6) << "rank " << r;
  }
}

// --- binary I/O -------------------------------------------------------------

TEST_F(MeasurementTest, CollectionRoundTripsThroughFiles) {
  const auto data = run(SyncScheme::HierarchicalTwo);
  const auto dir = std::filesystem::temp_directory_path() / "msc_trace_rt";
  std::filesystem::remove_all(dir);
  const auto arch = archive::ExperimentArchive::create(
      topo_, archive::FileSystemLayout::shared(dir.string(),
                                               topo_.num_metahosts()),
      "rt");
  arch.write_traces(topo_, data.traces);
  const TraceCollection loaded = arch.read_traces();
  EXPECT_EQ(loaded.scheme, data.traces.scheme);
  EXPECT_EQ(loaded.synchronized, data.traces.synchronized);
  EXPECT_EQ(loaded.defs.regions.all(), data.traces.defs.regions.all());
  EXPECT_EQ(loaded.defs.metahosts, data.traces.defs.metahosts);
  EXPECT_EQ(loaded.defs.locations, data.traces.defs.locations);
  EXPECT_EQ(loaded.defs.comms, data.traces.defs.comms);
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)])
        << "rank " << r;
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, CorruptMagicRejected) {
  std::vector<std::uint8_t> bytes{'X', 'X', 'X', 'X', 0, 0, 0, 0};
  EXPECT_THROW(decode_defs(bytes), Error);
  EXPECT_THROW(decode_local_trace(bytes), Error);
}

TEST(TraceIo, TruncatedTraceRejected) {
  LocalTrace t;
  t.rank = 0;
  Event e;
  e.type = EventType::Enter;
  e.region = RegionId{0};
  e.time = 1.0;
  t.events.push_back(e);
  auto bytes = encode_local_trace(t);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_local_trace(bytes), Error);
}

TEST(TraceIo, TrailingBytesRejected) {
  LocalTrace t;
  t.rank = 0;
  auto bytes = encode_local_trace(t);
  bytes.push_back(0xFF);
  EXPECT_THROW(decode_local_trace(bytes), Error);
}

// --- matching ----------------------------------------------------------------

TEST(Matching, PairsEveryMessage) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = SyncScheme::None;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto pairs = match_messages(data.traces);
  EXPECT_EQ(pairs.size(), data.exec.stats.messages);
  for (const auto& p : pairs) {
    const auto& s = data.traces.ranks[static_cast<std::size_t>(p.send.rank)]
                        .events[p.send.index];
    const auto& r = data.traces.ranks[static_cast<std::size_t>(p.recv.rank)]
                        .events[p.recv.index];
    ASSERT_EQ(s.type, EventType::Send);
    ASSERT_EQ(r.type, EventType::Recv);
    ASSERT_EQ(s.peer, p.recv.rank);
    ASSERT_EQ(r.peer, p.send.rank);
    ASSERT_EQ(s.tag, r.tag);
    ASSERT_EQ(s.comm, r.comm);
  }
}

TEST(Matching, UnmatchedSendDetected) {
  TraceCollection tc;
  tc.ranks.resize(2);
  tc.ranks[0].rank = 0;
  tc.ranks[1].rank = 1;
  Event e;
  e.type = EventType::Send;
  e.peer = 1;
  e.tag = 0;
  e.time = 1.0;
  tc.ranks[0].events.push_back(e);
  EXPECT_THROW(match_messages(tc), Error);
}

TEST(Matching, UnmatchedRecvDetected) {
  TraceCollection tc;
  tc.ranks.resize(2);
  tc.ranks[0].rank = 0;
  tc.ranks[1].rank = 1;
  Event e;
  e.type = EventType::Recv;
  e.peer = 0;
  e.tag = 0;
  e.time = 1.0;
  tc.ranks[1].events.push_back(e);
  EXPECT_THROW(match_messages(tc), Error);
}

/// The pre-merge implementation, kept as the behavioural reference: a
/// full sort over every (rank, index) pair with the (time, rank, index)
/// comparator.
std::vector<TraceCollection::GlobalRef> reference_order(
    const TraceCollection& tc) {
  std::vector<TraceCollection::GlobalRef> order;
  for (const auto& t : tc.ranks)
    for (std::uint32_t i = 0; i < t.events.size(); ++i)
      order.push_back({t.rank, i});
  std::sort(order.begin(), order.end(),
            [&tc](const TraceCollection::GlobalRef& a,
                  const TraceCollection::GlobalRef& b) {
              const double ta =
                  tc.ranks[static_cast<std::size_t>(a.rank)].events[a.index]
                      .time;
              const double tb =
                  tc.ranks[static_cast<std::size_t>(b.rank)].events[b.index]
                      .time;
              if (ta != tb) return ta < tb;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.index < b.index;
            });
  return order;
}

bool same_order(const std::vector<TraceCollection::GlobalRef>& a,
                const std::vector<TraceCollection::GlobalRef>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].rank != b[i].rank || a[i].index != b[i].index) return false;
  return true;
}

TEST(GlobalOrder, EqualTimestampsOrderByRankThenIndexDeterministically) {
  // Heavy timestamp collisions across ranks (every time is a multiple
  // of 0.5 shared by all ranks) so the tie-break carries the ordering.
  TraceCollection tc;
  tc.ranks.resize(4);
  for (int r = 0; r < 4; ++r) {
    tc.ranks[static_cast<std::size_t>(r)].rank = r;
    for (int i = 0; i < 50; ++i) {
      Event e;
      e.type = i % 2 == 0 ? EventType::Enter : EventType::Exit;
      e.region = RegionId{0};
      e.time = 0.5 * (i / 5);  // ten events share each timestamp
      tc.ranks[static_cast<std::size_t>(r)].events.push_back(e);
    }
  }
  const auto merged = tc.global_order();
  EXPECT_TRUE(same_order(merged, reference_order(tc)));
  // Repeated calls are identical (no hidden iteration-order dependence).
  EXPECT_TRUE(same_order(merged, tc.global_order()));
  // Among equal timestamps, rank ascends and within a rank index ascends.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = merged[i - 1];
    const auto& b = merged[i];
    const double ta =
        tc.ranks[static_cast<std::size_t>(a.rank)].events[a.index].time;
    const double tb =
        tc.ranks[static_cast<std::size_t>(b.rank)].events[b.index].time;
    if (ta == tb) {
      EXPECT_TRUE(a.rank < b.rank || (a.rank == b.rank && a.index < b.index));
    }
  }
}

TEST(GlobalOrder, UnsortedRankStreamFallsBackToFullSort) {
  TraceCollection tc;
  tc.ranks.resize(2);
  tc.ranks[0].rank = 0;
  tc.ranks[1].rank = 1;
  const double times0[] = {3.0, 1.0, 2.0};  // deliberately out of order
  const double times1[] = {0.5, 1.5, 2.5};
  for (double t : times0) {
    Event e;
    e.type = EventType::Enter;
    e.region = RegionId{0};
    e.time = t;
    tc.ranks[0].events.push_back(e);
  }
  for (double t : times1) {
    Event e;
    e.type = EventType::Enter;
    e.region = RegionId{0};
    e.time = t;
    tc.ranks[1].events.push_back(e);
  }
  EXPECT_TRUE(same_order(tc.global_order(), reference_order(tc)));
}

TEST(EpilogIo, TruncatedTraceFileReportsClearError) {
  LocalTrace t;
  t.rank = 3;
  for (int i = 0; i < 20; ++i) {
    Event e;
    e.type = EventType::Send;
    e.peer = 1;
    e.tag = i;
    e.bytes = 128.0;
    e.comm = CommId{0};
    e.time = 0.1 * i;
    t.events.push_back(e);
  }
  const auto bytes = encode_local_trace(t);
  // Chop at several depths: inside the last event, mid-payload, and just
  // past the header. Every cut must produce the truncation Error, never
  // a raw buffer underflow.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{12}}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + keep);
    try {
      (void)decode_local_trace(cut);
      FAIL() << "expected Error at keep=" << keep;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated trace file"),
                std::string::npos)
          << "keep=" << keep << " message: " << e.what();
    }
  }
}

TEST(EpilogIo, ZeroEventTraceRoundTrips) {
  LocalTrace t;
  t.rank = 7;
  const auto decoded = decode_local_trace(encode_local_trace(t));
  EXPECT_EQ(decoded.rank, 7);
  EXPECT_TRUE(decoded.events.empty());
  EXPECT_TRUE(decoded.sync.empty());
}

// A CollExit on a communicator that lost a member degrades to a plain
// Exit and takes its coll_bytes entry with it; every other entry stays,
// in order, so the pruned trace still encodes.
TEST(PruneQuarantined, DegradedCollExitDropsItsCollBytesEntry) {
  TraceCollection tc;
  tc.defs.comms = {CommDef{CommId{0}, "world", {0, 1, 2}},
                   CommDef{CommId{1}, "pair", {1, 2}}};
  auto ev = [](EventType type, double time, int comm) {
    Event e;
    e.type = type;
    e.time = time;
    if (type != EventType::Exit) e.region = RegionId{0};
    if (type == EventType::CollExit) e.comm = CommId{comm};
    return e;
  };
  for (Rank r = 0; r < 3; ++r) {
    LocalTrace t;
    t.rank = r;
    t.events = {ev(EventType::Enter, 0.0, 0),
                ev(EventType::Enter, 0.1, 0),
                ev(EventType::CollExit, 0.2, 0),
                ev(EventType::Enter, 0.3, 0),
                ev(EventType::CollExit, 0.4, r == 0 ? 0 : 1),
                ev(EventType::Exit, 0.5, 0)};
    t.coll_bytes = {CollBytes{1.0 + r, 2.0}, CollBytes{3.0 + r, 4.0}};
    tc.ranks.push_back(std::move(t));
  }

  EXPECT_EQ(prune_quarantined(tc, {0}), 2u);
  for (Rank r = 1; r < 3; ++r) {
    const LocalTrace& t = tc.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(t.events.size(), 6u);
    EXPECT_EQ(t.events[2].type, EventType::Exit);
    EXPECT_EQ(t.events[4].type, EventType::CollExit);
    const std::vector<CollBytes> kept{CollBytes{3.0 + r, 4.0}};
    EXPECT_EQ(t.coll_bytes, kept);
    EXPECT_EQ(decode_local_trace(encode_local_trace(t)), t);
  }
}

TEST(GlobalOrder, SortedByTime) {
  const auto topo = simnet::make_ibm_power(4);
  auto prog = workloads::wait_barrier_program({0.0, 0.1, 0.2, 0.3});
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = SyncScheme::None;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto order = data.traces.global_order();
  EXPECT_EQ(order.size(), data.traces.total_events());
  double last = -1.0;
  for (const auto& ref : order) {
    const double t = data.traces.ranks[static_cast<std::size_t>(ref.rank)]
                         .events[ref.index]
                         .time;
    EXPECT_GE(t, last);
    last = t;
  }
}

}  // namespace
}  // namespace metascope::tracing
