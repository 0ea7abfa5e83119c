// Replay-core + scheduler properties: the pooled parallel analyzer must
// produce a cube *bit-identical* to the serial analyzer for any worker
// count and any interleaving (the canonical-order accumulation makes
// floating-point sums order-independent across runs); malformed traces
// fail fast instead of hanging a worker forever, with the same typed
// Error from every analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>

#include <unistd.h>

#include "analysis/analyzer.hpp"
#include "analysis/replay_scheduler.hpp"
#include "archive/archive.hpp"
#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "container_edit.hpp"
#include "simnet/presets.hpp"
#include "tracing/container.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/stream.hpp"
#include "workloads/experiment.hpp"

namespace metascope::analysis {
namespace {

using tracing::EventType;

/// Mixed p2p + collective program with per-rank jitter: ring shifts,
/// random pair chatter, staggered barriers/allreduces, rooted
/// collectives.
simmpi::Program jittered_program(int nranks, std::uint64_t seed,
                                 int steps) {
  Rng rng(seed);
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    switch (rng.uniform_index(4)) {
      case 0: {  // ring shift
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).enter("ring").send((r + 1) % nranks, s, 2048.0);
          b.on(r).recv((r + nranks - 1) % nranks, s).exit();
        }
        break;
      }
      case 1: {  // staggered barrier
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.01)).barrier();
        break;
      }
      case 2: {  // allreduce
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.005)).allreduce(512.0);
        break;
      }
      default: {  // rooted pair
        const Rank root = static_cast<Rank>(rng.uniform_index(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).compute(rng.uniform(0.0, 0.004));
          b.on(r).bcast(root, 4096.0);
          b.on(r).reduce(root, 256.0);
        }
        break;
      }
    }
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

tracing::TraceCollection jittered_traces(const simnet::Topology& topo,
                                         std::uint64_t seed, int steps) {
  const auto prog = jittered_program(topo.num_ranks(), seed, steps);
  workloads::ExperimentConfig cfg;
  cfg.measurement.scheme = tracing::SyncScheme::HierarchicalTwo;
  auto data = workloads::run_experiment(topo, prog, cfg);
  clocksync::synchronize(data.traces);
  return std::move(data.traces);
}

tracing::TraceCollection perfect_traces(const simnet::Topology& topo,
                                        const simmpi::Program& prog) {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  return std::move(workloads::run_experiment(topo, prog, cfg).traces);
}

// --- bit-identical across worker counts --------------------------------------

class WorkerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerSweep, PooledCubeBitIdenticalToSerial) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 7ULL, 10);
  const auto s = analyze_serial(tc);
  ReplayOptions opts;
  opts.max_workers = GetParam();
  const auto p = analyze_parallel(tc, opts);
  // Tolerance 0: *exactly* equal, not approximately.
  EXPECT_TRUE(s.cube.approx_equal(p.cube, 0.0));
  EXPECT_EQ(s.stats.messages, p.stats.messages);
  EXPECT_EQ(s.stats.collective_instances, p.stats.collective_instances);
  EXPECT_LE(p.stats.replay_workers, std::max<std::size_t>(GetParam(), 1));
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{8}));

// --- determinism stress (satellite) ------------------------------------------

TEST(ReplayDeterminism, TwentyRunsBitIdenticalUnderTwoWorkerCap) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 99ULL, 12);
  const auto s = analyze_serial(tc);
  ReplayOptions opts;
  opts.max_workers = 2;
  for (int run = 0; run < 20; ++run) {
    const auto p = analyze_parallel(tc, opts);
    ASSERT_TRUE(s.cube.approx_equal(p.cube, 0.0)) << "run " << run;
    ASSERT_EQ(s.stats.messages, p.stats.messages) << "run " << run;
    ASSERT_EQ(s.stats.collective_instances, p.stats.collective_instances)
        << "run " << run;
  }
}

// --- many ranks, few workers --------------------------------------------------

TEST(ReplayScaling, ManyRanksOnFourWorkers) {
  const int n = 256;
  const auto topo = simnet::make_ibm_power(n);
  const auto tc = perfect_traces(topo, jittered_program(n, 21ULL, 4));
  const auto s = analyze_serial(tc);
  ReplayOptions opts;
  opts.max_workers = 4;
  const auto p = analyze_parallel(tc, opts);
  EXPECT_TRUE(s.cube.approx_equal(p.cube, 0.0));
  EXPECT_EQ(p.stats.replay_workers, 4u);
  EXPECT_EQ(p.stats.replay_tasks, static_cast<std::size_t>(n));
  // With 256 ranks multiplexed onto 4 workers, replay cannot proceed
  // without suspending at unsatisfied receives / incomplete collectives.
  EXPECT_GT(p.stats.replay_suspensions, 0u);
}

// --- malformed traces fail fast (satellite) ----------------------------------

TEST(ReplayFailFast, IncompleteCollectiveRaisesBeforeReplay) {
  const auto topo = simnet::make_ibm_power(4);
  simmpi::ProgramBuilder b(4);
  for (Rank r = 0; r < 4; ++r)
    b.on(r).enter("main").compute(0.001).barrier().exit();
  auto tc = perfect_traces(topo, b.take());

  // Drop rank 3's barrier (its Enter + CollExit pair): the instance can
  // never complete. Both analyzers must reject the trace immediately —
  // the old parallel analyzer waited forever on the instance's
  // condition variable.
  auto& events = tc.ranks[3].events;
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const auto& e) { return e.type == EventType::CollExit; });
  ASSERT_NE(it, events.end());
  ASSERT_NE(it, events.begin());
  ASSERT_EQ(std::prev(it)->type, EventType::Enter);
  events.erase(std::prev(it), std::next(it));

  EXPECT_THROW(analyze_serial(tc), Error);
  EXPECT_THROW(analyze_parallel(tc), Error);
}

TEST(ReplayFailFast, UnmatchedReceiveReportsDeadlockNotHang) {
  const auto topo = simnet::make_ibm_power(2);
  simmpi::ProgramBuilder b(2);
  b.on(0).enter("main").send(1, 5, 64.0).exit();
  b.on(1).enter("main").recv(0, 5).exit();
  auto tc = perfect_traces(topo, b.take());

  // Drop the Send event: rank 1's receive can never be satisfied. The
  // scheduler must detect the quiescent replay and raise instead of
  // leaving the task suspended forever.
  auto& events = tc.ranks[0].events;
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const auto& e) { return e.type == EventType::Send; });
  ASSERT_NE(it, events.end());
  events.erase(it);

  EXPECT_THROW(analyze_serial(tc), Error);
  EXPECT_THROW(analyze_parallel(tc), Error);
}

// --- one malformed-trace matrix for every analyzer ---------------------------

/// Two ranks, each main { MPI_Send or MPI_Recv, MPI_Barrier }, built by
/// hand so each matrix case breaks exactly one thing. Region ids: main
/// 0, MPI_Send 1, MPI_Recv 2, MPI_Barrier 3; one communicator.
tracing::TraceCollection clean_pair() {
  tracing::TraceCollection tc;
  tc.scheme = tracing::SyncScheme::None;
  for (const char* name : {"main", "MPI_Send", "MPI_Recv", "MPI_Barrier"})
    tc.defs.regions.intern(name);
  tc.defs.metahosts.push_back({MetahostId{0}, "A"});
  for (Rank r = 0; r < 2; ++r)
    tc.defs.locations.push_back({MetahostId{0}, NodeId{r}, r, 0});
  tc.defs.comms.push_back({CommId{0}, "world", {0, 1}});
  auto ev = [](EventType type, double time, int region) {
    tracing::Event e;
    e.type = type;
    e.time = time;
    e.region = RegionId{region};
    return e;
  };
  auto msg = [](EventType type, double time, Rank peer) {
    tracing::Event e;
    e.type = type;
    e.time = time;
    e.peer = peer;
    e.tag = 1;
    e.comm = CommId{0};
    return e;
  };
  for (Rank r = 0; r < 2; ++r) {
    tracing::LocalTrace t;
    t.rank = r;
    const bool sender = r == 0;
    t.events = {ev(EventType::Enter, 0.0, 0),
                ev(EventType::Enter, 0.1, sender ? 1 : 2),
                msg(sender ? EventType::Send : EventType::Recv, 0.15, 1 - r),
                ev(EventType::Exit, 0.2, -1),
                ev(EventType::Enter, 0.3 + 0.1 * r, 3),
                ev(EventType::CollExit, 0.6, 3),
                ev(EventType::Exit, 0.7, -1)};
    tc.ranks.push_back(std::move(t));
  }
  return tc;
}

struct MalformedCase {
  const char* name;
  /// Breaks rank 1's trace.
  std::function<void(std::vector<tracing::Event>&)> damage;
  /// Expected Error::base_message().
  std::string message;
};

std::ostream& operator<<(std::ostream& os, const MalformedCase& c) {
  return os << c.name;
}

class MalformedTraceMatrix : public ::testing::TestWithParam<MalformedCase> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("msc_malformed_" + std::to_string(::getpid()) + "_" +
             GetParam().name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// Runs `analyze` and returns the Error it throws (fails the test if it
/// throws nothing or something else).
Error error_of(const std::function<void()>& analyze) {
  try {
    analyze();
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "no Error thrown";
  return Error("");
}

TEST_P(MalformedTraceMatrix, SameTypedErrorFromEveryAnalyzer) {
  auto tc = clean_pair();
  ASSERT_NO_THROW(analyze_serial(tc));  // the baseline is well-formed
  GetParam().damage(tc.ranks[1].events);

  // The v3 archive of the damaged collection, streamed back.
  const auto topo = simnet::make_ibm_power(2);
  const auto layout = archive::FileSystemLayout::shared(dir_, 1);
  auto arch = archive::ExperimentArchive::create(topo, layout, "exp");
  arch.write_traces(topo, tc);
  const tracing::StreamSource src = arch.stream_source(archive::ReadOptions{});

  const Error errors[] = {
      error_of([&] { (void)analyze_serial(tc); }),
      error_of([&] { (void)analyze_parallel(tc); }),
      error_of([&] { (void)analyze_streaming(src); }),
  };
  for (const Error& e : errors) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_EQ(e.base_message(), GetParam().message) << e.what();
  }
}

std::vector<tracing::Event>::iterator first_of(
    std::vector<tracing::Event>& events, EventType type) {
  return std::find_if(events.begin(), events.end(),
                      [&](const tracing::Event& e) { return e.type == type; });
}

INSTANTIATE_TEST_SUITE_P(
    Analyzers, MalformedTraceMatrix,
    ::testing::Values(
        MalformedCase{"ExitWithoutEnter",
                      [](auto& ev) {
                        tracing::Event e;
                        e.type = EventType::Exit;
                        ev.insert(ev.begin(), e);
                      },
                      "malformed trace: rank 1 event 0: Exit without Enter"},
        MalformedCase{"MessageOutsideRegion",
                      [](auto& ev) {
                        tracing::Event e = *first_of(ev, EventType::Recv);
                        e.tag = 2;
                        ev.insert(ev.begin(), e);
                      },
                      "malformed trace: rank 1 event 0: message event "
                      "outside any region"},
        MalformedCase{"UnclosedRegion",
                      [](auto& ev) { ev.pop_back(); },
                      "malformed trace: rank 1 event 6: unclosed region"},
        MalformedCase{"NegativeDuration",
                      [](auto& ev) { ev[3].time = 0.05; },
                      "malformed trace: rank 1 event 3: negative region "
                      "duration"},
        MalformedCase{"IncompleteCollective",
                      [](auto& ev) {
                        const auto it = first_of(ev, EventType::CollExit);
                        ev.erase(std::prev(it), std::next(it));
                      },
                      "incomplete collective instance in trace: rank 1 "
                      "recorded 0 collectives on communicator 0 but rank 0 "
                      "recorded 1"},
        MalformedCase{"CollExitCommOutOfRange",
                      [](auto& ev) {
                        first_of(ev, EventType::CollExit)->comm = CommId{7};
                      },
                      "malformed trace: rank 1 event 5: collective on "
                      "unknown communicator 7"},
        MalformedCase{"RegionOutOfRange",
                      [](auto& ev) { ev[1].region = RegionId{42}; },
                      "malformed trace: rank 1 event 1: unknown region id "
                      "42"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return std::string(info.param.name);
    });

// A permissive stream filters surviving ranks against the quarantined
// set; an out-of-range communicator id must still reach the structure
// walk's typed rejection rather than index the quarantine mask.
TEST(MalformedTrace, PermissiveStreamRejectsOutOfRangeComm) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("msc_permissive_comm_" +
                            std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  auto tc = clean_pair();
  first_of(tc.ranks[1].events, EventType::CollExit)->comm = CommId{7};
  const auto topo = simnet::make_ibm_power(2);
  auto arch = archive::ExperimentArchive::create(
      topo, archive::FileSystemLayout::shared(dir, 1), "exp");
  arch.write_traces(topo, tc);
  // Empty rank 0's trace block: a permissive read quarantines it.
  container_edit::write_block(
      dir + "/exp.msc/" + tracing::container_filename(0), 0, {});
  archive::ReadOptions ropts;
  ropts.permissive = true;
  const tracing::StreamSource src = arch.stream_source(ropts);
  ASSERT_EQ(src.quarantined, std::vector<Rank>{0});

  const Error e = error_of([&] { (void)analyze_streaming(src); });
  EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
  EXPECT_EQ(e.base_message(),
            "malformed trace: rank 1 event 4: collective on unknown "
            "communicator 7");
  std::filesystem::remove_all(dir);
}

// --- scheduler stats ----------------------------------------------------------

TEST(SchedulerStats, CountersPopulated) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 3ULL, 8);
  ReplayOptions opts;
  opts.max_workers = 2;
  const auto p = analyze_parallel(tc, opts);
  EXPECT_EQ(p.stats.replay_workers, 2u);
  EXPECT_EQ(p.stats.replay_tasks,
            static_cast<std::size_t>(tc.num_ranks()));
  EXPECT_GT(p.stats.replay_suspensions, 0u);
  // Every suspension is eventually resumed exactly once.
  EXPECT_EQ(p.stats.replay_requeues, p.stats.replay_suspensions);
}

}  // namespace
}  // namespace metascope::analysis
