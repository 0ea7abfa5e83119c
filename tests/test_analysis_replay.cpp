// Replay properties: the pooled parallel analyzer must produce a cube
// *bit-identical* to the serial analyzer for any worker count and any
// schedule (the canonical-order accumulation makes floating-point sums
// order-independent across runs); the parallel structure walk assigns
// the serial walk's call-path ids; malformed traces fail with a typed
// Error — the same from every analyzer where they share the check, and
// the lowest failing rank's for every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>

#include <unistd.h>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
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
  // 256 ranks on 4 workers: no rank ever waits for another.
  EXPECT_EQ(p.stats.replay_suspensions, 0u);
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
  // join must reject the channel with a typed error naming the
  // receiving rank and the channel.
  auto& events = tc.ranks[0].events;
  const auto it = std::find_if(
      events.begin(), events.end(),
      [](const auto& e) { return e.type == EventType::Send; });
  ASSERT_NE(it, events.end());
  events.erase(it);

  EXPECT_THROW(analyze_serial(tc), Error);
  try {
    (void)analyze_parallel(tc);
    ADD_FAILURE() << "no Error thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_EQ(e.context().rank, 1) << e.what();
    EXPECT_EQ(e.base_message(),
              "malformed trace: rank 1: unmatched Recv on channel 0 -> 1 "
              "tag 5 communicator 0 (0 sent, 1 received)");
  }
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
    t.coll_bytes = {CollBytes{}};
    tc.ranks.push_back(std::move(t));
  }
  return tc;
}

struct MalformedCase {
  const char* name;
  /// Breaks rank 1's trace.
  std::function<void(tracing::LocalTrace&)> damage;
  /// Expected Error::base_message().
  std::string message;
  /// Breaks the definitions, if set.
  std::function<void(tracing::TraceDefs&)> damage_defs{};
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
  GetParam().damage(tc.ranks[1]);
  if (GetParam().damage_defs) GetParam().damage_defs(tc.defs);

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
                      [](auto& t) {
                        tracing::Event e;
                        e.type = EventType::Exit;
                        t.events.insert(t.events.begin(), e);
                      },
                      "malformed trace: rank 1 event 0: Exit without Enter"},
        MalformedCase{"MessageOutsideRegion",
                      [](auto& t) {
                        tracing::Event e =
                            *first_of(t.events, EventType::Recv);
                        e.tag = 2;
                        t.events.insert(t.events.begin(), e);
                      },
                      "malformed trace: rank 1 event 0: message event "
                      "outside any region"},
        MalformedCase{"UnclosedRegion",
                      [](auto& t) { t.events.pop_back(); },
                      "malformed trace: rank 1 event 6: unclosed region"},
        MalformedCase{"NegativeDuration",
                      [](auto& t) { t.events[3].time = 0.05; },
                      "malformed trace: rank 1 event 3: negative region "
                      "duration"},
        MalformedCase{"IncompleteCollective",
                      [](auto& t) {
                        const auto it =
                            first_of(t.events, EventType::CollExit);
                        t.events.erase(std::prev(it), std::next(it));
                        t.coll_bytes.clear();
                      },
                      "incomplete collective instance in trace: rank 1 "
                      "recorded 0 collectives on communicator 0 but rank 0 "
                      "recorded 1"},
        MalformedCase{"CollExitCommOutOfRange",
                      [](auto& t) {
                        first_of(t.events, EventType::CollExit)->comm =
                            CommId{7};
                      },
                      "malformed trace: rank 1 event 5: collective on "
                      "unknown communicator 7"},
        MalformedCase{"RegionOutOfRange",
                      [](auto& t) { t.events[1].region = RegionId{42}; },
                      "malformed trace: rank 1 event 1: unknown region id "
                      "42"},
        MalformedCase{"DuplicateCommunicatorMember",
                      [](auto&) {},
                      "malformed definitions: communicator 0 lists rank 1 "
                      "twice",
                      [](tracing::TraceDefs& defs) {
                        defs.comms[0].members = {0, 1, 1};
                      }}),
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

// --- pool stats ----------------------------------------------------------

TEST(SchedulerStats, CountersPopulated) {
  const auto topo = simnet::make_viola_experiment1();
  const auto tc = jittered_traces(topo, 3ULL, 8);
  ReplayOptions opts;
  opts.max_workers = 2;
  const auto p = analyze_parallel(tc, opts);
  EXPECT_EQ(p.stats.replay_workers, 2u);
  EXPECT_EQ(p.stats.replay_tasks,
            static_cast<std::size_t>(tc.num_ranks()));
  // The scan and join pair events without any rank waiting for another.
  EXPECT_EQ(p.stats.replay_suspensions, 0u);
  EXPECT_GT(p.stats.replay_bytes, 0u);
}

// --- unmatched messages ------------------------------------------------------

/// Three ranks: rank 0 sends rank 1 two messages on tag 5 and exchanges
/// one message each way with rank 2 on tag 9.
tracing::TraceCollection three_rank_chatter() {
  simmpi::ProgramBuilder b(3);
  b.on(0).enter("main").send(1, 5, 64.0).send(1, 5, 64.0);
  b.on(0).send(2, 9, 64.0).recv(2, 9).exit();
  b.on(1).enter("main").recv(0, 5).recv(0, 5).exit();
  b.on(2).enter("main").recv(0, 9).send(0, 9, 64.0).exit();
  return perfect_traces(simnet::make_ibm_power(3), b.take());
}

void erase_first(std::vector<tracing::Event>& events, EventType type) {
  const auto it = first_of(events, type);
  ASSERT_NE(it, events.end());
  events.erase(it);
}

struct UnmatchedCase {
  const char* name;
  /// Damages the collection.
  std::function<void(tracing::TraceCollection&)> damage;
  Rank rank;  ///< the rank the error names
  std::string message;
};

std::ostream& operator<<(std::ostream& os, const UnmatchedCase& c) {
  return os << c.name;
}

class UnmatchedMessage : public ::testing::TestWithParam<UnmatchedCase> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("msc_unmatched_" + std::to_string(::getpid()) + "_" +
             GetParam().name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// The replay of analyze_parallel and analyze_streaming, strict and
// permissive (rank 2 quarantined, which drops the 0 <-> 2 exchange but
// not the damaged channel), rejects the channel with the same error.
TEST_P(UnmatchedMessage, CorruptNamingRankAndChannel) {
  auto tc = three_rank_chatter();
  ASSERT_NO_THROW(analyze_parallel(tc));
  GetParam().damage(tc);
  const auto topo = simnet::make_ibm_power(3);
  auto arch = archive::ExperimentArchive::create(
      topo, archive::FileSystemLayout::shared(dir_, 1), "exp");
  arch.write_traces(topo, tc);
  std::vector<Error> errors;
  errors.push_back(error_of([&] { (void)analyze_parallel(tc); }));
  errors.push_back(error_of([&] {
    (void)analyze_streaming(arch.stream_source(archive::ReadOptions{}));
  }));
  container_edit::write_block(
      dir_ + "/exp.msc/" + tracing::container_filename(0), 2, {});
  archive::ReadOptions permissive;
  permissive.permissive = true;
  const tracing::StreamSource permissive_src = arch.stream_source(permissive);
  ASSERT_EQ(permissive_src.quarantined, std::vector<Rank>{2});
  const tracing::TraceCollection permissive_tc = arch.read_traces(permissive);
  errors.push_back(error_of([&] { (void)analyze_parallel(permissive_tc); }));
  errors.push_back(error_of([&] { (void)analyze_streaming(permissive_src); }));
  for (const Error& e : errors) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_EQ(e.context().rank, GetParam().rank) << e.what();
    EXPECT_EQ(e.base_message(), GetParam().message) << e.what();
  }
  // The serial analyzer matches messages on its own and rejects the
  // trace too.
  EXPECT_THROW(analyze_serial(tc), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Replay, UnmatchedMessage,
    ::testing::Values(
        UnmatchedCase{"UnmatchedRecv",
                      [](auto& tc) {
                        erase_first(tc.ranks[0].events, EventType::Send);
                      },
                      1,
                      "malformed trace: rank 1: unmatched Recv on channel "
                      "0 -> 1 tag 5 communicator 0 (1 sent, 2 received)"},
        UnmatchedCase{"UnmatchedSend",
                      [](auto& tc) {
                        erase_first(tc.ranks[1].events, EventType::Recv);
                      },
                      0,
                      "malformed trace: rank 0: unmatched Send on channel "
                      "0 -> 1 tag 5 communicator 0 (2 sent, 1 received)"},
        // Rank 1 is left with an unmatched Recv too; rank 0 is lower.
        UnmatchedCase{"SendToRankOutsideCollection",
                      [](auto& tc) {
                        auto& ev = tc.ranks[0].events;
                        first_of(ev, EventType::Send)->peer = 7;
                      },
                      0,
                      "malformed trace: rank 0: unmatched Send on channel "
                      "0 -> 7 tag 5 communicator 0 (1 sent, 0 received)"},
        UnmatchedCase{"RecvFromRankOutsideCollection",
                      [](auto& tc) {
                        auto& ev = tc.ranks[0].events;
                        first_of(ev, EventType::Recv)->peer = 7;
                      },
                      0,
                      "malformed trace: rank 0: unmatched Recv on channel "
                      "7 -> 0 tag 9 communicator 0 (0 sent, 1 received)"}),
    [](const ::testing::TestParamInfo<UnmatchedCase>& info) {
      return std::string(info.param.name);
    });

// Two malformed ranks: the lower one's error surfaces, from the walk and
// from the join, at every worker count and from both entry points.
TEST(ReplayFailFast, LowestMalformedRankSurfacesAtEveryWorkerCount) {
  const int n = 8;
  const auto topo = simnet::make_ibm_power(n);
  simmpi::ProgramBuilder b(n);
  for (Rank r = 0; r < n; ++r) {
    b.on(r).enter("main").send((r + 1) % n, 3, 128.0);
    b.on(r).recv((r + n - 1) % n, 3).barrier().exit();
  }
  const auto clean = perfect_traces(topo, b.take());

  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("msc_lowest_rank_" + std::to_string(::getpid())))
                              .string();
  struct Damage {
    std::function<void(tracing::TraceCollection&)> apply;
    std::string message;
  };
  const Damage damages[] = {
      {[](auto& tc) {
         for (const Rank r : {6, 3}) {
           tracing::Event e;
           e.type = EventType::Exit;
           auto& ev = tc.ranks[static_cast<std::size_t>(r)].events;
           ev.insert(ev.begin(), e);
         }
       },
       "malformed trace: rank 3 event 0: Exit without Enter"},
      // Dropping the Sends of ranks 5 and 2 leaves the Recvs of ranks 6
      // and 3 unmatched.
      {[](auto& tc) {
         erase_first(tc.ranks[5].events, EventType::Send);
         erase_first(tc.ranks[2].events, EventType::Send);
       },
       "malformed trace: rank 3: unmatched Recv on channel 2 -> 3 tag 3 "
       "communicator 0 (0 sent, 1 received)"},
  };
  for (const Damage& d : damages) {
    auto tc = clean;
    d.apply(tc);
    std::filesystem::remove_all(dir);
    auto arch = archive::ExperimentArchive::create(
        topo, archive::FileSystemLayout::shared(dir, 1), "exp");
    arch.write_traces(topo, tc);
    const tracing::StreamSource src =
        arch.stream_source(archive::ReadOptions{});
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{3}, std::size_t{8}}) {
      ReplayOptions opts;
      opts.max_workers = workers;
      for (const Error& e :
           {error_of([&] { (void)analyze_parallel(tc, opts); }),
            error_of([&] { (void)analyze_streaming(src, opts); })}) {
        EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
        EXPECT_EQ(e.base_message(), d.message)
            << workers << " workers: " << e.what();
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// A CollExit on a communicator that does not list the rank is rejected
// by the structure walk every analyzer shares.
TEST(ReplayFailFast, CollectiveOnForeignCommunicatorIsCorrupt) {
  auto tc = clean_pair();
  tc.defs.comms.push_back({CommId{1}, "solo", {0}});
  first_of(tc.ranks[1].events, EventType::CollExit)->comm = CommId{1};
  for (const Error& e : {error_of([&] { (void)analyze_serial(tc); }),
                         error_of([&] { (void)analyze_parallel(tc); })}) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt) << e.what();
    EXPECT_EQ(e.base_message(),
              "malformed trace: rank 1 event 5: collective on communicator "
              "1, which does not list the rank");
  }
}

// --- the parallel structure walk ---------------------------------------------

// Each rank is walked into a local tree and the local trees merge in
// rank order: the ids must be those of the serial walk (ranks in order,
// events in order, get_or_add at every Enter), for any worker count.
TEST(StructureWalkTest, ParallelWalkBuildsTheSerialCallTree) {
  const int n = 12;
  simmpi::ProgramBuilder b(n);
  for (Rank r = 0; r < n; ++r) {
    // Rank-dependent first appearances, so a merge out of rank order or
    // out of first-appearance order renumbers the paths.
    b.on(r).enter("main");
    for (int k = 0; k < 3; ++k) {
      b.on(r).enter("phase" + std::to_string((r + k) % 4));
      if ((r + k) % 3 == 0) b.on(r).enter("inner" + std::to_string(r % 5)).exit();
      b.on(r).compute(1e-4).exit();
    }
    b.on(r).barrier().exit();
  }
  const auto tc = perfect_traces(simnet::make_ibm_power(n), b.take());

  report::CallTree serial;
  for (const auto& trace : tc.ranks) {
    std::vector<CallPathId> stack;
    for (const auto& e : trace.events) {
      if (e.type == EventType::Enter)
        stack.push_back(serial.get_or_add(
            stack.empty() ? CallPathId{} : stack.back(), e.region));
      else if (e.type == EventType::Exit || e.type == EventType::CollExit)
        stack.pop_back();
    }
  }
  ASSERT_GT(serial.size(), 10u);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{8}}) {
    report::CallTree calls;
    StructureWalk(tc.defs, tc.ranks.size()).run(tc, workers, calls);
    EXPECT_TRUE(calls == serial) << workers << " workers";
  }
}

}  // namespace
}  // namespace metascope::analysis
