#include "simmpi/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "seed_workloads.hpp"
#include "workloads/config.hpp"

namespace metascope::simmpi {
namespace {

using simnet::LinkSpec;
using simnet::MetahostSpec;
using simnet::Topology;

/// Two metahosts, two 2-way nodes each, jitter-free links for exact
/// timing checks. Ranks 0..3 on A, 4..7 on B.
Topology make_two_host(double speed_a = 1.0, double speed_b = 1.0) {
  Topology topo;
  MetahostSpec a;
  a.name = "A";
  a.num_nodes = 2;
  a.cpus_per_node = 2;
  a.speed_factor = speed_a;
  a.internal = LinkSpec{10e-6, 0.0, 1e9};
  a.intra_node = LinkSpec{1e-6, 0.0, 4e9};
  MetahostSpec b = a;
  b.name = "B";
  b.speed_factor = speed_b;
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, LinkSpec{1000e-6, 0.0, 1e9});
  topo.place_block(ia, 2, 2);
  topo.place_block(ib, 2, 2);
  return topo;
}

EngineConfig exact_config() {
  EngineConfig cfg;
  cfg.cpu_overhead = 1e-6;
  cfg.eager_threshold = 65536.0;
  return cfg;
}

const ExecEvent& find_event(const ExecResult& res, Rank r,
                            ExecEventType type, int nth = 0) {
  int seen = 0;
  for (const auto& e : res.per_rank[static_cast<std::size_t>(r)]) {
    if (e.type == type && seen++ == nth) return e;
  }
  throw Error("event not found");
}

TEST(Engine, ComputeAdvancesByWorkOverSpeed) {
  ProgramBuilder b(8);
  for (Rank r = 0; r < 8; ++r) b.on(r).enter("m").compute(1.0).exit();
  const Program p = b.take();
  const Topology topo = make_two_host(2.0, 0.5);
  const ExecResult res = execute(topo, p, exact_config());
  EXPECT_DOUBLE_EQ(res.rank_end[0].s, 0.5);  // speed 2.0
  EXPECT_DOUBLE_EQ(res.rank_end[4].s, 2.0);  // speed 0.5
  EXPECT_DOUBLE_EQ(res.end_time.s, 2.0);
}

TEST(Engine, EagerSendDoesNotBlockOnReceiver) {
  ProgramBuilder b(8);
  b.on(0).enter("m").send(4, 0, 1000.0).compute(0.001).exit();
  b.on(4).enter("m").compute(1.0).recv(0, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  const ExecResult res = execute(topo, b.take(), exact_config());
  // Sender finished long before the receiver posted.
  const auto& send_exit = find_event(res, 0, ExecEventType::Exit, 0);
  EXPECT_LT(send_exit.time.s, 0.01);
  EXPECT_GT(res.rank_end[4].s, 1.0);
}

TEST(Engine, RecvCompletesAtArrival) {
  ProgramBuilder b(8);
  const double bytes = 1000.0;
  b.on(0).enter("m").compute(0.5).send(4, 0, bytes).exit();
  b.on(4).enter("m").recv(0, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  const EngineConfig cfg = exact_config();
  const ExecResult res = execute(topo, b.take(), cfg);
  const auto& send = find_event(res, 0, ExecEventType::Send);
  const auto& recv = find_event(res, 4, ExecEventType::Recv);
  // Arrival = send_event + latency + bytes/bw; completion adds overhead.
  const double expect_arrival = send.time.s + 1000e-6 + bytes / 1e9;
  EXPECT_NEAR(recv.time.s, expect_arrival + cfg.cpu_overhead, 1e-9);
  // The send event sits inside the sender's MPI_Send region, after 0.5s
  // of compute.
  EXPECT_NEAR(send.time.s, 0.5 + 0.5 * cfg.cpu_overhead, 1e-9);
}

TEST(Engine, RendezvousSenderBlocksUntilReceivePosted) {
  ProgramBuilder b(8);
  const double bytes = 1 << 20;  // > eager threshold
  b.on(0).enter("m").send(4, 0, bytes).exit();
  b.on(4).enter("m").compute(0.8).recv(0, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  const ExecResult res = execute(topo, b.take(), exact_config());
  // Sender's exit happens only after the receiver posted at ~0.8s.
  const auto& send_exit = find_event(res, 0, ExecEventType::Exit, 0);
  EXPECT_GT(send_exit.time.s, 0.8);
  // And the transfer itself takes bytes/bw after the handshake.
  EXPECT_GT(send_exit.time.s, 0.8 + bytes / 1e9);
}

TEST(Engine, EagerVersusRendezvousThreshold) {
  const Topology topo = make_two_host();
  for (double bytes : {1000.0, 100000.0}) {
    ProgramBuilder b(8);
    b.on(0).enter("m").send(4, 0, bytes).exit();
    b.on(4).enter("m").compute(0.5).recv(0, 0).exit();
    for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
    const ExecResult res = execute(topo, b.take(), exact_config());
    const auto& send_exit = find_event(res, 0, ExecEventType::Exit, 0);
    if (bytes < 65536.0) {
      EXPECT_LT(send_exit.time.s, 0.1);
    } else {
      EXPECT_GT(send_exit.time.s, 0.5);
    }
  }
}

TEST(Engine, IsendReturnsImmediatelyWaitBlocks) {
  ProgramBuilder b(8);
  const double bytes = 1 << 20;
  auto& c0 = b.on(0);
  c0.enter("m");
  const int req = c0.isend(4, 0, bytes);
  c0.compute(0.1);
  c0.wait(req);
  c0.exit();
  b.on(4).enter("m").compute(0.8).recv(0, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  const ExecResult res = execute(topo, b.take(), exact_config());
  // MPI_Isend exits immediately (first Exit after its Enter).
  const auto& isend_exit = find_event(res, 0, ExecEventType::Exit, 0);
  EXPECT_LT(isend_exit.time.s, 0.01);
  // MPI_Wait holds until the rendezvous completes.
  EXPECT_GT(res.rank_end[0].s, 0.8);
}

TEST(Engine, IrecvWaitCarriesRecvEvent) {
  ProgramBuilder b(8);
  auto& c4 = b.on(4);
  c4.enter("m");
  const int req = c4.irecv(0, 0);
  c4.compute(0.2);
  c4.wait(req);
  c4.exit();
  b.on(0).enter("m").compute(0.5).send(4, 0, 100.0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  const Program prog = b.take();
  const RegionId wait_region = prog.regions.find("MPI_Wait");
  const ExecResult res = execute(topo, prog, exact_config());
  const auto& recv = find_event(res, 4, ExecEventType::Recv);
  EXPECT_GT(recv.time.s, 0.5);  // message only sent at 0.5s
  // The RECV event lies within the MPI_Wait region, not MPI_Irecv: the
  // innermost Enter preceding it must be MPI_Wait.
  const auto& events = res.per_rank[4];
  RegionId current;
  for (const auto& e : events) {
    if (e.type == ExecEventType::Enter) current = e.region;
    if (e.type == ExecEventType::Recv) {
      EXPECT_EQ(current, wait_region);
    }
  }
}

TEST(Engine, CrossSendRecvDoesNotDeadlock) {
  // Mutual rendezvous sendrecv: resolvable because posts are symmetric.
  ProgramBuilder b(8);
  const double bytes = 1 << 20;
  b.on(0).enter("m").sendrecv(4, bytes, 4, bytes, 0).exit();
  b.on(4).enter("m").sendrecv(0, bytes, 0, bytes, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  EXPECT_NO_THROW(execute(topo, b.take(), exact_config()));
}

TEST(Engine, MutualBlockingRendezvousSendsDeadlock) {
  // Classic unsafe MPI: both sides blocking-send a rendezvous message
  // before receiving. Validation passes (counts balance); execution must
  // detect the deadlock.
  ProgramBuilder b(8);
  const double bytes = 1 << 20;
  b.on(0).enter("m").send(4, 0, bytes).recv(4, 1).exit();
  b.on(4).enter("m").send(0, 1, bytes).recv(0, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  try {
    execute(topo, b.take(), exact_config());
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(Engine, MutualEagerSendsAreFine) {
  ProgramBuilder b(8);
  b.on(0).enter("m").send(4, 0, 100.0).recv(4, 1).exit();
  b.on(4).enter("m").send(0, 1, 100.0).recv(0, 0).exit();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();
  EXPECT_NO_THROW(execute(topo, b.take(), exact_config()));
}

TEST(Engine, NonOvertakingOrderPreserved) {
  // Two same-tag messages must match in order; the second cannot arrive
  // "before" the first even though it is smaller.
  ProgramBuilder b(8);
  b.on(0).enter("m").send(4, 0, 50000.0).send(4, 0, 10.0).exit();
  b.on(4).enter("m").recv(0, 0).recv(0, 0).exit();
  const Topology topo = make_two_host();
  for (Rank r : {1, 2, 3, 5, 6, 7}) b.on(r).enter("m").exit();
  const ExecResult res = execute(topo, b.take(), exact_config());
  const auto& recv1 = find_event(res, 4, ExecEventType::Recv, 0);
  const auto& recv2 = find_event(res, 4, ExecEventType::Recv, 1);
  EXPECT_DOUBLE_EQ(recv1.bytes, 50000.0);
  EXPECT_DOUBLE_EQ(recv2.bytes, 10.0);
  EXPECT_GE(recv2.time.s, recv1.time.s);
}

TEST(Engine, EventStreamsMonotonePerRank) {
  ProgramBuilder b(8);
  for (Rank r = 0; r < 8; ++r) {
    auto& c = b.on(r);
    c.enter("m");
    for (int i = 0; i < 5; ++i) {
      c.compute(0.001);
      c.barrier();
      c.allreduce(64.0);
    }
    c.exit();
  }
  const Topology topo = make_two_host(1.0, 0.3);
  const ExecResult res = execute(topo, b.take(), exact_config());
  for (const auto& events : res.per_rank) {
    for (std::size_t i = 1; i < events.size(); ++i)
      EXPECT_LE(events[i - 1].time.s, events[i].time.s);
  }
}

TEST(Engine, BalancedEnterExitPerRank) {
  ProgramBuilder b(8);
  for (Rank r = 0; r < 8; ++r)
    b.on(r).enter("a").enter("b").compute(0.01).exit().barrier().exit();
  const Topology topo = make_two_host();
  const ExecResult res = execute(topo, b.take(), exact_config());
  for (const auto& events : res.per_rank) {
    int depth = 0;
    for (const auto& e : events) {
      if (e.type == ExecEventType::Enter) ++depth;
      if (e.type == ExecEventType::Exit ||
          e.type == ExecEventType::CollExit)
        --depth;
      EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  auto build = [] {
    ProgramBuilder b(8);
    for (Rank r = 0; r < 8; ++r) {
      auto& c = b.on(r);
      c.enter("m");
      c.compute(0.01 * (r + 1));
      c.sendrecv((r + 1) % 8, 2048.0, (r + 7) % 8, 2048.0, 0);
      c.allreduce(64.0);
      c.exit();
    }
    return b.take();
  };
  // Jittery topology this time.
  simnet::Topology topo = make_two_host();
  const Program p1 = build();
  const Program p2 = build();
  EngineConfig cfg = exact_config();
  cfg.seed = 99;
  const ExecResult a = execute(topo, p1, cfg);
  const ExecResult b2 = execute(topo, p2, cfg);
  ASSERT_EQ(a.per_rank.size(), b2.per_rank.size());
  for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
    ASSERT_EQ(a.per_rank[r].size(), b2.per_rank[r].size());
    for (std::size_t i = 0; i < a.per_rank[r].size(); ++i)
      EXPECT_DOUBLE_EQ(a.per_rank[r][i].time.s, b2.per_rank[r][i].time.s);
  }
}

TEST(Engine, ReservesExactEventCountPerRank) {
  // Every op kind, including both Wait flavours and a sub-communicator
  // collective: the pre-pass must reserve exactly what the run emits.
  ProgramBuilder b(8);
  const CommId evens = b.comms().create("evens", {0, 2, 4, 6});
  for (Rank r = 0; r < 8; ++r) {
    auto& c = b.on(r);
    c.enter("m").compute(0.01);
    const int rq = c.irecv((r + 7) % 8, 1);
    const int sq = c.isend((r + 1) % 8, 1, 128.0);
    c.wait(sq).wait(rq);
    c.sendrecv((r + 1) % 8, 64.0, (r + 7) % 8, 64.0, 2);
    if (r % 2 == 0) c.send(r + 1, 3, 1e6).bcast(0, 32.0, evens);
    else c.recv(r - 1, 3);
    c.allreduce(8.0).exit();
  }
  const ExecResult res = execute(make_two_host(), b.take(), exact_config());
  for (const auto& evs : res.per_rank)
    EXPECT_EQ(evs.capacity(), evs.size());
  // One side-vector entry per CollExit, reserved exactly too.
  ASSERT_EQ(res.coll_bytes.size(), res.per_rank.size());
  for (std::size_t r = 0; r < res.per_rank.size(); ++r) {
    const auto& coll = res.coll_bytes[r];
    EXPECT_EQ(coll.size(), r % 2 == 0 ? 2u : 1u) << "rank " << r;
    EXPECT_EQ(coll.capacity(), coll.size()) << "rank " << r;
  }
}

TEST(Engine, RankCountMismatchThrows) {
  ProgramBuilder b(4);
  for (Rank r = 0; r < 4; ++r) b.on(r).enter("m").exit();
  const Topology topo = make_two_host();  // 8 ranks
  EXPECT_THROW(execute(topo, b.take(), exact_config()), Error);
}

TEST(Engine, StatsCountMessagesAndCollectives) {
  ProgramBuilder b(8);
  for (Rank r = 0; r < 8; ++r) {
    auto& c = b.on(r);
    c.enter("m").barrier();
    if (r == 0) c.send(1, 0, 10.0);
    if (r == 1) c.recv(0, 0);
    c.barrier().exit();
  }
  const Topology topo = make_two_host();
  const ExecResult res = execute(topo, b.take(), exact_config());
  EXPECT_EQ(res.stats.messages, 1u);
  EXPECT_EQ(res.stats.collectives, 2u);
  EXPECT_GT(res.stats.events, 0u);
  EXPECT_GT(res.stats.sweeps, 0u);
}

// --- golden simulator and measurement digests ------------------------------
//
// tests/golden/sim_digests.txt holds, per workload, an FNV-1a digest of
// the bit pattern of every ExecResult field and one of every field of
// the collect_traces output (definitions, events and sync records). The
// engine and the measurement layer must reproduce both exactly. To
// regenerate after an intended output change, run this test with
// MSC_WRITE_SIM_DIGESTS=<path> and copy the file over the fixture.

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Hashes each CollExit's side-vector entry at the event's position in
/// the fixture's digest layout, which gives every event two byte-count
/// fields, and 0.0, 0.0 for every other event. The pinned digests
/// therefore cover the side vectors too.
class CollBytesFeed {
 public:
  explicit CollBytesFeed(const std::vector<CollBytes>& v) : v_(v) {}
  void hash(Digest& d, bool coll_exit) {
    CollBytes b;
    if (coll_exit) {
      EXPECT_LT(next_, v_.size()) << "more CollExits than coll_bytes";
      if (next_ < v_.size()) b = v_[next_];
      ++next_;
    }
    d.f64(b.sent);
    d.f64(b.recvd);
  }
  ~CollBytesFeed() {
    EXPECT_EQ(next_, v_.size()) << "coll_bytes entries without a CollExit";
  }

 private:
  const std::vector<CollBytes>& v_;
  std::size_t next_{0};
};

std::uint64_t exec_digest(const ExecResult& res) {
  Digest d;
  d.u64(res.per_rank.size());
  EXPECT_EQ(res.coll_bytes.size(), res.per_rank.size());
  for (std::size_t r = 0; r < res.per_rank.size(); ++r) {
    const auto& evs = res.per_rank[r];
    CollBytesFeed coll(res.coll_bytes.at(r));
    d.u64(evs.size());
    for (const ExecEvent& e : evs) {
      d.u64(static_cast<std::uint64_t>(e.type));
      d.f64(e.time.s);
      d.i64(e.region.get());
      d.i64(e.peer);
      d.i64(e.tag);
      d.f64(e.bytes);
      d.i64(e.comm.get());
      d.i64(e.root);
      coll.hash(d, e.type == ExecEventType::CollExit);
    }
  }
  d.f64(res.end_time.s);
  d.u64(res.rank_end.size());
  for (const TrueTime t : res.rank_end) d.f64(t.s);
  d.u64(res.stats.messages);
  d.f64(res.stats.message_bytes);
  d.u64(res.stats.collectives);
  d.u64(res.stats.events);
  d.u64(res.stats.sweeps);
  return d.value();
}

std::uint64_t trace_digest(const tracing::TraceCollection& tc) {
  Digest d;
  d.u64(static_cast<std::uint64_t>(tc.scheme));
  d.u64(tc.synchronized ? 1 : 0);
  d.u64(tc.defs.regions.size());
  for (std::size_t i = 0; i < tc.defs.regions.size(); ++i)
    d.str(tc.defs.regions.name(RegionId{static_cast<int>(i)}));
  d.u64(tc.defs.metahosts.size());
  for (const auto& m : tc.defs.metahosts) {
    d.i64(m.id.get());
    d.str(m.name);
  }
  d.u64(tc.defs.locations.size());
  for (const auto& l : tc.defs.locations) {
    d.i64(l.machine.get());
    d.i64(l.node.get());
    d.i64(l.process);
    d.i64(l.thread);
  }
  d.u64(tc.defs.comms.size());
  for (const auto& c : tc.defs.comms) {
    d.i64(c.id.get());
    d.str(c.name);
    d.u64(c.members.size());
    for (const Rank m : c.members) d.i64(m);
  }
  d.u64(tc.ranks.size());
  for (const auto& lt : tc.ranks) {
    d.i64(lt.rank);
    d.u64(lt.events.size());
    CollBytesFeed coll(lt.coll_bytes);
    for (const auto& e : lt.events) {
      d.u64(static_cast<std::uint64_t>(e.type));
      d.f64(e.time);
      d.i64(e.region.get());
      d.i64(e.peer);
      d.i64(e.tag);
      d.f64(e.bytes);
      d.i64(e.comm.get());
      d.i64(e.root);
      coll.hash(d, e.type == tracing::EventType::CollExit);
    }
    d.u64(lt.sync.size());
    for (const auto& s : lt.sync) {
      d.i64(s.phase);
      d.i64(s.ref_rank);
      d.f64(s.local_mid);
      d.f64(s.offset);
      d.f64(s.error_bound);
    }
  }
  return d.value();
}

// steady-512 (ROADMAP) and the four-metahost ensemble, scaled to 64 ranks.
const char* kSteady64 = R"({"name":"steady-64","seed":11,
 "topology":{"metahosts":[
   {"name":"Alpha","nodes":8,"cpus_per_node":4,"speed":1.0,"latency_us":25,"jitter_us":1,"bandwidth_gbps":1.0},
   {"name":"Beta","nodes":8,"cpus_per_node":4,"speed":0.6,"latency_us":40,"jitter_us":1.5,"bandwidth_gbps":0.5}],
  "external":{"latency_us":950,"jitter_us":4,"bandwidth_gbps":1.25,"asymmetry":0.08},
  "placement":[{"metahost":0,"nodes":8,"procs_per_node":4},{"metahost":1,"nodes":8,"procs_per_node":4}]},
 "workload":{"kind":"metatrace","coupling_steps":10,"cg_iterations":100,"field_mb_total":64},
 "sync":"hierarchical-two"})";

const char* kEnsemble64 = R"({"name":"ensemble-64","seed":11,
 "topology":{"metahosts":[
   {"name":"Alpha","nodes":4,"cpus_per_node":4,"speed":1.0,"latency_us":25,"jitter_us":1,"bandwidth_gbps":1.0},
   {"name":"Beta","nodes":4,"cpus_per_node":4,"speed":0.8,"latency_us":30,"jitter_us":1.2,"bandwidth_gbps":0.8},
   {"name":"Gamma","nodes":4,"cpus_per_node":4,"speed":0.6,"latency_us":40,"jitter_us":1.5,"bandwidth_gbps":0.5},
   {"name":"Delta","nodes":4,"cpus_per_node":4,"speed":0.9,"latency_us":30,"jitter_us":1.2,"bandwidth_gbps":1.0}],
  "external":{"latency_us":950,"jitter_us":4,"bandwidth_gbps":1.25,"asymmetry":0.08},
  "placement":[{"metahost":0,"nodes":4,"procs_per_node":4},{"metahost":1,"nodes":4,"procs_per_node":4},
               {"metahost":2,"nodes":4,"procs_per_node":4},{"metahost":3,"nodes":4,"procs_per_node":4}]},
 "workload":{"kind":"ensemble","members":4,"cycles":10,"timesteps":40},
 "sync":"hierarchical-two"})";

/// "<exec digest> <trace digest>" of one workload, as 16-digit hex.
std::string digests_of(const std::string& name) {
  workloads::ExperimentData data = [&] {
    if (name == "steady-64" || name == "ensemble-64") {
      const auto spec = workloads::parse_experiment(
          Json::parse(name == "steady-64" ? kSteady64 : kEnsemble64));
      return workloads::run_experiment(spec.topology, spec.program,
                                       spec.config);
    }
    const seeds::SeedCase c = seeds::seed_case(name);
    return workloads::run_experiment(c.topo, c.prog,
                                     seeds::seed_config(c.skewed));
  }();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx %016llx",
                static_cast<unsigned long long>(exec_digest(data.exec)),
                static_cast<unsigned long long>(trace_digest(data.traces)));
  return buf;
}

TEST(Engine, GoldenDigestsOfSimulationAndMeasurement) {
  std::vector<std::string> names{"steady-64", "ensemble-64"};
  for (const auto& s : seeds::seed_names()) names.push_back(s);
  std::map<std::string, std::string> got;
  for (const auto& n : names) got[n] = digests_of(n);

  if (const char* out = std::getenv("MSC_WRITE_SIM_DIGESTS")) {
    std::ofstream f(out);
    f << "# FNV-1a digests of simmpi::execute and tracing::collect_traces\n"
         "# output per workload: <name> <ExecResult> <TraceCollection>.\n"
         "# See Engine.GoldenDigestsOfSimulationAndMeasurement.\n";
    for (const auto& n : names) f << n << ' ' << got[n] << '\n';
    GTEST_SKIP() << "wrote " << out;
  }

  std::ifstream in(MSC_SIM_DIGEST_FILE);
  ASSERT_TRUE(in.good()) << "missing fixture " << MSC_SIM_DIGEST_FILE;
  std::map<std::string, std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    want[line.substr(0, sp)] = line.substr(sp + 1);
  }
  ASSERT_EQ(want.size(), names.size());
  for (const auto& n : names) EXPECT_EQ(got[n], want[n]) << n;
}

}  // namespace
}  // namespace metascope::simmpi
