// The ten named seed workloads behind the golden fixtures in
// tests/golden/: seed_severities.txt freezes their severity cubes and
// sim_digests.txt their simulator and measurement output. Any change to
// a construction below changes both fixtures; regenerate them if one
// must change.
#pragma once

#include <string>
#include <vector>

#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "simmpi/program.hpp"
#include "simnet/presets.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"
#include "workloads/microworkloads.hpp"

namespace metascope::seeds {

inline simnet::Topology cross_topo() {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 1;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  simnet::MetahostSpec b = a;
  b.name = "B";
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, simnet::LinkSpec{1000e-6, 0.0, 1e9});
  topo.place_block(ia, 1, 1);
  topo.place_block(ib, 1, 1);
  return topo;
}

inline simnet::Topology local_topo(int n) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = n;
  a.cpus_per_node = 1;
  a.internal = simnet::LinkSpec{10e-6, 0.0, 1e9};
  topo.add_metahost(a);
  topo.place_block(MetahostId{0}, n, 1);
  return topo;
}

inline simmpi::Program random_program(int nranks, std::uint64_t seed,
                                      int steps) {
  Rng rng(seed);
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    const int kind = static_cast<int>(rng.uniform_index(5));
    switch (kind) {
      case 0: {
        const Rank a = static_cast<Rank>(rng.uniform_index(nranks));
        Rank c = static_cast<Rank>(rng.uniform_index(nranks - 1));
        if (c >= a) ++c;
        const double bytes = rng.uniform(16.0, 200000.0);
        b.on(a).enter("chat").send(c, s, bytes).exit();
        b.on(c).enter("chat").recv(a, s).exit();
        break;
      }
      case 1: {
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.01)).barrier();
        break;
      }
      case 2: {
        for (Rank r = 0; r < nranks; ++r)
          b.on(r).compute(rng.uniform(0.0, 0.005)).allreduce(256.0);
        break;
      }
      case 3: {
        const Rank root = static_cast<Rank>(rng.uniform_index(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          b.on(r).compute(rng.uniform(0.0, 0.005));
          b.on(r).bcast(root, 4096.0);
          b.on(r).reduce(root, 512.0);
        }
        break;
      }
      default: {
        std::vector<int> reqs(static_cast<std::size_t>(nranks));
        for (Rank r = 0; r < nranks; ++r) {
          auto& c = b.on(r);
          c.enter("shift");
          reqs[static_cast<std::size_t>(r)] =
              c.irecv((r + nranks - 1) % nranks, 7777 + s);
          c.send((r + 1) % nranks, 7777 + s, 1024.0);
          c.wait(reqs[static_cast<std::size_t>(r)]);
          c.exit();
        }
        break;
      }
    }
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

/// Skewed runs draw randomized clocks and take hierarchical offset
/// measurements; unskewed runs use perfect clocks and no measurements.
inline workloads::ExperimentConfig seed_config(bool skewed) {
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = !skewed;
  cfg.measurement.scheme = skewed ? tracing::SyncScheme::HierarchicalTwo
                                  : tracing::SyncScheme::None;
  return cfg;
}

/// Simulates and measures `prog`; skewed traces come back synchronized.
inline tracing::TraceCollection make_traces(const simnet::Topology& topo,
                                            const simmpi::Program& prog,
                                            bool skewed) {
  auto data = workloads::run_experiment(topo, prog, seed_config(skewed));
  if (skewed) clocksync::synchronize(data.traces);
  return std::move(data.traces);
}

struct SeedCase {
  simnet::Topology topo;
  simmpi::Program prog;
  bool skewed;
};

inline const std::vector<std::string>& seed_names() {
  static const std::vector<std::string> names{
      "late-sender-cross",  "late-sender-local",   "late-receiver-cross",
      "wait-nxn-local",     "wait-nxn-cross",      "wait-barrier-local",
      "early-reduce-local", "late-broadcast-local", "random-viola",
      "metatrace-viola"};
  return names;
}

inline SeedCase seed_case(const std::string& name) {
  if (name == "late-sender-cross")
    return {cross_topo(), workloads::late_sender_program(0.25), false};
  if (name == "late-sender-local")
    return {local_topo(2), workloads::late_sender_program(0.25), false};
  if (name == "late-receiver-cross")
    return {cross_topo(), workloads::late_receiver_program(0.3, 1 << 20),
            false};
  if (name == "wait-nxn-local")
    return {local_topo(4), workloads::wait_nxn_program({0.0, 0.1, 0.2, 0.4}),
            false};
  if (name == "wait-nxn-cross")
    return {cross_topo(), workloads::wait_nxn_program({0.0, 0.5}), false};
  if (name == "wait-barrier-local")
    return {local_topo(4),
            workloads::wait_barrier_program({0.3, 0.0, 0.1, 0.2}), false};
  if (name == "early-reduce-local")
    return {local_topo(4),
            workloads::early_reduce_program({0.0, 0.2, 0.5, 0.1}), false};
  if (name == "late-broadcast-local")
    return {local_topo(4), workloads::late_broadcast_program(4, 0.35), false};
  if (name == "random-viola") {
    auto topo = simnet::make_viola_experiment1();
    auto prog = random_program(topo.num_ranks(), 1, 12);
    return {std::move(topo), std::move(prog), true};
  }
  if (name == "metatrace-viola")
    return {simnet::make_viola_experiment1(), workloads::build_metatrace(),
            true};
  throw Error("unknown seed workload " + name);
}

/// The synchronized (or perfect-clock) traces of one seed workload.
inline tracing::TraceCollection seed_workload(const std::string& name) {
  const SeedCase c = seed_case(name);
  return make_traces(c.topo, c.prog, c.skewed);
}

}  // namespace metascope::seeds
