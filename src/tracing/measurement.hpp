// The measurement layer: turns an engine execution into per-process local
// traces, exactly as an instrumented run would —
//
//  * every event timestamp is a *read of the node-local clock* (skewed,
//    drifting, quantized), never true time;
//  * offset measurements between processes are taken at program start and
//    program end per the configured synchronization scheme (paper §3/§4)
//    and recorded into the traces for post-mortem correction;
//  * the metahost identity of every process is resolved through the
//    environment-variable mechanism (paper §4).
#pragma once

#include <cstddef>
#include <cstdint>

#include "simmpi/engine.hpp"
#include "simnet/clock.hpp"
#include "tracing/metahost_env.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing {

struct MeasurementConfig {
  SyncScheme scheme{SyncScheme::HierarchicalTwo};
  /// Ping-pongs per offset measurement; the minimum-RTT round is kept
  /// (Cristian's remote clock reading).
  int pingpongs{10};
  /// Seed for clock-read noise and measurement-message jitter.
  std::uint64_t seed{0xC10C5ULL};
  /// Workers for the per-rank event stamping (0 = hardware concurrency).
  /// Each rank draws from its own split stream, so the traces are
  /// identical for any count; the offset measurements stay serial.
  std::size_t max_workers{0};
};

/// Produces the local traces of one experiment. `envs` defaults to
/// default_envs(topo) when empty.
TraceCollection collect_traces(const simnet::Topology& topo,
                               const simnet::ClockSet& clocks,
                               const simmpi::Program& prog,
                               const simmpi::ExecResult& exec,
                               const MeasurementConfig& cfg = {},
                               const std::vector<EnvMap>& envs = {});

}  // namespace metascope::tracing
