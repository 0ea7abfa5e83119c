#include "tracing/measurement.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "simnet/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"

namespace metascope::tracing {

namespace {

/// One Cristian remote-clock-reading exchange sequence: `pingpongs`
/// rounds slave <-> ref; the round with the smallest RTT wins. Advances
/// the true-time cursor past the exchanged messages.
OffsetRecord measure_offset(const simnet::Topology& topo,
                            const simnet::ClockSet& clocks,
                            simnet::Network& net, Rng& rng, Rank slave,
                            Rank ref, int phase, int pingpongs,
                            TrueTime& cursor) {
  const auto& slave_clock = clocks.clock_of(topo, slave);
  const auto& ref_clock = clocks.clock_of(topo, ref);
  OffsetRecord best;
  best.phase = phase;
  best.ref_rank = ref;
  double best_rtt = kInfTime;
  for (int k = 0; k < pingpongs; ++k) {
    const LocalTime t1 = slave_clock.read(cursor, rng);
    const Dur d1 = net.sample_delay(slave, ref, 0.0);
    const LocalTime m = ref_clock.read(cursor + d1, rng);
    const Dur d2 = net.sample_delay(ref, slave, 0.0);
    const LocalTime t4 = slave_clock.read(cursor + d1 + d2, rng);
    const double rtt = t4 - t1;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best.local_mid = 0.5 * (t1.s + t4.s);
      best.offset = m.s - best.local_mid;
      best.error_bound = rtt / 2.0;
    }
    // Back-to-back rounds with a small processing gap.
    cursor = cursor + (d1 + d2 + microseconds(5.0));
  }
  return best;
}

/// Runs the configured offset-measurement protocol for one phase and
/// appends the records to the per-rank traces.
void run_sync_phase(const simnet::Topology& topo,
                    const simnet::ClockSet& clocks, simnet::Network& net,
                    Rng& rng, SyncScheme scheme, int phase, int pingpongs,
                    TrueTime cursor, std::vector<LocalTrace>& ranks) {
  const int n = topo.num_ranks();
  switch (scheme) {
    case SyncScheme::None:
      return;
    case SyncScheme::FlatSingle:
    case SyncScheme::FlatTwo: {
      // Flat: every slave contacts the global master (rank 0) directly,
      // regardless of the latency hierarchy between them (paper Fig. 3a).
      for (Rank r = 1; r < n; ++r) {
        ranks[static_cast<std::size_t>(r)].sync.push_back(
            measure_offset(topo, clocks, net, rng, r, 0, phase, pingpongs,
                           cursor));
      }
      return;
    }
    case SyncScheme::HierarchicalTwo: {
      // Hierarchical (paper Fig. 3b): each metahost appoints its lowest
      // rank as local master; the metamaster is rank 0's local master.
      // Local masters measure against the metamaster over the external
      // network; every other process measures against its local master
      // over the internal network only.
      const auto masters = topo.local_masters();
      const Rank metamaster =
          masters[static_cast<std::size_t>(topo.metahost_of(0).get())];
      for (Rank lm : masters) {
        if (lm == metamaster || lm == kNoRank) continue;
        ranks[static_cast<std::size_t>(lm)].sync.push_back(
            measure_offset(topo, clocks, net, rng, lm, metamaster, phase,
                           pingpongs, cursor));
      }
      for (Rank r = 0; r < n; ++r) {
        const Rank lm =
            masters[static_cast<std::size_t>(topo.metahost_of(r).get())];
        if (r == lm) continue;
        const auto& spec = topo.metahost(topo.metahost_of(r));
        if (spec.has_global_clock) {
          // Hardware-synchronized metahost: the intra-metahost step is
          // omitted (paper §4); record the implied zero offset so the
          // post-mortem pass still finds a reference chain.
          OffsetRecord rec;
          rec.phase = phase;
          rec.ref_rank = lm;
          rec.local_mid =
              clocks.clock_of(topo, r).at(cursor).s;
          rec.offset = 0.0;
          rec.error_bound = 0.0;
          ranks[static_cast<std::size_t>(r)].sync.push_back(rec);
          continue;
        }
        ranks[static_cast<std::size_t>(r)].sync.push_back(
            measure_offset(topo, clocks, net, rng, r, lm, phase, pingpongs,
                           cursor));
      }
      return;
    }
  }
}

/// Converts one rank's execution events into trace events stamped by a
/// read of the node-local clock.
void stamp_events(const simnet::ClockModel& clock,
                  const std::vector<simmpi::ExecEvent>& in, Rng rng,
                  std::vector<Event>& out) {
  double last = -kInfTime;
  out.reserve(in.size());
  for (const auto& ev : in) {
    Event te;
    switch (ev.type) {
      case simmpi::ExecEventType::Enter: te.type = EventType::Enter; break;
      case simmpi::ExecEventType::Exit: te.type = EventType::Exit; break;
      case simmpi::ExecEventType::Send: te.type = EventType::Send; break;
      case simmpi::ExecEventType::Recv: te.type = EventType::Recv; break;
      case simmpi::ExecEventType::CollExit:
        te.type = EventType::CollExit;
        break;
    }
    // Monotone clock read: a real node clock never runs backwards, so
    // quantization/read noise must not reorder a process's events.
    double stamp = clock.read(ev.time, rng).s;
    if (stamp <= last) stamp = last + 1e-9;
    last = stamp;
    te.time = stamp;
    te.region = ev.region;
    te.peer = ev.peer;
    te.tag = ev.tag;
    te.bytes = ev.bytes;
    te.comm = ev.comm;
    te.root = ev.root;
    te.sent_bytes = ev.sent_bytes;
    te.recvd_bytes = ev.recvd_bytes;
    out.push_back(te);
  }
}

}  // namespace

TraceCollection collect_traces(const simnet::Topology& topo,
                               const simnet::ClockSet& clocks,
                               const simmpi::Program& prog,
                               const simmpi::ExecResult& exec,
                               const MeasurementConfig& cfg,
                               const std::vector<EnvMap>& envs) {
  MSC_CHECK(exec.num_ranks() == topo.num_ranks(),
            "execution/topology rank mismatch");
  telemetry::ScopedSpan span("trace");
  TraceCollection out;
  out.scheme = cfg.scheme;
  out.synchronized = false;

  // --- definition records ---------------------------------------------
  const std::vector<EnvMap> env_maps =
      envs.empty() ? default_envs(topo) : envs;
  // resolve_metahosts returns defs in topology order carrying env ids;
  // the trace-wide table is indexed by the resolved numeric id.
  const auto topo_order = resolve_metahosts(topo, env_maps);
  out.defs.metahosts.resize(topo_order.size());
  std::vector<MetahostId> topo_to_id(topo_order.size());
  for (std::size_t m = 0; m < topo_order.size(); ++m) {
    topo_to_id[m] = topo_order[m].id;
    out.defs.metahosts[static_cast<std::size_t>(topo_order[m].id.get())] =
        topo_order[m];
  }

  out.defs.regions = prog.regions;
  for (std::size_t c = 0; c < prog.comms.size(); ++c) {
    const auto& comm = prog.comms.get(CommId{static_cast<int>(c)});
    out.defs.comms.push_back(CommDef{comm.id, comm.name, comm.members});
  }
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    const auto& p = topo.placement(r);
    LocationDef loc;
    loc.machine = topo_to_id[static_cast<std::size_t>(p.metahost.get())];
    loc.node = p.node;
    loc.process = r;
    loc.thread = 0;
    out.defs.locations.push_back(loc);
  }

  // --- event stamping through the local clocks -------------------------
  // One task per rank: each stamps only its own trace, drawing clock-read
  // noise from its own split stream, so any worker count gives the same
  // traces.
  const Rng root(cfg.seed);
  const auto n = static_cast<std::size_t>(topo.num_ranks());
  out.ranks.resize(n);
  std::atomic<std::size_t> stamped{0};
  telemetry::RecordingObserver rec_obs(
      "trace", telemetry::RecordingObserver::fanout_stride(n));
  const auto pst = parallel_for(
      n, cfg.max_workers,
      [&](std::size_t ri) {
        const auto r = static_cast<Rank>(ri);
        auto& lt = out.ranks[ri];
        lt.rank = r;
        stamp_events(clocks.clock_of(topo, r), exec.per_rank[ri],
                     root.split(ri + 1), lt.events);
        if (telemetry::progress_enabled())
          telemetry::progress("trace", static_cast<double>(++stamped) /
                                           static_cast<double>(n));
      },
      &rec_obs);
  telemetry::record_stage_parallelism("trace", pst);
  auto& per_rank = telemetry::histogram("trace.events_per_rank",
                                        {1e2, 1e3, 1e4, 1e5, 1e6});
  for (const auto& lt : out.ranks) {
    telemetry::counter("trace.events").add(lt.events.size());
    per_rank.observe(static_cast<double>(lt.events.size()));
  }
  telemetry::counter("trace.ranks").add(out.ranks.size());

  // --- offset measurements (program start and end, paper §3) -----------
  simnet::Network net(topo, root.split(0x5359ULL));
  Rng sync_rng = root.split(0x53594eULL);
  run_sync_phase(topo, clocks, net, sync_rng, cfg.scheme, /*phase=*/0,
                 cfg.pingpongs, TrueTime{0.0}, out.ranks);
  if (cfg.scheme == SyncScheme::FlatTwo ||
      cfg.scheme == SyncScheme::HierarchicalTwo) {
    run_sync_phase(topo, clocks, net, sync_rng, cfg.scheme, /*phase=*/1,
                   cfg.pingpongs, exec.end_time, out.ranks);
  }
  return out;
}

}  // namespace metascope::tracing
