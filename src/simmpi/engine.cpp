#include "simmpi/engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "simmpi/collectives.hpp"
#include "simnet/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/span.hpp"

namespace metascope::simmpi {

namespace {

// ---------------------------------------------------------------------
// Half identification: every point-to-point transfer has a send half and
// a receive half, each owned by one (rank, op). The matching pre-pass
// numbers the halves densely in (rank, op) order; a SendRecv op owns two
// consecutive ids, its send half first.
// ---------------------------------------------------------------------

using HalfId = std::uint32_t;
constexpr HalfId kNoHalf = std::numeric_limits<HalfId>::max();

struct HalfState {
  bool posted{false};
  TrueTime post_time;
  bool timed{false};
  bool rendezvous{false};
  double bytes{0.0};
  Rank src{kNoRank};
  Rank dst{kNoRank};
  // Outputs (valid once timed). All stored on the *send* half; the recv
  // half holds only posted/post_time and a pointer to its partner.
  TrueTime send_event;
  TrueTime send_done;
  TrueTime arrival;
};

struct CollInstance {
  std::vector<TrueTime> enter;
  std::vector<bool> present;
  int arrived{0};
  bool timed{false};
  CollTiming timing;
  OpKind kind{OpKind::Barrier};
  Rank root{kNoRank};
  double bytes{0.0};
};

struct RequestState {
  HalfId half{kNoHalf};
  bool is_recv{false};
  double bytes{0.0};
  Rank peer{kNoRank};
  int tag{0};
  CommId comm{0};
};

class EngineImpl {
 public:
  EngineImpl(const simnet::Topology& topo, const Program& prog,
             const EngineConfig& cfg)
      : topo_(topo),
        prog_(prog),
        cfg_(cfg),
        net_(topo, Rng(cfg.seed)),
        mpi_region_(static_cast<std::size_t>(17)) {
    MSC_CHECK(topo_.num_ranks() == prog_.num_ranks(),
              "topology rank count differs from program rank count");
    const auto n = static_cast<std::size_t>(prog_.num_ranks());
    now_.assign(n, TrueTime{0.0});
    ip_.assign(n, 0);
    posted_current_.assign(n, false);
    events_.assign(n, {});
    requests_.assign(n, {});
    overhead_.resize(n);
    for (Rank r = 0; r < prog_.num_ranks(); ++r)
      overhead_[static_cast<std::size_t>(r)] =
          cfg_.cpu_overhead / topo_.speed_of(r);
    // Intern MPI call regions into a const_cast-free private copy? The
    // program owns the region table; engine emits region ids from it. MPI
    // regions were interned at build time by the cursor only for user
    // regions, so intern them here into the lookup used for events.
    build_mpi_regions();
    precompute_matching();
  }

  ExecResult run() {
    std::size_t total_ops = 0;
    for (const auto& ops : prog_.ops) total_ops += ops.size();
    bool progress = true;
    while (progress) {
      progress = false;
      ++stats_.sweeps;
      for (Rank r = 0; r < prog_.num_ranks(); ++r)
        progress = advance(r) || progress;
      if (telemetry::progress_enabled() && total_ops > 0) {
        std::size_t executed = 0;
        for (const std::size_t i : ip_) executed += i;
        telemetry::progress("simulate",
                            static_cast<double>(executed) /
                                static_cast<double>(total_ops));
      }
    }
    for (Rank r = 0; r < prog_.num_ranks(); ++r) {
      if (ip_[static_cast<std::size_t>(r)] <
          prog_.ops[static_cast<std::size_t>(r)].size()) {
        std::ostringstream os;
        const auto& op = prog_.ops[static_cast<std::size_t>(
            r)][ip_[static_cast<std::size_t>(r)]];
        os << "simulated deadlock: rank " << r << " blocked at op "
           << ip_[static_cast<std::size_t>(r)] << " (kind "
           << static_cast<int>(op.kind) << ", peer " << op.peer << ", tag "
           << op.tag << ")";
        throw Error(os.str());
      }
    }
    ExecResult out;
    out.per_rank = std::move(events_);
    out.rank_end.resize(now_.size());
    out.end_time = TrueTime{0.0};
    for (std::size_t r = 0; r < now_.size(); ++r) {
      out.rank_end[r] = now_[r];
      out.end_time = std::max(out.end_time, now_[r]);
    }
    for (const auto& v : out.per_rank) stats_.events += v.size();
    out.stats = stats_;
    return out;
  }

 private:
  // --- setup -----------------------------------------------------------

  void build_mpi_regions() {
    // MPI call regions were pre-interned by the Program constructor.
    for (OpKind k :
         {OpKind::Send, OpKind::Recv, OpKind::Isend, OpKind::Irecv,
          OpKind::Wait, OpKind::SendRecv, OpKind::Barrier, OpKind::Bcast,
          OpKind::Reduce, OpKind::Allreduce, OpKind::Gather,
          OpKind::Allgather, OpKind::Scatter, OpKind::Alltoall})
      mpi_region_[static_cast<std::size_t>(k)] =
          prog_.regions.find(mpi_region_name(k));
  }

  RegionId mpi_region(OpKind k) const {
    return mpi_region_[static_cast<std::size_t>(k)];
  }

  /// The matching pre-pass. Gives every point-to-point half a dense id
  /// and every (rank, op) a slot: the op's first half id, or for a
  /// collective its instance sequence number on the communicator. Pairs
  /// the i-th send half on each channel (src, dst, tag, comm) with the
  /// i-th receive half (MPI non-overtaking order), sizes the collective
  /// instance tables, and reserves each rank's exact event count.
  void precompute_matching() {
    struct ChannelKey {
      Rank src, dst;
      int tag, comm;
      bool operator==(const ChannelKey&) const = default;
    };
    struct ChannelHash {
      std::size_t operator()(const ChannelKey& k) const {
        std::uint64_t h = static_cast<std::uint32_t>(k.src);
        h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(k.dst);
        h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(k.tag);
        h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(k.comm);
        return static_cast<std::size_t>(h ^ (h >> 29));
      }
    };
    struct Channel {
      std::vector<HalfId> sends;  ///< in the sending rank's program order
      std::size_t matched{0};
    };
    std::unordered_map<ChannelKey, std::uint32_t, ChannelHash> channel_ids;
    std::vector<Channel> channels;
    auto channel = [&](Rank src, Rank dst, const Op& op) {
      const auto [it, fresh] = channel_ids.try_emplace(
          ChannelKey{src, dst, op.tag, op.comm.get()},
          static_cast<std::uint32_t>(channels.size()));
      if (fresh) channels.emplace_back();
      return it->second;
    };
    // (channel, half) per receive half, in id order.
    std::vector<std::pair<std::uint32_t, HalfId>> recvs;

    const auto n = static_cast<std::size_t>(prog_.num_ranks());
    slot_off_.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r)
      slot_off_[r + 1] = slot_off_[r] + prog_.ops[r].size();
    slot_.assign(slot_off_[n], 0);
    coll_instances_.assign(prog_.comms.size(), {});
    comm_profile_.assign(prog_.comms.size(), std::nullopt);
    std::vector<std::uint32_t> coll_seq(prog_.comms.size());
    std::vector<bool> request_is_recv;
    HalfId next = 0;
    for (Rank r = 0; r < prog_.num_ranks(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      std::fill(coll_seq.begin(), coll_seq.end(), 0);
      request_is_recv.clear();
      std::size_t num_events = 0;
      std::uint32_t* slot = slot_.data() + slot_off_[ri];
      const auto& ops = prog_.ops[ri];
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        switch (op.kind) {
          case OpKind::Compute: break;
          case OpKind::Enter:
          case OpKind::Exit: num_events += 1; break;
          case OpKind::Send:
          case OpKind::Isend:
            slot[i] = next;
            channels[channel(r, op.peer, op)].sends.push_back(next++);
            num_events += 3;
            if (op.kind == OpKind::Isend) request_is_recv.push_back(false);
            break;
          case OpKind::Recv:
          case OpKind::Irecv:
            slot[i] = next;
            recvs.emplace_back(channel(op.peer, r, op), next++);
            num_events += op.kind == OpKind::Recv ? 3 : 2;
            if (op.kind == OpKind::Irecv) request_is_recv.push_back(true);
            break;
          case OpKind::Wait:
            num_events +=
                request_is_recv[static_cast<std::size_t>(op.request)] ? 3 : 2;
            break;
          case OpKind::SendRecv:
            slot[i] = next;
            channels[channel(r, op.peer, op)].sends.push_back(next++);
            recvs.emplace_back(channel(op.recv_peer, r, op), next++);
            num_events += 4;
            break;
          default: {
            const auto ci = static_cast<std::size_t>(op.comm.get());
            slot[i] = coll_seq[ci]++;
            if (coll_seq[ci] > coll_instances_[ci].size())
              coll_instances_[ci].resize(coll_seq[ci]);
            num_events += 2;
            break;
          }
        }
      }
      events_[ri].reserve(num_events);
    }

    // Receives in id order come in each receiving rank's program order,
    // so the i-th receive on a channel meets its i-th send.
    partner_.assign(next, kNoHalf);
    halves_.assign(next, HalfState{});
    for (const auto& [ch, h] : recvs) {
      Channel& c = channels[ch];
      MSC_ASSERT(c.matched < c.sends.size(),
                 "validate() should have rejected unmatched p2p");
      const HalfId s = c.sends[c.matched++];
      partner_[s] = h;
      partner_[h] = s;
    }
    for (const Channel& c : channels)
      MSC_ASSERT(c.matched == c.sends.size(),
                 "validate() should have rejected unmatched p2p");
  }

  // --- helpers ---------------------------------------------------------

  Dur overhead(Rank r) const { return overhead_[static_cast<std::size_t>(r)]; }

  /// The (rank, op) slot filled by the matching pre-pass.
  std::uint32_t slot(std::size_t r, std::uint32_t op_idx) const {
    return slot_[slot_off_[r] + op_idx];
  }

  HalfState& half(HalfId id) { return halves_[id]; }

  HalfId partner_of(HalfId id) const {
    const HalfId p = partner_[id];
    MSC_ASSERT(p != kNoHalf, "unmatched half");
    return p;
  }

  void post_send_half(HalfId id, Rank r, TrueTime t, Rank dst,
                      double bytes) {
    HalfState& h = half(id);
    h.posted = true;
    h.post_time = t;
    h.bytes = bytes;
    h.src = r;
    h.dst = dst;
    h.rendezvous = bytes > cfg_.eager_threshold;
    try_time_send(id);
  }

  void post_recv_half(HalfId id, Rank r, TrueTime t, Rank src) {
    HalfState& h = half(id);
    h.posted = true;
    h.post_time = t;
    h.src = src;
    h.dst = r;
    // A rendezvous sender might be blocked on this post.
    try_time_send(partner_of(id));
  }

  /// Attempts to compute the transfer times for a send half. Eager sends
  /// time immediately; rendezvous sends require the posted receive.
  void try_time_send(HalfId send_id) {
    HalfState& s = half(send_id);
    if (!s.posted || s.timed) return;
    const Dur o = overhead(s.src);
    if (!s.rendezvous) {
      s.send_event = s.post_time + 0.5 * o;
      const auto& link = topo_.link_between(s.src, s.dst);
      s.send_done = s.post_time + o + s.bytes / link.bandwidth_bps;
      s.arrival = s.send_event + net_.sample_delay(s.src, s.dst, s.bytes);
      s.timed = true;
    } else {
      const HalfState& rhalf = half(partner_of(send_id));
      if (!rhalf.posted) return;
      const Dur o_r = overhead(s.dst);
      const Dur l1 = net_.sample_delay(s.src, s.dst, 0.0);
      const Dur l2 = net_.sample_delay(s.dst, s.src, 0.0);
      const Dur l3 = net_.sample_delay(s.src, s.dst, 0.0);
      const TrueTime rts_at_recv = s.post_time + o + l1;
      const TrueTime cts_at_sender =
          std::max(rts_at_recv, rhalf.post_time + o_r) + l2;
      const auto& link = topo_.link_between(s.src, s.dst);
      s.send_event = s.post_time + 0.5 * o;
      s.send_done = cts_at_sender + s.bytes / link.bandwidth_bps;
      s.arrival = s.send_done + l3;
      s.timed = true;
    }
    ++stats_.messages;
    stats_.message_bytes += s.bytes;
  }

  void emit(Rank r, ExecEvent ev) {
    events_[static_cast<std::size_t>(r)].push_back(ev);
  }

  void emit_enter(Rank r, TrueTime t, RegionId region) {
    ExecEvent ev;
    ev.type = ExecEventType::Enter;
    ev.time = t;
    ev.region = region;
    emit(r, ev);
  }

  void emit_exit(Rank r, TrueTime t) {
    ExecEvent ev;
    ev.type = ExecEventType::Exit;
    ev.time = t;
    emit(r, ev);
  }

  void emit_send(Rank r, TrueTime t, Rank dst, int tag, double bytes,
                 CommId comm) {
    ExecEvent ev;
    ev.type = ExecEventType::Send;
    ev.time = t;
    ev.peer = dst;
    ev.tag = tag;
    ev.bytes = bytes;
    ev.comm = comm;
    emit(r, ev);
  }

  void emit_recv(Rank r, TrueTime t, Rank src, int tag, double bytes,
                 CommId comm) {
    ExecEvent ev;
    ev.type = ExecEventType::Recv;
    ev.time = t;
    ev.peer = src;
    ev.tag = tag;
    ev.bytes = bytes;
    ev.comm = comm;
    emit(r, ev);
  }

  // --- the sweep -------------------------------------------------------

  /// Advances rank r as far as possible; true if any op resolved.
  bool advance(Rank r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& ops = prog_.ops[ri];
    bool progressed = false;
    while (ip_[ri] < ops.size()) {
      const auto op_idx = static_cast<std::uint32_t>(ip_[ri]);
      const Op& op = ops[op_idx];
      const TrueTime t = now_[ri];
      const Dur o = overhead(r);

      // Post side effects exactly once per op.
      if (!posted_current_[ri]) {
        const std::uint32_t first = slot(ri, op_idx);
        switch (op.kind) {
          case OpKind::Send:
            post_send_half(first, r, t, op.peer, op.bytes);
            break;
          case OpKind::Recv:
            post_recv_half(first, r, t, op.peer);
            break;
          case OpKind::Isend: {
            post_send_half(first, r, t, op.peer, op.bytes);
            RequestState req;
            req.half = first;
            req.is_recv = false;
            req.bytes = op.bytes;
            req.peer = op.peer;
            req.tag = op.tag;
            req.comm = op.comm;
            requests_[ri].push_back(req);
            break;
          }
          case OpKind::Irecv: {
            post_recv_half(first, r, t, op.peer);
            RequestState req;
            req.half = first;
            req.is_recv = true;
            req.peer = op.peer;
            req.tag = op.tag;
            req.comm = op.comm;
            requests_[ri].push_back(req);
            break;
          }
          case OpKind::SendRecv:
            post_send_half(first, r, t, op.peer, op.bytes);
            post_recv_half(first + 1, r, t, op.recv_peer);
            break;
          default:
            if (is_collective(op.kind)) post_collective(r, op, first, t);
            break;
        }
        posted_current_[ri] = true;
      }

      // Try to resolve the op.
      TrueTime done = t;
      bool resolved = false;
      switch (op.kind) {
        case OpKind::Compute: {
          done = t + op.work / topo_.speed_of(r);
          resolved = true;
          break;
        }
        case OpKind::Enter: {
          emit_enter(r, t, op.region);
          resolved = true;
          break;
        }
        case OpKind::Exit: {
          emit_exit(r, t);
          resolved = true;
          break;
        }
        case OpKind::Send: {
          const HalfState& s = half(slot(ri, op_idx));
          if (!s.timed) break;
          emit_enter(r, t, mpi_region(OpKind::Send));
          emit_send(r, s.send_event, op.peer, op.tag, op.bytes, op.comm);
          done = s.send_done;
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Recv: {
          const HalfState& s = half(partner_of(slot(ri, op_idx)));
          if (!s.timed) break;
          done = std::max(t, s.arrival) + o;
          emit_enter(r, t, mpi_region(OpKind::Recv));
          emit_recv(r, done, op.peer, op.tag, s.bytes, op.comm);
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Isend: {
          // The call itself returns immediately; transfer may still be
          // pending (rendezvous) and completes at Wait.
          emit_enter(r, t, mpi_region(OpKind::Isend));
          emit_send(r, t + 0.5 * o, op.peer, op.tag, op.bytes, op.comm);
          done = t + o;
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Irecv: {
          emit_enter(r, t, mpi_region(OpKind::Irecv));
          done = t + o;
          emit_exit(r, done);
          resolved = true;
          break;
        }
        case OpKind::Wait: {
          const RequestState& req =
              requests_[ri][static_cast<std::size_t>(op.request)];
          if (req.is_recv) {
            const HalfState& s = half(partner_of(req.half));
            if (!s.timed) break;
            done = std::max(t, s.arrival) + o;
            emit_enter(r, t, mpi_region(OpKind::Wait));
            emit_recv(r, done, req.peer, req.tag, s.bytes, req.comm);
            emit_exit(r, done);
          } else {
            const HalfState& s = half(req.half);
            if (!s.timed) break;
            done = std::max(t, s.send_done) + 0.5 * o;
            emit_enter(r, t, mpi_region(OpKind::Wait));
            emit_exit(r, done);
          }
          resolved = true;
          break;
        }
        case OpKind::SendRecv: {
          const HalfState& s = half(slot(ri, op_idx));
          const HalfState& ps = half(partner_of(slot(ri, op_idx) + 1));
          if (!s.timed || !ps.timed) break;
          const TrueTime recv_done = std::max(t, ps.arrival) + o;
          done = std::max(s.send_done, recv_done);
          emit_enter(r, t, mpi_region(OpKind::SendRecv));
          emit_send(r, s.send_event, op.peer, op.tag, op.bytes, op.comm);
          emit_recv(r, recv_done, op.recv_peer, op.tag, ps.bytes, op.comm);
          emit_exit(r, done);
          resolved = true;
          break;
        }
        default: {
          MSC_ASSERT(is_collective(op.kind), "unhandled op kind");
          const Communicator& comm = prog_.comms.get(op.comm);
          const int local = comm.local_rank(r);
          const CollInstance& inst = coll_instance_of(op, slot(ri, op_idx),
                                                      local);
          if (!inst.timed) break;
          done = inst.timing.exit[static_cast<std::size_t>(local)];
          emit_enter(r, t, mpi_region(op.kind));
          ExecEvent ev;
          ev.type = ExecEventType::CollExit;
          ev.time = done;
          ev.region = mpi_region(op.kind);
          ev.comm = op.comm;
          ev.root = op.root;
          ev.bytes = op.bytes;
          ev.sent_bytes =
              inst.timing.sent_bytes[static_cast<std::size_t>(local)];
          ev.recvd_bytes =
              inst.timing.recvd_bytes[static_cast<std::size_t>(local)];
          emit(r, ev);
          resolved = true;
          break;
        }
      }

      if (!resolved) break;
      now_[ri] = done;
      ++ip_[ri];
      posted_current_[ri] = false;
      progressed = true;
    }
    return progressed;
  }

  // --- collectives -----------------------------------------------------

  void post_collective(Rank r, const Op& op, std::uint32_t seq,
                       TrueTime t) {
    const auto ci = static_cast<std::size_t>(op.comm.get());
    const Communicator& comm = prog_.comms.get(op.comm);
    CollInstance& inst = coll_instances_[ci][seq];
    if (inst.enter.empty()) {
      inst.enter.assign(static_cast<std::size_t>(comm.size()), TrueTime{});
      inst.present.assign(static_cast<std::size_t>(comm.size()), false);
      inst.kind = op.kind;
      inst.root = op.root;
      inst.bytes = op.bytes;
    }
    MSC_ASSERT(inst.kind == op.kind,
               "collective kind mismatch (validate() hole?)");
    const int local = comm.local_rank(r);
    MSC_ASSERT(local >= 0, "collective poster not a member");
    const auto lu = static_cast<std::size_t>(local);
    MSC_ASSERT(!inst.present[lu], "double collective post");
    inst.present[lu] = true;
    inst.enter[lu] = t;
    ++inst.arrived;
    if (inst.arrived == comm.size()) {
      auto& profile = comm_profile_[ci];
      if (!profile) profile = profile_comm(topo_, comm);
      inst.timing =
          time_collective(inst.kind, topo_, comm, *profile, inst.enter,
                          inst.root, inst.bytes, cfg_.cpu_overhead);
      inst.timed = true;
      ++stats_.collectives;
    }
  }

  /// The instance a posted collective op takes part in; `seq` is the
  /// op's slot and `local` the poster's communicator-local rank.
  const CollInstance& coll_instance_of(const Op& op, std::uint32_t seq,
                                       int local) const {
    const CollInstance& inst =
        coll_instances_[static_cast<std::size_t>(op.comm.get())][seq];
    MSC_ASSERT(local >= 0 && !inst.present.empty() &&
                   inst.present[static_cast<std::size_t>(local)],
               "collective op not posted");
    return inst;
  }

  // --- state -----------------------------------------------------------

  const simnet::Topology& topo_;
  const Program& prog_;
  EngineConfig cfg_;
  simnet::Network net_;

  std::vector<TrueTime> now_;
  std::vector<std::size_t> ip_;
  std::vector<bool> posted_current_;
  std::vector<std::vector<ExecEvent>> events_;
  std::vector<std::vector<RequestState>> requests_;
  std::vector<Dur> overhead_;  ///< per-rank MPI call cost

  // Matching pre-pass output: slot_[slot_off_[r] + i] belongs to op i of
  // rank r; partner_ and halves_ are indexed by half id.
  std::vector<std::size_t> slot_off_;
  std::vector<std::uint32_t> slot_;
  std::vector<HalfId> partner_;
  std::vector<HalfState> halves_;
  std::vector<std::vector<CollInstance>> coll_instances_;  ///< [comm][seq]
  std::vector<std::optional<CommLinkProfile>> comm_profile_;
  std::vector<RegionId> mpi_region_;

  EngineStats stats_;
};

}  // namespace

ExecResult execute(const simnet::Topology& topo, const Program& prog,
                   const EngineConfig& cfg) {
  telemetry::ScopedSpan span("simulate");
  EngineImpl impl(topo, prog, cfg);
  ExecResult out = impl.run();
  // The engine is single-threaded, so its aggregate counters transfer to
  // the registry in one shot instead of per-event increments.
  telemetry::counter("sim.events").add(out.stats.events);
  telemetry::counter("sim.messages").add(out.stats.messages);
  telemetry::counter("sim.collectives").add(out.stats.collectives);
  telemetry::counter("sim.sweeps").add(out.stats.sweeps);
  telemetry::gauge("sim.time_s").set(out.end_time.s);
  if (telemetry::progress_enabled()) telemetry::progress("simulate", 1.0);
  return out;
}

}  // namespace metascope::simmpi
