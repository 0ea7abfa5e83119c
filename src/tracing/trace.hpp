// Local traces and the experiment-wide trace collection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "tracing/defs.hpp"
#include "tracing/event.hpp"

namespace metascope::tracing {

/// One offset measurement taken at runtime between this process and a
/// reference process (paper §3/§4). `local_mid` is this process's clock
/// at the measurement midpoint; `offset` estimates ref_clock - my_clock
/// at that moment. Phase 0 = program start, phase 1 = program end.
struct OffsetRecord {
  int phase{0};
  Rank ref_rank{kNoRank};
  double local_mid{0.0};
  double offset{0.0};
  /// Half of the best round-trip seen — Cristian's error bound.
  double error_bound{0.0};

  bool operator==(const OffsetRecord&) const = default;
};

/// The events of one process, in its own clock domain, plus the offset
/// measurements the runtime recorded for post-mortem synchronization.
struct LocalTrace {
  Rank rank{kNoRank};
  std::vector<Event> events;
  std::vector<OffsetRecord> sync;

  bool operator==(const LocalTrace&) const = default;
};

/// Which synchronization protocol the measurement layer executed.
enum class SyncScheme {
  None,             ///< no measurements (perfect-clock experiments)
  FlatSingle,       ///< every slave vs rank 0, program start only
  FlatTwo,          ///< every slave vs rank 0, start and end
  HierarchicalTwo,  ///< slaves vs local master, masters vs metamaster
};

const char* to_string(SyncScheme s);

/// A complete experiment's worth of trace data.
struct TraceCollection {
  TraceDefs defs;
  std::vector<LocalTrace> ranks;
  SyncScheme scheme{SyncScheme::None};
  /// Which clock domain event times are in.
  bool synchronized{false};

  [[nodiscard]] int num_ranks() const {
    return static_cast<int>(ranks.size());
  }
  [[nodiscard]] std::size_t total_events() const;

  /// Global event order: indices (rank, event index) sorted by timestamp
  /// (ties broken by rank, then position). The KOJAK-style serial
  /// analyzer replays this order. Implemented as a k-way merge of the
  /// per-rank streams (O(N log k)) when each stream is time-sorted —
  /// the normal case — with a full O(N log N) sort as fallback; both
  /// produce the identical order.
  struct GlobalRef {
    Rank rank;
    std::uint32_t index;
  };
  [[nodiscard]] std::vector<GlobalRef> global_order() const;
};

/// Resident size of a trace's payload vectors (events + sync records),
/// independent of any serialization format. The byte-accounting split:
/// "in-memory bytes" is what the analyzer holds and replays over;
/// "on-disk bytes" (telemetry counters archive.bytes_on_disk /
/// archive.read.bytes) is what the encoded archive occupies — the ratio
/// of the two is the trace-format compression ratio.
std::size_t in_memory_bytes(const LocalTrace& t);
std::size_t in_memory_bytes(const TraceCollection& tc);

/// Permissive-recovery mask: which ranks a read quarantined, and which
/// communicators lost a member to them (such a communicator can never
/// again complete a collective instance). Bounds-checked: an id outside
/// the collection's rank or communicator table is never quarantined.
/// prune_quarantined and the streaming replay's on-the-fly filter both
/// decide through this one mask.
class QuarantineMask {
 public:
  QuarantineMask() = default;
  QuarantineMask(const TraceCollection& tc,
                 const std::vector<Rank>& quarantined);

  [[nodiscard]] bool rank(std::int64_t r) const { return in(rank_, r); }
  /// A Send/Recv whose peer is quarantined is dropped.
  [[nodiscard]] bool drops(EventType type, std::int64_t peer) const {
    return (type == EventType::Send || type == EventType::Recv) && rank(peer);
  }
  /// A CollExit on a tainted communicator degrades to a plain Exit.
  [[nodiscard]] bool degrades(EventType type, std::int64_t comm) const {
    return type == EventType::CollExit && in(comm_, comm);
  }

 private:
  static bool in(const std::vector<char>& v, std::int64_t i) {
    return i >= 0 && i < static_cast<std::int64_t>(v.size()) &&
           v[static_cast<std::size_t>(i)] != 0;
  }
  std::vector<char> rank_;
  std::vector<char> comm_;
};

/// Permissive-recovery support: removes from the surviving ranks every
/// event that can no longer be matched once the given ranks are
/// quarantined (their traces emptied) —
///  - Send/Recv events whose peer is quarantined are dropped (the
///    enclosing MPI region stays as plain time);
///  - CollExit events on a communicator containing a quarantined rank
///    degrade to plain Exit events (the instance is incomplete on every
///    surviving rank, so the whole instance disappears consistently).
/// Region nesting stays balanced, so the structure walk and the replay
/// still hold. Returns the number of events dropped or degraded.
/// Deterministic: depends only on the collection and the quarantined
/// set, never on reader parallelism.
std::size_t prune_quarantined(TraceCollection& tc,
                              const std::vector<Rank>& quarantined);

}  // namespace metascope::tracing
