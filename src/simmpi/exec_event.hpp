// Execution events produced by the engine, stamped in *true* global time.
//
// The tracing layer converts these into trace events with local-clock
// stamps; analysis-side event types live in tracing/event.hpp. Event
// sequences are per-rank and time-monotonic within a rank.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace metascope::simmpi {

enum class ExecEventType : std::uint8_t {
  Enter,     ///< entered a region (user function or MPI call)
  Exit,      ///< left the innermost region
  Send,      ///< message handed to the network (inside an MPI send region)
  Recv,      ///< message fully received (inside an MPI recv/wait region)
  CollExit,  ///< leave a collective region, with collective metadata
};

/// One engine event. Widest fields first and the type tag last, so the
/// record packs into 40 bytes; a CollExit's per-member byte counts live
/// beside the event stream in ExecResult::coll_bytes.
struct ExecEvent {
  TrueTime time;
  /// Send/Recv: message payload size. CollExit: this member's
  /// contribution.
  double bytes{0.0};
  /// Enter: region entered. CollExit: the MPI collective region.
  RegionId region;
  /// Send: destination rank. Recv: source rank.
  Rank peer{kNoRank};
  int tag{0};
  CommId comm{0};
  /// CollExit: root (kNoRank for rootless).
  Rank root{kNoRank};
  ExecEventType type{ExecEventType::Enter};
};
static_assert(sizeof(ExecEvent) == 40, "engine events stay 40 bytes");

/// Aggregate counters for the run (diagnostics and benchmarks).
struct EngineStats {
  std::uint64_t messages{0};
  double message_bytes{0.0};
  std::uint64_t collectives{0};
  std::uint64_t events{0};
  std::uint64_t sweeps{0};  ///< fixed-point sweeps until quiescence
};

/// Result of executing a Program: per-rank event streams in true time.
struct ExecResult {
  std::vector<std::vector<ExecEvent>> per_rank;
  /// Per rank: one entry per CollExit in per_rank, in event order.
  std::vector<std::vector<CollBytes>> coll_bytes;
  /// Completion time of the last rank.
  TrueTime end_time;
  /// Per-rank completion times.
  std::vector<TrueTime> rank_end;
  EngineStats stats;

  [[nodiscard]] int num_ranks() const {
    return static_cast<int>(per_rank.size());
  }
};

}  // namespace metascope::simmpi
