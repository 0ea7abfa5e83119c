// Trace-side event model (EPILOG-like, paper §3).
//
// Unlike simmpi::ExecEvent (true time), trace events carry timestamps in
// whatever clock domain the trace is in: node-local clocks straight from
// measurement, or the synchronized global domain after clock correction.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace metascope::tracing {

enum class EventType : std::uint8_t {
  Enter = 0,
  Exit = 1,
  Send = 2,
  Recv = 3,
  CollExit = 4,  ///< collective-operation exit with metadata
};

const char* to_string(EventType t);

/// One trace record. Widest fields first and the type tag last, so the
/// record packs into 40 bytes; a CollExit's per-member byte counts live
/// beside the event vector in LocalTrace::coll_bytes.
struct Event {
  /// Timestamp in the trace's current clock domain, seconds.
  double time{0.0};
  /// Send/Recv: payload bytes. CollExit: this member's contribution.
  double bytes{0.0};
  /// Enter/CollExit: region id.
  RegionId region;
  /// Send: destination rank; Recv: source rank.
  Rank peer{kNoRank};
  int tag{0};
  CommId comm{0};
  /// CollExit: root rank (kNoRank when rootless).
  Rank root{kNoRank};
  EventType type{EventType::Enter};

  bool operator==(const Event&) const = default;
};
static_assert(sizeof(Event) == 40, "trace events stay 40 bytes");

}  // namespace metascope::tracing
