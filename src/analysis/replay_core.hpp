// Match records — what every analyzer collects and the pattern engine
// evaluates. The analyzers differ only in *how* they collect them:
//
//  - analyze_serial matches messages post-mortem and walks each rank's
//    annotated events once (make_side, group_collectives below);
//  - analyze_parallel / analyze_streaming re-enact the communication on
//    a bounded worker pool and collect the same records from the replay.
//
// Either way the records funnel into PatternEngine::dispatch
// (pattern_engine.hpp), which fires the detector callbacks in one
// canonical order — p2p records by (receiver rank, receive position),
// collective instances by (communicator, sequence) with members sorted
// by rank. Canonical order makes the floating-point accumulation
// identical between analyzers and across repeated parallel runs: cubes
// are bit-identical, not merely close, regardless of worker count or
// interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
#include "analysis/wait_rules.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

/// One matched point-to-point message, both sides fully resolved.
struct P2pRecord {
  P2pSide send;
  P2pSide recv;
  /// Receive event's index in the receiver's trace — with recv.rank the
  /// canonical sort key (each Recv event matches exactly one message).
  std::uint32_t recv_index{0};
};

/// One collective instance: the seq-th collective on a communicator.
struct CollInstance {
  int comm{0};
  int seq{0};
  std::vector<CollMember> members;
  Rank root{kNoRank};
  RegionId region;
};

/// Builds one side of a p2p transfer from a rank's annotated event
/// (analyze_serial).
P2pSide make_side(const PreparedTrace& prep, Rank rank, std::uint32_t index);

/// Groups every CollExit event into instances keyed by (comm, seq) using
/// per-rank flat sequence counters. Used by the serial analyzer; the
/// replay builds the same instances as its tasks arrive.
std::vector<CollInstance> group_collectives(const tracing::TraceCollection& tc,
                                            const PreparedTrace& prep);

/// Fills the trace-volume stats — total events and resident trace
/// bytes — and adds them to their registry counters. "Resident" is what
/// the analysis held: tracing::in_memory_bytes of an in-memory
/// collection, the windows' high-water mark under analyze_streaming.
void fill_trace_stats(std::size_t events, std::size_t resident_bytes,
                      AnalysisStats& stats);

}  // namespace metascope::analysis
