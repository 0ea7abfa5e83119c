// Pre-analysis ("definition unification"): the structure walk every
// analyzer runs before any replay, and analyze_serial's own per-event
// annotation on top of it. The replay (stream_analyzer.cpp) annotates
// events as its rank tasks consume them instead; keeping the KOJAK
// baseline's annotation code separate keeps it an independent oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/patterns.hpp"
#include "report/cube.hpp"
#include "tracing/stream.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

/// The structure walk over one collection's ranks. Ranks in order,
/// events in order, get_or_add at every Enter: that order assigns the
/// call-path ids, so cubes are bit-identical between the analyzers for
/// any worker count. Collectives are counted per communicator for the
/// completeness check, so no replay task can wait on an instance that
/// never completes. Every failure throws Error with ErrorCode::Corrupt,
/// the rank as context, and a message naming the event position:
///  - Exit/CollExit without a matching Enter, an Enter left open at the
///    end of the trace, a negative region duration, a message event
///    outside any region;
///  - an Enter/CollExit region id outside the region table, a CollExit
///    communicator id outside the communicator table;
///  - (finish) a communicator member that recorded a different number
///    of collectives on it than the first member, or a communicator
///    listing a rank outside the collection.
class StructureWalk {
 public:
  /// Call paths are added to `calls`; `num_ranks` sizes the collective
  /// counts.
  StructureWalk(const tracing::TraceDefs& defs, std::size_t num_ranks,
                report::CallTree& calls);

  /// Starts `rank`'s walk. Ranks must come in ascending order.
  void begin(Rank rank);
  /// Walks one event. Returns the entered call path for an Enter, an
  /// invalid id otherwise.
  CallPathId step(const tracing::LightEvent& e);
  /// What one rank's walk saw.
  struct RankTotals {
    std::uint32_t events{0};
    /// Communication events (Send/Recv/CollExit).
    std::uint32_t ops{0};
  };
  /// Ends the rank's walk.
  RankTotals end();
  /// After the last rank: the collective-completeness check, then the
  /// "prepare.ranks" / "prepare.call_paths" telemetry.
  void finish() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;

  struct Open {
    CallPathId cnode;
    double enter_time;
  };
  const tracing::TraceDefs* defs_;
  report::CallTree* calls_;
  std::size_t num_ranks_;
  /// [comm][rank] collectives recorded.
  std::vector<std::vector<int>> coll_counts_;
  std::vector<Open> stack_;
  Rank rank_{kNoRank};
  std::uint32_t index_{0};
  std::uint32_t ops_{0};
};

/// Runs the structure walk over an in-memory collection, ranks in
/// order, then the completeness check. Rank slot r must hold rank r's
/// trace. Returns each rank's totals. When `enters` is given it
/// receives, per rank, the call path of every Enter in event order.
std::vector<StructureWalk::RankTotals> walk_structure(
    const tracing::TraceCollection& tc, report::CallTree& calls,
    std::vector<std::vector<CallPathId>>* enters = nullptr);

/// Per-event annotations for one rank, index-aligned with the trace's
/// event vector.
struct EventAnnotations {
  /// Call path the event belongs to (for Enter: the entered path).
  std::vector<CallPathId> cnode;
  /// For Send/Recv/CollExit events: timestamp of the enclosing MPI call's
  /// Enter. Zero for other events.
  std::vector<double> op_enter;
  /// For Send/Recv/CollExit events: timestamp of the enclosing MPI call's
  /// Exit (== CollExit time for collectives).
  std::vector<double> op_exit;
};

/// One rank's exclusive seconds per call-path id, summed over
/// occurrences (ordered: the region pass walks call paths in id order).
using ExclusiveTimes = std::map<int, double>;

struct PreparedTrace {
  report::CallTree calls;
  /// RegionId -> {category, collective kind, blocking-send?}, computed
  /// once here so hot paths never classify by region name.
  RegionClassTable region_table;
  std::vector<EventAnnotations> per_rank;
  std::vector<ExclusiveTimes> excl_time;  ///< per rank
};

/// analyze_serial's prepare: the structure walk (throws Error on any
/// malformed trace, before anything is annotated), then per-event
/// annotation of every rank on the calling thread.
PreparedTrace prepare(const tracing::TraceCollection& tc);

}  // namespace metascope::analysis
