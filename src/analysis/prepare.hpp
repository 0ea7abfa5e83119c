// Pre-analysis ("definition unification"): the structure walk every
// analyzer runs before any replay, and analyze_serial's own per-event
// annotation on top of it. The replay (stream_analyzer.cpp) annotates
// events as its rank tasks consume them instead; keeping the KOJAK
// baseline's annotation code separate keeps it an independent oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/patterns.hpp"
#include "report/cube.hpp"
#include "tracing/stream.hpp"
#include "tracing/trace.hpp"

namespace metascope::analysis {

/// The structure walk over one collection's ranks. Each rank is walked
/// on its own, into a local call tree that get_or_add fills in the
/// rank's first-appearance order; run() then merges the local trees
/// into the global one in rank order. That is exactly the order a
/// serial walk (ranks in order, events in order, get_or_add at every
/// Enter) creates call paths in, so the ids — and the cubes — are the
/// same for any worker count. Collectives are counted per communicator
/// for the completeness check, so the replay can size every instance
/// before it starts. Every failure throws Error with ErrorCode::Corrupt,
/// the rank as context, and a message naming the event position:
///  - Exit/CollExit without a matching Enter, an Enter left open at the
///    end of the trace, a negative region duration, a message event
///    outside any region;
///  - an Enter/CollExit region id outside the region table, a CollExit
///    communicator id outside the communicator table, a CollExit on a
///    communicator that does not list the rank;
///  - (after every rank) a communicator member that recorded a
///    different number of collectives on it than the first member, or a
///    communicator listing a rank outside the collection.
class StructureWalk {
 public:
  /// What one rank's walk saw.
  struct RankTotals {
    std::uint32_t events{0};
    /// Communication events (Send/Recv/CollExit).
    std::uint32_t ops{0};
    std::uint32_t sends{0};
    std::uint32_t recvs{0};
  };

  /// One rank's walk. Walks of distinct ranks share no mutable state,
  /// so they may run concurrently.
  class RankWalk {
   public:
    void step(const tracing::LightEvent& e);
    /// Ends the rank's walk.
    RankTotals end();

   private:
    friend class StructureWalk;
    RankWalk(StructureWalk& walk, Rank rank);
    [[noreturn]] void fail(const std::string& what) const;

    struct Open {
      CallPathId cnode;  ///< in the rank's local tree
      double enter_time;
    };
    StructureWalk* walk_;
    Rank rank_;
    report::CallTree* tree_;
    std::vector<Open> stack_;
    RankTotals totals_;
  };

  StructureWalk(const tracing::TraceDefs& defs, std::size_t num_ranks);

  /// Walks every rank on up to `max_workers` workers (0 = hardware
  /// concurrency): `walk_rank(r, *this)` walks rank r through begin(r)
  /// and returns its totals. If ranks fail, the lowest failing rank's
  /// error is rethrown, for every worker count. Otherwise merges the
  /// local call trees into `calls` in rank order, runs the
  /// collective-completeness check, and records the "prepare.ranks" /
  /// "prepare.call_paths" telemetry. Returns each rank's totals.
  std::vector<RankTotals> run(
      std::size_t max_workers, report::CallTree& calls,
      const std::function<RankTotals(std::size_t, StructureWalk&)>&
          walk_rank);
  /// run() over an in-memory collection. Rank slot r must hold rank r's
  /// trace.
  std::vector<RankTotals> run(const tracing::TraceCollection& tc,
                              std::size_t max_workers,
                              report::CallTree& calls);

  /// Starts `rank`'s walk; each rank is walked at most once.
  RankWalk begin(Rank rank);

  /// Communicator c's members in rank order.
  [[nodiscard]] const std::vector<Rank>& members(std::size_t c) const {
    return members_[c];
  }
  /// Collective instances recorded on communicator c (after run()).
  [[nodiscard]] int instances(std::size_t c) const;

 private:
  void finish(report::CallTree& calls);

  const tracing::TraceDefs* defs_;
  std::size_t num_ranks_;
  std::vector<std::vector<Rank>> members_;
  /// [comm][rank] collectives recorded.
  std::vector<std::vector<int>> coll_counts_;
  /// Per rank: its call paths, in first-appearance order.
  std::vector<report::CallTree> local_;
};

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
/// annotation of every rank, all on the calling thread.
PreparedTrace prepare(const tracing::TraceCollection& tc);

}  // namespace metascope::analysis
