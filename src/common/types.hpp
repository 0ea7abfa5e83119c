// Core vocabulary types shared by every MetaScope module.
//
// Two kinds of time flow through the system and must never be confused:
//  - TrueTime:  the simulator's global virtual time (perfect, global clock).
//  - LocalTime: a timestamp read from a node-local clock (offset + drift).
// Both are seconds held in a double; the strong wrappers below make the
// producer/consumer contract explicit in every signature.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

namespace metascope {

/// Strong integral identifier. Tag disambiguates unrelated id spaces.
template <typename Tag, typename Rep = std::int32_t>
struct StrongId {
  using rep_type = Rep;

  Rep value{-1};

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value >= 0; }
  [[nodiscard]] constexpr Rep get() const { return value; }

  constexpr auto operator<=>(const StrongId&) const = default;
};

struct MetahostTag {};
struct NodeTag {};
struct ProcessTag {};
struct ThreadTag {};
struct RegionTag {};
struct CommTag {};
struct CallPathTag {};
struct MetricTag {};
struct LocationTag {};

/// Identifies one metahost (constituent machine of the metacomputer).
using MetahostId = StrongId<MetahostTag>;
/// Identifies one SMP node, globally unique across metahosts.
using NodeId = StrongId<NodeTag>;
/// MPI rank in the global communicator.
using Rank = std::int32_t;
/// Identifies a source-code region (function) in the region table.
using RegionId = StrongId<RegionTag>;
/// Identifies a communicator.
using CommId = StrongId<CommTag>;
/// Identifies a call-tree node (call path).
using CallPathId = StrongId<CallPathTag>;
/// Identifies a metric / pattern in the metric tree.
using MetricId = StrongId<MetricTag>;
/// Flat index of a location in the system tree (== rank for 1 thread/proc).
using LocationId = StrongId<LocationTag>;

inline constexpr Rank kNoRank = -1;
inline constexpr int kAnyTag = -1;

/// Seconds on the simulator's perfect global clock.
struct TrueTime {
  double s{0.0};
  constexpr auto operator<=>(const TrueTime&) const = default;
};

/// Seconds as read from some node-local (skewed, drifting) clock.
struct LocalTime {
  double s{0.0};
  constexpr auto operator<=>(const LocalTime&) const = default;
};

/// A duration in seconds. Plain double is acceptable for arithmetic-heavy
/// paths; the alias documents intent.
using Dur = double;

inline constexpr double kInfTime = std::numeric_limits<double>::infinity();

/// What one member of a collective operation pushed into it and received
/// from it, in bytes. Few events are collective exits and no analyzer
/// reads these, so the simulator's and the tracer's event records leave
/// them out: each rank keeps one entry per CollExit event beside its
/// event vector, in event order (simmpi::ExecResult::coll_bytes,
/// tracing::LocalTrace::coll_bytes).
struct CollBytes {
  double sent{0.0};
  double recvd{0.0};

  constexpr bool operator==(const CollBytes&) const = default;
};

constexpr TrueTime operator+(TrueTime t, Dur d) { return TrueTime{t.s + d}; }
constexpr Dur operator-(TrueTime a, TrueTime b) { return a.s - b.s; }
constexpr LocalTime operator+(LocalTime t, Dur d) { return LocalTime{t.s + d}; }
constexpr Dur operator-(LocalTime a, LocalTime b) { return a.s - b.s; }

/// Convenience literals for readable latency/bandwidth constants.
constexpr Dur microseconds(double us) { return us * 1e-6; }
constexpr Dur milliseconds(double ms) { return ms * 1e-3; }
constexpr double mega_bytes(double mb) { return mb * 1e6; }
constexpr double giga_bytes(double gb) { return gb * 1e9; }

}  // namespace metascope

namespace std {
template <typename Tag, typename Rep>
struct hash<metascope::StrongId<Tag, Rep>> {
  size_t operator()(const metascope::StrongId<Tag, Rep>& id) const noexcept {
    return std::hash<Rep>{}(id.value);
  }
};
}  // namespace std
