// The trace analyzers (paper §3 "Trace analysis", §4 "Parallel trace
// analysis"):
//
//  - analyze_serial: the KOJAK-style baseline — conceptually merges the
//    local traces into one global stream and searches it in one pass.
//    It keeps its own per-event annotation (prepare.hpp), so it stays an
//    independent oracle for the replay;
//  - analyze_parallel / analyze_streaming: the SCALASCA-style analyzer —
//    one replay (stream_analyzer.cpp) that re-enacts the application's
//    communication, exchanging only the few bytes each pattern needs
//    instead of whole traces. Each rank's replay is a resumable task on
//    a bounded worker pool (replay_scheduler.hpp) that touches only its
//    own local trace, which is why this analyzer works without a shared
//    file system. The two entry points differ only in where a task's
//    events come from: an in-memory collection, or a v3 archive.
//
// All of them run the same structure walk first (call-path ids,
// validation) and collect match records that the pattern engine
// evaluates in one canonical order: the cubes are bit-identical, and
// tests enforce it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/patterns.hpp"
#include "report/cube.hpp"
#include "tracing/trace.hpp"

namespace metascope::tracing {
struct StreamSource;  // tracing/stream.hpp
}

namespace metascope::analysis {

/// Per-analysis summary counters. Since the telemetry refactor these
/// are *snapshots of the global metrics registry* (src/telemetry): the
/// live counting happens in registry counters — "analysis.messages",
/// "analysis.events", "replay.bytes", "replay.suspensions",
/// "replay.steals", "replay.requeues", … — and this struct captures the
/// per-run delta so existing callers keep a plain-value API. With
/// telemetry disabled (telemetry::set_enabled(false) or
/// -DMSC_NO_TELEMETRY) the registry-backed fields read zero.
struct AnalysisStats {
  std::size_t messages{0};
  std::size_t collective_instances{0};
  /// Bytes moved between analysis workers during the replay (zero for
  /// analyze_serial). Compare against trace_bytes_in_memory: the paper's
  /// claim is that this is much smaller than shipping traces around.
  std::size_t replay_bytes{0};
  /// Resident size of the trace data the analysis held at its peak —
  /// deliberately NOT the encoded on-disk size, which depends on the
  /// trace format version and is accounted separately by the archive
  /// layer (telemetry counters archive.bytes_on_disk / .read.bytes).
  /// Analyses of an in-memory collection report
  /// tracing::in_memory_bytes of the whole collection; analyze_streaming
  /// counts only resident windows (plus the always-materialized sync
  /// records) and reports the high-water mark, which is what the memory
  /// budget bounds.
  std::size_t trace_bytes_in_memory{0};
  std::size_t events{0};

  // Replay-scheduler counters (zero for analyze_serial).
  /// Worker threads the pool actually used.
  std::size_t replay_workers{0};
  /// Rank replay tasks driven to completion (== ranks).
  std::size_t replay_tasks{0};
  /// Times a task suspended on an unsatisfied Recv / incomplete
  /// collective instead of blocking a thread.
  std::size_t replay_suspensions{0};
  /// Tasks taken from another worker's run queue.
  std::size_t replay_steals{0};
  /// Tasks re-enqueued after a resume.
  std::size_t replay_requeues{0};
};

struct AnalysisResult {
  report::Cube cube;
  PatternSet patterns;
  AnalysisStats stats;
};

/// Tuning knobs shared by both analyzers.
struct ReplayOptions {
  /// Worker-pool size cap; 0 = std::thread::hardware_concurrency().
  /// The pool never exceeds the rank count. Tests pin this to exercise
  /// specific schedules (e.g. a 2-worker pool over 1024 ranks).
  /// Ignored by analyze_serial.
  std::size_t max_workers{0};
  /// Pattern-detector keys to enable (PatternRegistry::standard keys,
  /// e.g. "late_sender", "barrier_completion"). Empty = all detectors.
  /// The structural category time partition is always on. Throws Error
  /// on an unknown key.
  std::vector<std::string> patterns;
  /// When the parallel replay deadlocks and the flight recorder is on,
  /// dump the last N recorded events of every worker thread to stderr
  /// before throwing. 0 disables the postmortem. Ignored by
  /// analyze_serial.
  std::size_t postmortem_events{32};
  /// analyze_streaming only: cap on the decoded trace events resident
  /// across all ranks at once. Drives window *sizing* — each rank's
  /// window holds ~budget/(ranks * per-event footprint) events, floored
  /// at one event — never cross-rank blocking, so a tiny budget can
  /// degrade to single-event windows but can never deadlock the
  /// replay. A window extends past its nominal size only while a
  /// Send/Recv inside it still awaits its enclosing call's exit (in
  /// practice a handful of events: messages sit directly inside their
  /// MPI call region). 0 = a generous default window (4096 events per
  /// rank). Ignored by analyze_serial and analyze_parallel, whose
  /// traces are already resident.
  std::size_t memory_budget_bytes{0};
};

/// Serial (merged-trace) pattern search. Requires a synchronized
/// collection (or scheme None, whose clocks are the engine's own).
AnalysisResult analyze_serial(const tracing::TraceCollection& tc,
                              const ReplayOptions& opts = {});

/// Parallel replay-based pattern search on a bounded worker pool:
/// message matching re-enacted over lock-striped in-memory channels,
/// one resumable task per rank, each reading its rank's resident event
/// vector in place. Produces a cube bit-identical to analyze_serial,
/// for any worker count.
AnalysisResult analyze_parallel(const tracing::TraceCollection& tc,
                                const ReplayOptions& opts = {});

/// Out-of-core streaming replay over a v3 archive: the same replay as
/// analyze_parallel, but each rank task decodes its trace in bounded
/// windows straight out of the mapped file (tracing::TraceStream)
/// instead of materializing the event vectors first. Peak
/// trace-resident memory is bounded by
/// ReplayOptions::memory_budget_bytes; the severity cube is
/// bit-identical to analyze_serial / analyze_parallel for any budget
/// and worker count. Requires a synchronized source (or scheme None) —
/// clock correction rewrites timestamps in memory, so archives must be
/// written *after* synchronization to be streamable.
AnalysisResult analyze_streaming(const tracing::StreamSource& src,
                                 const ReplayOptions& opts = {});

}  // namespace metascope::analysis
