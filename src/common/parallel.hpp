// Bounded worker pool with work stealing, for per-rank fan-outs.
//
// The whole pipeline — archive encode/decode and file I/O, clock
// correction, amortization, the structure walk and both replay passes —
// fans out per-rank work through parallel_for: n independent items on a
// fixed pool of workers (hardware concurrency by default, the calling
// thread among them), each worker owning a deque of items and stealing
// from its peers when it runs dry.
// Items never wait on each other, so a worker whose deque and whose
// peers' deques are empty is done. One worker (or one item) runs inline
// on the calling thread, so serial baselines pay no threading cost.
//
// This layer is deliberately telemetry-free (common sits below
// telemetry in the library stack): the pool keeps exact counters and
// exposes lifecycle hooks through a PoolObserver, which clients like the
// flight recorder's RecordingObserver wire into telemetry.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace metascope {

/// Per-run summary of a pool, for the caller's telemetry.
struct ParallelForStats {
  std::size_t workers{0};  ///< pool size actually used
  std::size_t items{0};    ///< items run
  std::size_t steals{0};   ///< items taken from another worker's deque
  /// Items completed per worker (index = worker id); the load-balance
  /// figure stages feed into their per-stage worker histograms.
  std::vector<std::size_t> items_per_worker;
};

/// Lifecycle hooks a client may attach to a parallel_for; all
/// callbacks arrive on the thread the event happened on, which is what
/// lets an observer keep per-thread timelines. Consulted only when
/// wants_events().
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  /// True if the pool should fire the hooks below; consulted once per
  /// parallel_for. This is the seam the telemetry flight recorder plugs
  /// into (telemetry::RecordingObserver) — off by default, so pools pay
  /// nothing unless a recording is requested.
  [[nodiscard]] virtual bool wants_events() const { return false; }
  /// Once per spawned worker thread, before it runs any item. Not fired
  /// for the calling thread, which runs as worker 0 (or alone, on the
  /// inline single-worker path) and keeps its own label.
  virtual void on_worker_attach(std::size_t wid) { (void)wid; }
  /// A worker starts running item `task`.
  virtual void on_task_begin(std::size_t task) { (void)task; }
  /// Item `task` returned or threw.
  virtual void on_task_end(std::size_t task) { (void)task; }
  /// This thread stole `task` from another worker's deque.
  virtual void on_task_steal(std::size_t task) { (void)task; }
};

/// Worker count parallel_for uses for `num_tasks` items under
/// `max_workers` (0 = hardware concurrency): never more than the item
/// count, never fewer than one.
[[nodiscard]] std::size_t resolve_workers(std::size_t num_tasks,
                                          std::size_t max_workers);

/// Runs body(i) for every i in [0, n) on a bounded work-stealing pool.
/// `max_workers` == 0 selects hardware concurrency; 1 (or n <= 1) runs
/// inline on the calling thread, in index order, with no threads
/// spawned. If bodies throw, the exception of the lowest failing index
/// is rethrown, for every worker count. Bodies for distinct items must
/// be independent (the usual use is one item per rank writing its own
/// slot), which is what makes results deterministic for every worker
/// count.
///
/// `obs` (optional, never owned) receives the pool's lifecycle hooks;
/// stages pass a telemetry::RecordingObserver so their per-item fan-out
/// shows up on the flight-recorder timeline. The inline path fires the
/// task begin/end hooks on the calling thread (without worker attach),
/// so single-worker runs record the same per-item events.
ParallelForStats parallel_for(std::size_t n, std::size_t max_workers,
                              const std::function<void(std::size_t)>& body,
                              PoolObserver* obs = nullptr);

}  // namespace metascope
