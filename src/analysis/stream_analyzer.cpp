// The replay: SCALASCA-style parallel trace analysis (paper §4) on a
// bounded worker pool. Every application rank becomes a resumable task
// that reads only its own local trace, from a per-rank event source:
//
//  - analyze_parallel: the borrowed LocalTrace::events vector — one
//    chunk that is already decoded, so no copy and no decode;
//  - analyze_streaming: a tracing::TraceStream over the rank's mapped v3
//    file, decoded chunk by chunk, so peak trace-resident memory is
//    ~ budget instead of ~ trace size.
//
// The task re-enacts the recorded communication, moving only the few
// bytes each pattern formula needs. The exchange protocol per message
// mirrors the original communication direction:
//
//   sender:   push {rank, enter, exit, cnode}  -> forward channel
//   receiver: pop                              <- forward channel
//
// Senders never block, exactly like an eager MPI send. A receiver whose
// channel is empty — or a collective member whose instance is not yet
// complete — *suspends* (yields its worker back to the pool) instead of
// blocking an OS thread, so a pool sized by hardware concurrency drives
// thousands of ranks. Channels and collective instances live in
// lock-striped hash maps keyed by (src, dst, tag, comm) / (comm, seq):
// unrelated channels never contend on one global lock.
//
// Before the replay, the structure walk (prepare.hpp) assigns the
// call-path ids and rejects malformed traces. Each task then annotates
// its events as it consumes them, one window at a time — call-path
// tags via CallTree::find against the walk's tree,
// enclosing-op windows, exclusive times — and keeps only the annotated
// communication events. An in-memory trace is one window. A v3 window
// nominally holds a number of them derived from the memory budget and
// extends only while a Send/Recv in it still awaits its enclosing
// call's exit; the budget drives window *sizing*, never cross-rank
// blocking, so tiny budgets degrade to single-event windows but cannot
// deadlock.
//
// The replay only *collects* match records; pattern evaluation happens
// afterwards in the pattern engine's canonical dispatch order, which is
// what makes the cube bit-identical to analyze_serial for any worker
// count, window size and interleaving.
//
// Permissive v3 sources (StreamSource::quarantined) are filtered on the
// fly through the tracing::QuarantineMask that prune_quarantined uses.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "analysis/replay_scheduler.hpp"
#include "analysis/striped_map.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/span.hpp"
#include "tracing/stream.hpp"

namespace metascope::analysis {

using tracing::Event;
using tracing::EventType;

namespace {

/// Timestamps + call path one replay side shares with its peer.
/// Wire size when packed: rank (4) + two timestamps (16) + cnode (4).
constexpr std::size_t kPeerWireBytes = 24;
constexpr std::size_t kNoWaiter = static_cast<std::size_t>(-1);
/// Window size (entries per rank) for a v3 source without a memory
/// budget. An in-memory trace is one chunk and one window: it is
/// resident anyway.
constexpr std::size_t kDefaultWindowEvents = 4096;
/// Decode granularity of a v3 source: events pulled from the column
/// cursors per call. Bounded so the decode buffer stays small next to
/// tiny windows.
constexpr std::size_t kMaxDecodeChunk = 256;

struct PeerInfo {
  Rank rank{kNoRank};
  double op_enter{0.0};
  double op_exit{0.0};
  CallPathId cnode;
};

/// One message channel: FIFO of in-flight sends plus at most one
/// suspended receiver (each channel has a single consumer — the
/// destination rank replays its events in order).
struct Channel {
  std::deque<PeerInfo> q;
  std::size_t waiter{kNoWaiter};
};

struct ChannelKey {
  Rank src{kNoRank};
  Rank dst{kNoRank};
  int tag{0};
  int comm{0};
  bool operator==(const ChannelKey&) const = default;
};

struct ChannelKeyHash {
  std::size_t operator()(const ChannelKey& k) const {
    std::size_t h = std::hash<int>{}(k.src);
    h = hash_combine(h, std::hash<int>{}(k.dst));
    h = hash_combine(h, std::hash<int>{}(k.tag));
    return hash_combine(h, std::hash<int>{}(k.comm));
  }
};

/// One collective instance under construction: arrived members plus the
/// tasks suspended until the last member arrives.
struct CollGroup {
  std::vector<CollMember> members;
  Rank root{kNoRank};
  RegionId region;
  std::vector<std::size_t> waiters;
};

struct CollKey {
  int comm{0};
  int seq{0};
  bool operator==(const CollKey&) const = default;
};

struct CollKeyHash {
  std::size_t operator()(const CollKey& k) const {
    return hash_combine(std::hash<int>{}(k.comm), std::hash<int>{}(k.seq));
  }
};

/// One annotated communication event resident in a rank's window:
/// exactly the fields the replay reads.
struct WinEvent {
  double op_enter{0.0};
  double op_exit{0.0};
  /// Position in the rank's (filtered) event stream — the canonical
  /// receive-order sort key.
  std::uint32_t index{0};
  CallPathId cnode;
  /// Send: destination; Recv: source; CollExit: root.
  Rank peer{kNoRank};
  /// Send/Recv: message tag; CollExit: region id.
  int tag_or_region{0};
  int comm{0};
  EventType type{EventType::Send};
  /// Send/Recv still awaiting its enclosing call's exit.
  bool open{false};
};
static_assert(sizeof(WinEvent) <= 40, "window entries stay compact");

/// Trace-resident byte accounting shared by every rank task of a v3
/// replay: the live total feeds the "analysis.stream.resident_bytes"
/// gauge, the atomic high-water mark is authoritative for AnalysisStats
/// (it works with telemetry disabled) and also raises the
/// "analysis.stream.resident_bytes_peak" gauge.
class Residency {
 public:
  Residency()
      : cur_gauge_(telemetry::gauge("analysis.stream.resident_bytes")),
        peak_gauge_(telemetry::gauge("analysis.stream.resident_bytes_peak")) {}

  void adjust(std::ptrdiff_t delta) {
    const std::size_t cur =
        now_.fetch_add(static_cast<std::size_t>(delta),
                       std::memory_order_relaxed) +
        static_cast<std::size_t>(delta);
    cur_gauge_.set(static_cast<double>(cur));
    std::size_t p = peak_.load(std::memory_order_relaxed);
    while (cur > p &&
           !peak_.compare_exchange_weak(p, cur, std::memory_order_relaxed)) {
    }
    peak_gauge_.max(static_cast<double>(cur));
  }

  [[nodiscard]] std::size_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> now_{0};
  std::atomic<std::size_t> peak_{0};
  telemetry::Gauge& cur_gauge_;
  telemetry::Gauge& peak_gauge_;
};

/// Where a rank task's events come from: a borrowed in-memory event
/// vector, handed out as one chunk, or a v3 file decoded chunk by chunk.
struct EventSource {
  /// In-memory: the borrowed events, until their one chunk is handed out.
  const std::vector<Event>* mem{nullptr};
  /// v3: the mapped file and its windowed cursor (nullopt for a
  /// quarantined rank, which streams zero events).
  MappedFile file;
  std::optional<tracing::TraceStream> ts;
  std::vector<Event> buf;  ///< v3 decode buffer
  /// The current chunk.
  const Event* pos{nullptr};
  const Event* end{nullptr};

  /// Points [pos, end) at the next chunk; false once exhausted.
  bool next_chunk(std::size_t chunk) {
    if (mem != nullptr) {
      pos = mem->data();
      end = pos + mem->size();
      mem = nullptr;
      return true;
    }
    if (!ts || ts->at_end()) return false;
    buf.clear();
    ts->next(buf, chunk);
    pos = buf.data();
    end = pos + buf.size();
    return true;
  }
};

/// One open frame of the window pass's region stack.
struct Frame {
  CallPathId cnode;
  double enter_time{0.0};
  double child_time{0.0};
  /// First window slot that can hold a Send/Recv of this frame.
  std::uint32_t first_slot{0};
};

/// Everything one rank task owns: its event source, the annotation
/// state bridging windows, the current window, and the replay state.
struct RankTask {
  EventSource src;

  // Annotation state, persistent across windows.
  std::vector<Frame> stack;
  std::size_t open_ops{0};      ///< open Send/Recv in the current window
  ExclusiveTimes excl;
  std::uint32_t next_index{0};  ///< filtered-stream position

  // Current window.
  std::vector<WinEvent> win;
  std::size_t wpos{0};
  std::uint32_t windows_filled{0};
  std::size_t sync_bytes{0};  ///< v3: always-materialized sync records
  std::size_t resident{0};    ///< v3: bytes this rank currently accounts

  // Replay state.
  std::vector<int> coll_seq;
  std::vector<P2pRecord> records;
  std::uint64_t wire_bytes{0};

  // From the structure walk.
  StructureWalk::RankTotals walked;
  std::uint64_t pruned{0};  ///< v3: events the quarantine filter dropped
};

/// The replay over prepared rank tasks: installs the cube, runs every
/// task to completion on the pool, then the region pass and the
/// canonical dispatch. `residency` is set for a v3 source only: it
/// turns on the resident-bytes ledger and the window counter. Fills the
/// match and scheduler stats; trace-volume stats are the caller's.
AnalysisResult replay(const tracing::TraceCollection& tc,
                      const report::CallTree& calls,
                      std::vector<RankTask>& tasks,
                      const tracing::QuarantineMask& mask,
                      std::size_t window_events, Residency* residency,
                      const ReplayOptions& opts) {
  const tracing::TraceDefs& defs = tc.defs;
  const std::size_t n = tasks.size();
  AnalysisResult res;
  const RegionClassTable region_table(defs.regions);
  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install(tc, calls, region_table);
  telemetry::Counter* windows_counter =
      residency != nullptr ? &telemetry::counter("analysis.stream.windows")
                           : nullptr;
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min(window_events, kMaxDecodeChunk));

  // Evicts the consumed window and annotates the next one. The window
  // extends past its nominal size only while a Send/Recv in it still
  // awaits its enclosing call's exit, which is what guarantees every op
  // window is complete before the replay consumes the event.
  auto fill_window = [&](RankTask& rt) {
    rt.win.clear();
    rt.wpos = 0;
    // A rank whose ops all fit in one window gets that window sized
    // exactly: it can never outgrow them.
    if (rt.win.capacity() == 0 && rt.walked.ops <= window_events)
      rt.win.reserve(rt.walked.ops);
    // The previous window closed with no open Send/Recv, so no open
    // frame owns a slot before the new window's first.
    for (Frame& f : rt.stack) f.first_slot = 0;
    EventSource& src = rt.src;
    while (rt.win.size() < window_events || rt.open_ops > 0) {
      if (src.pos == src.end) {
        if (!src.next_chunk(chunk)) break;
        continue;
      }
      const Event& e = *src.pos++;
      EventType type = e.type;
      if (mask.drops(type, e.peer)) continue;
      if (mask.degrades(type, e.comm.get())) type = EventType::Exit;
      switch (type) {
        case EventType::Enter: {
          const CallPathId parent =
              rt.stack.empty() ? CallPathId{} : rt.stack.back().cnode;
          const CallPathId c = calls.find(parent, e.region);
          MSC_CHECK(c.valid(), "replay met a call path the structure "
                               "walk never created");
          rt.stack.push_back(Frame{c, e.time, 0.0,
                                   static_cast<std::uint32_t>(rt.win.size())});
          break;
        }
        case EventType::Exit:
        case EventType::CollExit: {
          const Frame f = rt.stack.back();
          rt.stack.pop_back();
          const double dur = e.time - f.enter_time;
          rt.excl[f.cnode.get()] += dur - f.child_time;
          if (!rt.stack.empty()) rt.stack.back().child_time += dur;
          // Close the Send/Recv inside this frame (they live directly
          // inside their MPI call frame; nested frames closed theirs).
          for (std::size_t k = f.first_slot; k < rt.win.size(); ++k) {
            WinEvent& w = rt.win[k];
            if (!w.open) continue;
            w.op_enter = f.enter_time;
            w.op_exit = e.time;
            w.open = false;
            --rt.open_ops;
          }
          if (type == EventType::CollExit) {
            WinEvent w;
            w.op_enter = f.enter_time;
            w.op_exit = e.time;
            w.index = rt.next_index;
            w.cnode = f.cnode;
            w.peer = e.root;
            w.tag_or_region = e.region.get();
            w.comm = e.comm.get();
            w.type = EventType::CollExit;
            rt.win.push_back(w);
          }
          break;
        }
        case EventType::Send:
        case EventType::Recv: {
          WinEvent w;
          w.index = rt.next_index;
          w.cnode = rt.stack.back().cnode;
          w.peer = e.peer;
          w.tag_or_region = e.tag;
          w.comm = e.comm.get();
          w.type = type;
          w.open = true;
          rt.win.push_back(w);
          ++rt.open_ops;
          break;
        }
      }
      ++rt.next_index;
    }
    MSC_CHECK(rt.open_ops == 0, "window closed with unfilled message ops");
    if (residency == nullptr) return;
    const std::size_t now = rt.win.capacity() * sizeof(WinEvent) +
                            src.buf.capacity() * sizeof(Event) +
                            rt.sync_bytes;
    // Capacities go quiescent after the first few windows; skipping the
    // no-op adjust keeps the shared atomics off the steady-state path.
    if (now != rt.resident) {
      residency->adjust(static_cast<std::ptrdiff_t>(now) -
                        static_cast<std::ptrdiff_t>(rt.resident));
      rt.resident = now;
    }
  };

  telemetry::ScopedSpan replay_span("replay");
  StripedMap<ChannelKey, Channel, ChannelKeyHash> channels;
  StripedMap<CollKey, CollGroup, CollKeyHash> colls;
  // Wire-volume counter: tallied per task during the replay, added to
  // the registry in one batch at the end; the per-run figure for
  // AnalysisStats is the end-minus-start delta.
  telemetry::Counter& replay_bytes = telemetry::counter("replay.bytes");
  const std::uint64_t replay_bytes0 = replay_bytes.value();
  for (RankTask& rt : tasks) rt.coll_seq.assign(defs.comms.size(), 0);

  ReplayScheduler sched(n, opts.max_workers, opts.postmortem_events);

  auto step = [&](std::size_t ti) -> StepResult {
    const Rank me = static_cast<Rank>(ti);
    RankTask& rt = tasks[ti];
    for (;;) {
      if (rt.wpos == rt.win.size()) {
        fill_window(rt);
        if (rt.win.empty()) {
          // Fully consumed. For a v3 source, release the last resident
          // bytes, flush this rank's window tally in one add (per-window
          // counter bumps would contend across workers under tiny
          // budgets) and unmap here, on the worker, rather than in the
          // epilogue: a thousand munmaps overlap the still-running
          // ranks instead of serializing after the replay. The cursor
          // borrows the mapping's bytes, so it goes first.
          if (residency != nullptr) {
            residency->adjust(-static_cast<std::ptrdiff_t>(rt.resident));
            windows_counter->add(rt.windows_filled);
          }
          rt.resident = 0;
          rt.win = {};
          rt.src.ts.reset();
          rt.src.file = MappedFile();
          rt.src.buf = {};
          return StepResult::Done;
        }
        // Periodic cooperative yield: hand the worker back so other
        // ranks' windows interleave under tiny budgets, but only every
        // 32nd window — yielding on every fill dominates the replay
        // wall once single-event windows make fills cheap and frequent.
        // Self-resume before Suspend is the pool's sanctioned yield
        // (the Notified state requeues us). Correctness never depends
        // on this: blocking ops suspend on their own.
        if (++rt.windows_filled % 32 == 0) {
          sched.resume(ti);
          return StepResult::Suspend;
        }
        continue;
      }
      const WinEvent& w = rt.win[rt.wpos];
      switch (w.type) {
        case EventType::Send: {
          std::size_t waiter = kNoWaiter;
          channels.with(ChannelKey{me, w.peer, w.tag_or_region, w.comm},
                        [&](Channel& c) {
                          c.q.push_back(
                              PeerInfo{me, w.op_enter, w.op_exit, w.cnode});
                          std::swap(waiter, c.waiter);
                        });
          rt.wire_bytes += kPeerWireBytes;
          ++rt.wpos;
          if (waiter != kNoWaiter) sched.resume(waiter);
          break;
        }
        case EventType::Recv: {
          PeerInfo got;
          bool have = false;
          channels.with(ChannelKey{w.peer, me, w.tag_or_region, w.comm},
                        [&](Channel& c) {
                          if (!c.q.empty()) {
                            got = c.q.front();
                            c.q.pop_front();
                            have = true;
                          } else {
                            c.waiter = ti;
                          }
                        });
          // Suspend *before* consuming: the sender that fills the
          // channel resumes us and the retry is guaranteed to pop.
          if (!have) return StepResult::Suspend;
          rt.records.push_back(P2pRecord{
              P2pSide{got.rank, got.op_enter, got.op_exit, got.cnode,
                      calls.node(got.cnode).region},
              P2pSide{me, w.op_enter, w.op_exit, w.cnode,
                      calls.node(w.cnode).region},
              w.index});
          ++rt.wpos;
          break;
        }
        case EventType::CollExit: {
          const int seq = rt.coll_seq[static_cast<std::size_t>(w.comm)]++;
          const auto& comm = defs.comms[static_cast<std::size_t>(w.comm)];
          bool complete = false;
          std::vector<std::size_t> waiters;
          colls.with(CollKey{w.comm, seq}, [&](CollGroup& g) {
            CollMember m;
            m.rank = me;
            m.enter = w.op_enter;
            m.exit = w.op_exit;
            m.cnode = w.cnode;
            g.members.push_back(m);
            g.root = w.peer;
            g.region = RegionId{w.tag_or_region};
            if (g.members.size() == comm.members.size()) {
              complete = true;
              waiters.swap(g.waiters);
            } else {
              g.waiters.push_back(ti);
            }
          });
          rt.wire_bytes += kPeerWireBytes;
          // Our arrival is recorded either way: advance past the event
          // before suspending so the resumed task does not re-enroll.
          ++rt.wpos;
          if (!complete) return StepResult::Suspend;
          for (const std::size_t wt : waiters) sched.resume(wt);
          break;
        }
        case EventType::Enter:
        case EventType::Exit:
          // Unreachable: windows retain communication events only.
          ++rt.wpos;
          break;
      }
    }
  };

  sched.run(step);

  // Region pass before dispatch — the add order analyze_serial uses —
  // over the window pass's per-rank exclusive times.
  std::vector<ExclusiveTimes> excl_time(n);
  for (std::size_t r = 0; r < n; ++r) excl_time[r] = std::move(tasks[r].excl);
  engine.region_pass(excl_time);

  std::vector<P2pRecord> p2p;
  std::uint64_t wire_total = 0;
  for (RankTask& rt : tasks) {
    p2p.insert(p2p.end(), rt.records.begin(), rt.records.end());
    rt.records = {};
    wire_total += rt.wire_bytes;
  }
  std::vector<CollInstance> instances;
  colls.for_each([&](const CollKey& key, CollGroup& g) {
    CollInstance inst;
    inst.comm = key.comm;
    inst.seq = key.seq;
    inst.members = std::move(g.members);
    inst.root = g.root;
    inst.region = g.region;
    instances.push_back(std::move(inst));
  });
  engine.dispatch(std::move(p2p), std::move(instances), res.stats);

  replay_bytes.add(wire_total);
  res.stats.replay_bytes = replay_bytes.value() - replay_bytes0;
  const SchedulerStats& ss = sched.stats();
  res.stats.replay_workers = ss.workers;
  res.stats.replay_tasks = ss.tasks;
  res.stats.replay_suspensions = ss.suspensions;
  res.stats.replay_steals = ss.steals;
  res.stats.replay_requeues = ss.requeues;
  return res;
}

}  // namespace

AnalysisResult analyze_parallel(const tracing::TraceCollection& tc,
                                const ReplayOptions& opts) {
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_parallel requires synchronized timestamps");
  report::CallTree calls;
  std::vector<RankTask> tasks(tc.ranks.size());
  {
    telemetry::ScopedSpan span("prepare");
    if (telemetry::progress_enabled()) telemetry::progress("prepare", 0.0);
    const auto totals = walk_structure(tc, calls);
    for (std::size_t r = 0; r < tasks.size(); ++r) {
      tasks[r].src.mem = &tc.ranks[r].events;
      tasks[r].walked = totals[r];
    }
    if (telemetry::progress_enabled()) telemetry::progress("prepare", 1.0);
  }
  AnalysisResult res =
      replay(tc, calls, tasks, tracing::QuarantineMask(),
             std::numeric_limits<std::size_t>::max(), nullptr, opts);
  fill_trace_stats(tc.total_events(), tracing::in_memory_bytes(tc),
                   res.stats);
  return res;
}

AnalysisResult analyze_streaming(const tracing::StreamSource& src,
                                 const ReplayOptions& opts) {
  const tracing::TraceCollection& tc = src.defs;
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_streaming requires synchronized timestamps");
  const auto n = static_cast<std::size_t>(tc.num_ranks());
  MSC_CHECK(src.paths.size() == n, "stream source paths/defs mismatch");
  const tracing::QuarantineMask mask(tc, src.quarantined);
  report::CallTree calls;
  std::vector<RankTask> tasks(n);
  Residency residency;

  // Streaming prepare: open every surviving rank's file, then the
  // structure walk over the light columns, ranks in ascending order.
  // Quarantined ranks stay closed and stream zero events.
  {
    telemetry::ScopedSpan span("prepare");
    // Opening + header/type-stream validation is per-rank independent
    // and syscall-heavy (open, mmap, first page faults), so it fans out
    // like read_traces' decode. An open error is stashed, not thrown:
    // the serial walk rethrows it at the rank's slot, so the surfacing
    // rank is the lowest failing one.
    std::vector<std::exception_ptr> open_err(n);
    parallel_for(n, opts.max_workers, [&](std::size_t r) {
      if (mask.rank(static_cast<std::int64_t>(r))) return;
      EventSource& es = tasks[r].src;
      try {
        es.file = MappedFile::open(src.paths[r], src.use_mmap);
        es.ts.emplace(es.file.data(), es.file.size(), src.paths[r]);
      } catch (const Error&) {
        open_err[r] = std::current_exception();
      }
    });
    StructureWalk walk(tc.defs, n, calls);
    for (std::size_t r = 0; r < n; ++r) {
      if (mask.rank(static_cast<std::int64_t>(r))) continue;
      RankTask& rt = tasks[r];
      try {
        if (open_err[r]) std::rethrow_exception(open_err[r]);
        walk.begin(static_cast<Rank>(r));
        rt.src.ts->scan_light([&](tracing::LightEvent le) {
          if (mask.drops(le.type, le.peer)) {
            ++rt.pruned;
            return;
          }
          if (mask.degrades(le.type, le.comm)) {
            le.type = EventType::Exit;
            ++rt.pruned;
          }
          walk.step(le);
        });
        rt.walked = walk.end();
      } catch (const Error& e) {
        throw e.with_context(
            ErrorContext{src.paths[r], static_cast<Rank>(r), -1});
      }
      // Sync records are materialized for the stream's whole lifetime;
      // window bytes come and go on top of this floor.
      rt.sync_bytes =
          rt.src.ts->sync().size() * sizeof(tracing::OffsetRecord);
      rt.resident = rt.sync_bytes;
      residency.adjust(static_cast<std::ptrdiff_t>(rt.resident));
    }
    walk.finish();
  }

  // Window sizing: the budget bounds the bytes of annotated events
  // resident across all ranks at once; the floor of one event per rank
  // keeps a pathological budget from stalling (it degrades to
  // single-event windows instead).
  const std::size_t window_events =
      opts.memory_budget_bytes == 0
          ? kDefaultWindowEvents
          : std::max<std::size_t>(
                1, opts.memory_budget_bytes /
                       (std::max<std::size_t>(n, 1) * sizeof(WinEvent)));
  AnalysisResult res =
      replay(tc, calls, tasks, mask, window_events, &residency, opts);

  std::uint64_t total_events = 0;
  std::uint64_t pruned = 0;
  for (const RankTask& rt : tasks) {
    total_events += rt.walked.events;
    pruned += rt.pruned;
  }
  // The windows' (plus sync records') high-water mark: what the memory
  // budget bounds, not the full collection size.
  fill_trace_stats(total_events, residency.peak(), res.stats);
  if (pruned > 0)
    telemetry::counter("archive.read.pruned_events").add(pruned);
  return res;
}

}  // namespace metascope::analysis
