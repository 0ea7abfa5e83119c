// The replay: SCALASCA-style parallel trace analysis (paper §4) on a
// bounded worker pool. Every application rank is replayed from its own
// local trace only, through a per-rank event source:
//
//  - analyze_parallel: the borrowed LocalTrace::events vector — one
//    chunk that is already decoded, so no copy and no decode;
//  - analyze_streaming: a tracing::TraceStream over the rank's v3 block,
//    with only the pages of that block mapped, decoded chunk by chunk,
//    so peak trace-resident memory is ~ budget instead of ~ trace size.
//
// The replay only *pairs* events: the i-th Send on a channel (src, dst,
// tag, comm) with the i-th Recv on it — MPI's non-overtaking order —
// and every CollExit with its instance (comm, seq). That pairing is
// fixed by the traces alone, so no rank ever waits for another. It runs
// as two parallel_for passes over the ranks, with no locks:
//
//  - scan (one item per rank): the rank annotates its events — call-path
//    tags via CallTree::find against the structure walk's tree,
//    enclosing-op windows, exclusive times — and writes each Send, with
//    its channel, into its slice of the send slots; each Recv as a
//    P2pRecord with its receive side filled into the rank's slice of
//    the record array, plus its channel into its slice of the receive
//    slots; and each collective arrival into its instance's member slot
//    (comm, seq, position in the rank-sorted members). Every slice is
//    sized exactly from the structure walk's counts. The rank then
//    stable-sorts its send and receive slots by channel, which puts each
//    channel's events together in trace order, and releases its window,
//    decode buffer and mapping;
//  - join (one item per rank): each receive channel takes its sender's
//    slots on that channel in order, filling the send side of the
//    records. A
//    channel whose two sides counted differently is an unmatched Send
//    (reported by the sender) or an unmatched Recv (reported by the
//    receiver): a typed ErrorCode::Corrupt naming the rank and the
//    channel. parallel_for rethrows the lowest failing rank's error, so
//    the error never depends on the worker count.
//
// An in-memory trace is one window. A v3 window nominally holds a number
// of annotated events derived from the memory budget and extends only
// while a Send/Recv in it still awaits its enclosing call's exit.
//
// Pattern evaluation happens afterwards in the pattern engine's
// canonical dispatch order, which is what makes the cube bit-identical
// to analyze_serial for any worker count, window size and schedule.
//
// Permissive v3 sources (StreamSource::quarantined) are filtered on the
// fly through the tracing::QuarantineMask that prune_quarantined uses.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "tracing/stream.hpp"

namespace metascope::analysis {

using tracing::Event;
using tracing::EventType;

namespace {

/// Bytes one replay side shares with its peer per Send or collective
/// arrival, when packed: rank (4) + two timestamps (16) + cnode (4).
constexpr std::size_t kPeerWireBytes = 24;
/// Window size (entries per rank) for a v3 source without a memory
/// budget. An in-memory trace is one chunk and one window: it is
/// resident anyway.
constexpr std::size_t kDefaultWindowEvents = 4096;
/// Decode granularity of a v3 source: events pulled from the column
/// cursors per call. Bounded so the decode buffer stays small next to
/// tiny windows.
constexpr std::size_t kMaxDecodeChunk = 256;

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
  /// v3: the mapped block and its windowed cursor (nullopt for a
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

/// Everything one rank owns during the scan: its event source, the
/// annotation state bridging windows, and the current window.
struct RankTask {
  EventSource src;

  // Annotation state, persistent across windows.
  std::vector<Frame> stack;
  std::size_t open_ops{0};      ///< open Send/Recv in the current window
  ExclusiveTimes excl;
  std::uint32_t next_index{0};  ///< filtered-stream position

  // Current window.
  std::vector<WinEvent> win;
  std::uint32_t windows_filled{0};
  std::size_t sync_bytes{0};  ///< v3: always-materialized sync records
  std::size_t resident{0};    ///< v3: bytes this rank currently accounts

  // From the structure walk.
  StructureWalk::RankTotals walked;
  std::uint64_t pruned{0};  ///< v3: events the quarantine filter dropped
};

// The slot types below are trivially constructible: the slot arrays are
// allocated uninitialized, so each rank's scan worker touches the pages
// of its own slice first, in parallel, rather than the calling thread
// zeroing every slot up front. `peer`, `tag` and `comm` name a message's
// channel as seen from its own rank: the peer is the destination of a
// Send, the source of a Recv.

/// A Send waiting for the join: its channel and the sender's part of the
/// P2pRecord.
struct SendSlot {
  double op_enter;
  double op_exit;
  CallPathId::rep_type cnode;
  Rank peer;
  int tag;
  int comm;
};

/// A Recv waiting for the join: its channel, and `pos`, its position
/// among the rank's receives (= its record in the rank's slice).
struct RecvSlot {
  Rank peer;
  int tag;
  int comm;
  std::uint32_t pos;
};

template <typename Slot>
bool channel_less(const Slot& a, const Slot& b) {
  return std::tie(a.peer, a.tag, a.comm) < std::tie(b.peer, b.tag, b.comm);
}

/// Every rank's slots of one kind, laid out rank after rank: rank r's
/// are [base[r], base[r + 1]). After the scan each rank's slice is
/// sorted by channel, each channel's slots in trace order.
template <typename Slot>
struct Slots {
  std::vector<std::size_t> base;
  std::unique_ptr<Slot[]> slots;

  /// From each rank's slot count.
  explicit Slots(std::vector<std::size_t> counts) : base(std::move(counts)) {
    std::size_t total = 0;
    for (std::size_t& b : base) total += std::exchange(b, total);
    base.push_back(total);
    slots = std::make_unique_for_overwrite<Slot[]>(total);
  }
  [[nodiscard]] std::size_t size() const { return base.back(); }
  [[nodiscard]] Slot* begin(std::size_t rank) const {
    return slots.get() + base[rank];
  }
  [[nodiscard]] Slot* end(std::size_t rank) const {
    return slots.get() + base[rank + 1];
  }
  /// `rank`'s slots on channel (peer, tag, comm), in trace order; empty
  /// for a rank outside the collection.
  [[nodiscard]] std::pair<const Slot*, const Slot*> channel(Rank rank,
                                                            Rank peer, int tag,
                                                            int comm) const {
    if (rank < 0 || static_cast<std::size_t>(rank) + 1 >= base.size())
      return {nullptr, nullptr};
    Slot key{};
    key.peer = peer;
    key.tag = tag;
    key.comm = comm;
    const auto r = static_cast<std::size_t>(rank);
    return std::equal_range<const Slot*>(begin(r), end(r), key,
                                         channel_less<Slot>);
  }
};

/// `rank`'s side of channel (peer, tag, comm) counted more events than
/// the other side.
[[noreturn]] void unmatched(Rank rank, bool send, Rank peer, int tag,
                            int comm, std::size_t sends, std::size_t recvs) {
  const Rank src = send ? rank : peer;
  const Rank dst = send ? peer : rank;
  std::ostringstream os;
  os << "malformed trace: rank " << rank << ": unmatched "
     << (send ? "Send" : "Recv") << " on channel " << src << " -> " << dst
     << " tag " << tag << " communicator " << comm << " (" << sends
     << " sent, " << recvs << " received)";
  throw Error(ErrorCode::Corrupt, os.str(), ErrorContext{"", rank, -1});
}

/// The replay over prepared rank tasks: installs the cube, runs the scan
/// and join passes, then the region pass and the canonical dispatch.
/// `residency` is set for a v3 source only: it turns on the
/// resident-bytes ledger and the window counter. Fills the match and
/// pool stats; trace-volume stats are the caller's.
AnalysisResult replay(const tracing::TraceCollection& tc,
                      const report::CallTree& calls,
                      const StructureWalk& walk, std::vector<RankTask>& tasks,
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
  // window is complete before the scan consumes the event.
  auto fill_window = [&](RankTask& rt) {
    rt.win.clear();
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
  // Every slot is sized exactly from the structure walk's counts.
  std::vector<std::size_t> sends(n);
  std::vector<std::size_t> recvs(n);
  for (std::size_t r = 0; r < n; ++r) {
    sends[r] = tasks[r].walked.sends;
    recvs[r] = tasks[r].walked.recvs;
  }
  Slots<SendSlot> send_slots(std::move(sends));
  Slots<RecvSlot> recv_slots(std::move(recvs));
  const std::uint64_t total_sends = send_slots.size();
  // One record per Recv, rank after rank. P2pRecord's member
  // initializers rule out make_unique_for_overwrite, so the array is
  // allocated unconstructed: each scan worker constructs its rank's
  // records in place and so first-touches their pages, as with the slot
  // arrays. Every record is constructed before dispatch reads it (the
  // scan checks each rank's count), and none needs destroying.
  static_assert(std::is_trivially_destructible_v<P2pRecord>);
  const std::size_t num_records = recv_slots.size();
  std::allocator<P2pRecord> record_alloc;
  const auto free_records = [&](P2pRecord* p) {
    record_alloc.deallocate(p, num_records);
  };
  const std::unique_ptr<P2pRecord, decltype(free_records)> records(
      record_alloc.allocate(num_records), free_records);
  P2pRecord* const p2p = records.get();
  // Instances in (comm, seq) order, members in rank order.
  std::vector<std::size_t> inst_base(defs.comms.size() + 1, 0);
  std::uint64_t arrivals = 0;
  for (std::size_t c = 0; c < defs.comms.size(); ++c) {
    const auto count = static_cast<std::size_t>(walk.instances(c));
    inst_base[c + 1] = inst_base[c] + count;
    arrivals += count * walk.members(c).size();
  }
  std::vector<CollInstance> instances(inst_base.back());
  for (std::size_t c = 0; c < defs.comms.size(); ++c) {
    for (std::size_t k = inst_base[c]; k < inst_base[c + 1]; ++k) {
      CollInstance& inst = instances[k];
      inst.comm = static_cast<int>(c);
      inst.seq = static_cast<int>(k - inst_base[c]);
      inst.members.resize(walk.members(c).size());
    }
  }

  telemetry::RecordingObserver rec_obs(
      "replay", telemetry::RecordingObserver::fanout_stride(n));
  std::atomic<std::size_t> scanned{0};
  ParallelForStats scan_stats;
  {
    telemetry::ScopedSpan span("scan");
    scan_stats = parallel_for(
        n, opts.max_workers,
        [&](std::size_t r) {
          const auto me = static_cast<Rank>(r);
          RankTask& rt = tasks[r];
          std::size_t ks = send_slots.base[r];
          std::size_t kr = recv_slots.base[r];
          std::vector<int> coll_seq(defs.comms.size(), 0);
          for (fill_window(rt); !rt.win.empty(); fill_window(rt)) {
            ++rt.windows_filled;
            for (const WinEvent& w : rt.win) {
              switch (w.type) {
                case EventType::Send:
                  MSC_CHECK(ks < send_slots.base[r + 1],
                            "scan met more sends than the structure walk");
                  send_slots.slots[ks++] =
                      SendSlot{w.op_enter,      w.op_exit, w.cnode.get(),
                               w.peer,          w.tag_or_region, w.comm};
                  break;
                case EventType::Recv:
                  MSC_CHECK(kr < recv_slots.base[r + 1],
                            "scan met more receives than the structure "
                            "walk");
                  std::construct_at(p2p + kr, P2pRecord{
                      P2pSide{w.peer, 0.0, 0.0, CallPathId{}, RegionId{}},
                      P2pSide{me, w.op_enter, w.op_exit, w.cnode,
                              calls.node(w.cnode).region},
                      w.index});
                  recv_slots.slots[kr] =
                      RecvSlot{w.peer, w.tag_or_region, w.comm,
                               static_cast<std::uint32_t>(
                                   kr - recv_slots.base[r])};
                  ++kr;
                  break;
                case EventType::CollExit: {
                  const auto c = static_cast<std::size_t>(w.comm);
                  const auto seq = static_cast<std::size_t>(coll_seq[c]++);
                  MSC_CHECK(seq < inst_base[c + 1] - inst_base[c],
                            "scan met more collectives than the structure "
                            "walk");
                  CollInstance& inst = instances[inst_base[c] + seq];
                  const auto& members = walk.members(c);
                  const auto pos = static_cast<std::size_t>(
                      std::lower_bound(members.begin(), members.end(), me) -
                      members.begin());
                  inst.members[pos] =
                      CollMember{me, w.op_enter, w.op_exit, w.cnode};
                  // One writer per instance: its highest-ranked member,
                  // whose root and region analyze_serial keeps too.
                  if (pos + 1 == members.size()) {
                    inst.root = w.peer;
                    inst.region = RegionId{w.tag_or_region};
                  }
                  break;
                }
                case EventType::Enter:
                case EventType::Exit:
                  break;  // windows retain communication events only
              }
            }
          }
          // Fully consumed. For a v3 source, release the last resident
          // bytes and flush this rank's window tally in one add. Unmap
          // here, on the worker, so munmaps overlap the ranks still
          // scanning. The cursor borrows the mapping's bytes, so it goes
          // first.
          if (residency != nullptr) {
            residency->adjust(-static_cast<std::ptrdiff_t>(rt.resident));
            windows_counter->add(rt.windows_filled);
          }
          rt.resident = 0;
          rt.win = {};
          rt.src.ts.reset();
          rt.src.file = MappedFile();
          rt.src.buf = {};
          MSC_CHECK(ks == send_slots.base[r + 1] &&
                        kr == recv_slots.base[r + 1],
                    "scan met fewer messages than the structure walk");
          std::stable_sort(send_slots.begin(r), send_slots.end(r),
                           channel_less<SendSlot>);
          std::stable_sort(recv_slots.begin(r), recv_slots.end(r),
                           channel_less<RecvSlot>);
          const std::size_t done = scanned.fetch_add(1) + 1;
          if (telemetry::progress_enabled())
            telemetry::progress("replay", static_cast<double>(done) /
                                              static_cast<double>(n));
        },
        &rec_obs);
  }

  ParallelForStats join_stats;
  {
    telemetry::ScopedSpan span("join");
    join_stats = parallel_for(
        n, opts.max_workers,
        [&](std::size_t r) {
          const auto me = static_cast<Rank>(r);
          // Receive side: the i-th Recv on a channel takes the i-th Send.
          const RecvSlot* recv_end = recv_slots.end(r);
          for (const RecvSlot* g = recv_slots.begin(r); g != recv_end;) {
            const RecvSlot* g_end = std::upper_bound(
                g, recv_end, *g, channel_less<RecvSlot>);
            const auto [s_lo, s_hi] =
                send_slots.channel(g->peer, me, g->tag, g->comm);
            const auto got = static_cast<std::size_t>(g_end - g);
            const auto sent = static_cast<std::size_t>(s_hi - s_lo);
            if (got > sent)
              unmatched(me, false, g->peer, g->tag, g->comm, sent, got);
            for (std::size_t i = 0; i < got; ++i) {
              const SendSlot& h = s_lo[i];
              const CallPathId cnode{h.cnode};
              p2p[recv_slots.base[r] + g[i].pos].send =
                  P2pSide{g->peer, h.op_enter, h.op_exit, cnode,
                          calls.node(cnode).region};
            }
            g = g_end;
          }
          // Send side: a channel that sent more than its receiver took.
          const SendSlot* send_end = send_slots.end(r);
          for (const SendSlot* g = send_slots.begin(r); g != send_end;) {
            const SendSlot* g_end = std::upper_bound(
                g, send_end, *g, channel_less<SendSlot>);
            const auto [r_lo, r_hi] =
                recv_slots.channel(g->peer, me, g->tag, g->comm);
            const auto sent = static_cast<std::size_t>(g_end - g);
            const auto got = static_cast<std::size_t>(r_hi - r_lo);
            if (sent > got)
              unmatched(me, true, g->peer, g->tag, g->comm, sent, got);
            g = g_end;
          }
        },
        &rec_obs);
  }
  // The slots are spent: free them before dispatch.
  send_slots.slots.reset();
  recv_slots.slots.reset();

  // Region pass before dispatch — the add order analyze_serial uses —
  // over the scan's per-rank exclusive times.
  std::vector<ExclusiveTimes> excl_time(n);
  for (std::size_t r = 0; r < n; ++r) excl_time[r] = std::move(tasks[r].excl);
  engine.region_pass(excl_time);
  engine.dispatch(std::span<P2pRecord>(p2p, num_records),
                  std::move(instances), res.stats);

  // Wire volume: what a message-passing replay ships per Send and per
  // collective arrival. Registry-backed, like every AnalysisStats
  // counter: the per-run figure is the end-minus-start delta.
  telemetry::Counter& replay_bytes = telemetry::counter("replay.bytes");
  const std::uint64_t replay_bytes0 = replay_bytes.value();
  replay_bytes.add(kPeerWireBytes * (total_sends + arrivals));
  res.stats.replay_bytes = replay_bytes.value() - replay_bytes0;
  res.stats.replay_workers = scan_stats.workers;
  res.stats.replay_tasks = n;
  res.stats.replay_steals = scan_stats.steals + join_stats.steals;
  telemetry::gauge("replay.workers")
      .set(static_cast<double>(scan_stats.workers));
  telemetry::counter("replay.tasks").add(n);
  telemetry::counter("replay.steals").add(res.stats.replay_steals);
  return res;
}

}  // namespace

AnalysisResult analyze_parallel(const tracing::TraceCollection& tc,
                                const ReplayOptions& opts) {
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_parallel requires synchronized timestamps");
  report::CallTree calls;
  StructureWalk walk(tc.defs, tc.ranks.size());
  std::vector<RankTask> tasks(tc.ranks.size());
  {
    telemetry::ScopedSpan span("prepare");
    if (telemetry::progress_enabled()) telemetry::progress("prepare", 0.0);
    const auto totals = walk.run(tc, opts.max_workers, calls);
    for (std::size_t r = 0; r < tasks.size(); ++r) {
      tasks[r].src.mem = &tc.ranks[r].events;
      tasks[r].walked = totals[r];
    }
    if (telemetry::progress_enabled()) telemetry::progress("prepare", 1.0);
  }
  AnalysisResult res =
      replay(tc, calls, walk, tasks, tracing::QuarantineMask(),
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
  MSC_CHECK(src.blocks.size() == n, "stream source blocks/defs mismatch");
  const tracing::QuarantineMask mask(tc, src.quarantined);
  report::CallTree calls;
  std::vector<RankTask> tasks(n);
  Residency residency;

  // Streaming prepare, one item per rank: map the rank's block, then
  // walk its light columns. Quarantined ranks stay closed and stream
  // zero events.
  StructureWalk walk(tc.defs, n);
  {
    telemetry::ScopedSpan span("prepare");
    const auto totals = walk.run(
        opts.max_workers, calls,
        [&](std::size_t r, StructureWalk& w) -> StructureWalk::RankTotals {
          if (mask.rank(static_cast<std::int64_t>(r))) return {};
          RankTask& rt = tasks[r];
          const tracing::TraceBlock& b = src.blocks[r];
          try {
            rt.src.file =
                MappedFile::open(b.path, b.offset, b.length, src.use_mmap);
            rt.src.ts.emplace(rt.src.file.data(), rt.src.file.size(), b.path,
                              b.offset);
            StructureWalk::RankWalk rw = w.begin(static_cast<Rank>(r));
            rt.src.ts->scan_light([&](tracing::LightEvent le) {
              if (mask.drops(le.type, le.peer)) {
                ++rt.pruned;
                return;
              }
              if (mask.degrades(le.type, le.comm)) {
                le.type = EventType::Exit;
                ++rt.pruned;
              }
              rw.step(le);
            });
            const StructureWalk::RankTotals t = rw.end();
            // Sync records are materialized for the stream's whole
            // lifetime; window bytes come and go on top of this floor.
            rt.sync_bytes =
                rt.src.ts->sync().size() * sizeof(tracing::OffsetRecord);
            rt.resident = rt.sync_bytes;
            residency.adjust(static_cast<std::ptrdiff_t>(rt.resident));
            return t;
          } catch (const Error& e) {
            throw e.with_context(ErrorContext{b.path, static_cast<Rank>(r), -1});
          }
        });
    for (std::size_t r = 0; r < n; ++r) tasks[r].walked = totals[r];
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
      replay(tc, calls, walk, tasks, mask, window_events, &residency, opts);

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
