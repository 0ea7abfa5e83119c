#include "analysis/prepare.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/span.hpp"

namespace metascope::analysis {

using tracing::Event;
using tracing::EventType;

// --- StructureWalk --------------------------------------------------------

StructureWalk::StructureWalk(const tracing::TraceDefs& defs,
                             std::size_t num_ranks)
    : defs_(&defs),
      num_ranks_(num_ranks),
      coll_counts_(defs.comms.size(), std::vector<int>(num_ranks, 0)),
      local_(num_ranks) {
  members_.reserve(defs.comms.size());
  for (const auto& c : defs.comms) {
    members_.push_back(c.members);
    std::sort(members_.back().begin(), members_.back().end());
  }
}

StructureWalk::RankWalk::RankWalk(StructureWalk& walk, Rank rank)
    : walk_(&walk),
      rank_(rank),
      tree_(&walk.local_[static_cast<std::size_t>(rank)]) {}

void StructureWalk::RankWalk::fail(const std::string& what) const {
  std::ostringstream os;
  os << "malformed trace: rank " << rank_ << " event " << totals_.events
     << ": " << what;
  throw Error(ErrorCode::Corrupt, os.str(), ErrorContext{"", rank_, -1});
}

StructureWalk::RankWalk StructureWalk::begin(Rank rank) {
  return RankWalk(*this, rank);
}

void StructureWalk::RankWalk::step(const tracing::LightEvent& e) {
  const tracing::TraceDefs& defs = *walk_->defs_;
  const auto in_table = [](std::int64_t id, std::size_t size) {
    return id >= 0 && static_cast<std::uint64_t>(id) < size;
  };
  switch (e.type) {
    case EventType::Enter: {
      if (!in_table(e.region, defs.regions.size()))
        fail("unknown region id " + std::to_string(e.region));
      const CallPathId parent =
          stack_.empty() ? CallPathId{} : stack_.back().cnode;
      stack_.push_back(Open{
          tree_->get_or_add(
              parent, RegionId{static_cast<RegionId::rep_type>(e.region)}),
          e.time});
      break;
    }
    case EventType::Exit:
    case EventType::CollExit: {
      if (stack_.empty()) fail("Exit without Enter");
      if (e.time - stack_.back().enter_time < 0.0)
        fail("negative region duration");
      stack_.pop_back();
      if (e.type == EventType::CollExit) {
        if (!in_table(e.region, defs.regions.size()))
          fail("unknown region id " + std::to_string(e.region));
        if (!in_table(e.comm, defs.comms.size()))
          fail("collective on unknown communicator " +
               std::to_string(e.comm));
        const auto c = static_cast<std::size_t>(e.comm);
        const auto& members = walk_->members_[c];
        if (!std::binary_search(members.begin(), members.end(), rank_))
          fail("collective on communicator " + std::to_string(e.comm) +
               ", which does not list the rank");
        ++walk_->coll_counts_[c][static_cast<std::size_t>(rank_)];
        ++totals_.ops;
      }
      break;
    }
    case EventType::Send:
    case EventType::Recv: {
      if (stack_.empty()) fail("message event outside any region");
      ++(e.type == EventType::Send ? totals_.sends : totals_.recvs);
      ++totals_.ops;
      break;
    }
  }
  ++totals_.events;
}

StructureWalk::RankTotals StructureWalk::RankWalk::end() {
  if (!stack_.empty()) fail("unclosed region");
  return totals_;
}

std::vector<StructureWalk::RankTotals> StructureWalk::run(
    std::size_t max_workers, report::CallTree& calls,
    const std::function<RankTotals(std::size_t, StructureWalk&)>&
        walk_rank) {
  std::vector<RankTotals> totals(num_ranks_);
  parallel_for(num_ranks_, max_workers,
               [&](std::size_t r) { totals[r] = walk_rank(r, *this); });
  finish(calls);
  return totals;
}

std::vector<StructureWalk::RankTotals> StructureWalk::run(
    const tracing::TraceCollection& tc, std::size_t max_workers,
    report::CallTree& calls) {
  return run(max_workers, calls, [&](std::size_t r, StructureWalk& walk) {
    const auto& trace = tc.ranks[r];
    if (trace.rank != static_cast<Rank>(r)) {
      std::ostringstream os;
      os << "malformed trace: rank slot " << r << " holds the trace of rank "
         << trace.rank;
      throw Error(ErrorCode::Corrupt, os.str());
    }
    RankWalk w = walk.begin(trace.rank);
    for (const Event& e : trace.events)
      w.step(tracing::LightEvent{e.type, e.time, e.region.get(), e.comm.get(),
                                 e.peer});
    return w.end();
  });
}

void StructureWalk::finish(report::CallTree& calls) {
  // Rank order, each rank's paths in its first-appearance order: the
  // order a serial walk would have created them in.
  std::vector<CallPathId> global;
  for (report::CallTree& tree : local_) {
    global.resize(tree.size());
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const report::CallPathNode& n = tree.node(CallPathId{static_cast<int>(i)});
      global[i] = calls.get_or_add(
          n.parent.valid() ? global[static_cast<std::size_t>(n.parent.get())]
                           : CallPathId{},
          n.region);
    }
    tree = report::CallTree();
  }
  for (std::size_t c = 0; c < defs_->comms.size(); ++c) {
    // A rank listed twice would leave one of its instance slots empty.
    const auto& sorted = members_[c];
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      std::ostringstream os;
      os << "malformed definitions: communicator " << c << " lists rank "
         << *dup << " twice";
      throw Error(ErrorCode::Corrupt, os.str(), ErrorContext{"", *dup, -1});
    }
    const auto& members = defs_->comms[c].members;
    const auto& counts = coll_counts_[c];
    for (const Rank r : members) {
      if (r < 0 || static_cast<std::size_t>(r) >= num_ranks_) {
        std::ostringstream os;
        os << "malformed definitions: communicator " << c
           << " lists unknown rank " << r;
        throw Error(ErrorCode::Corrupt, os.str());
      }
      const int expected = counts[static_cast<std::size_t>(members.front())];
      if (counts[static_cast<std::size_t>(r)] != expected) {
        std::ostringstream os;
        os << "incomplete collective instance in trace: rank " << r
           << " recorded " << counts[static_cast<std::size_t>(r)]
           << " collectives on communicator " << c << " but rank "
           << members.front() << " recorded " << expected;
        throw Error(ErrorCode::Corrupt, os.str(), ErrorContext{"", r, -1});
      }
    }
  }
  telemetry::counter("prepare.ranks").add(num_ranks_);
  telemetry::counter("prepare.call_paths").add(calls.size());
}

int StructureWalk::instances(std::size_t c) const {
  const auto& members = defs_->comms[c].members;
  return members.empty()
             ? 0
             : coll_counts_[c][static_cast<std::size_t>(members.front())];
}

// --- prepare (analyze_serial) ----------------------------------------------

PreparedTrace prepare(const tracing::TraceCollection& tc) {
  telemetry::ScopedSpan span("prepare");
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 0.0);
  PreparedTrace out;
  // Pass 1: the structure walk assigns call-path ids and validates, so
  // the annotation pass below runs on validated input and cannot fail.
  StructureWalk(tc.defs, tc.ranks.size()).run(tc, 1, out.calls);
  out.region_table = RegionClassTable(tc.defs.regions);
  out.per_rank.resize(tc.ranks.size());
  out.excl_time.resize(tc.ranks.size());

  // Pass 2: per-event annotation — call-path tags, enclosing-op
  // windows, exclusive times.
  for (std::size_t ri = 0; ri < tc.ranks.size(); ++ri) {
    const auto& trace = tc.ranks[ri];
    auto& ann = out.per_rank[ri];
    const std::size_t n = trace.events.size();
    ann.cnode.assign(n, CallPathId{});
    ann.op_enter.assign(n, 0.0);
    ann.op_exit.assign(n, 0.0);

    struct Frame {
      CallPathId cnode;
      double enter_time;
      double child_time;
      std::uint32_t first_event;  ///< first event index in this frame
    };
    std::vector<Frame> stack;
    std::vector<bool> op_filled(n, false);
    ExclusiveTimes& excl = out.excl_time[ri];

    for (std::uint32_t i = 0; i < n; ++i) {
      const Event& e = trace.events[i];
      switch (e.type) {
        case EventType::Enter: {
          const CallPathId c = out.calls.find(
              stack.empty() ? CallPathId{} : stack.back().cnode, e.region);
          stack.push_back(Frame{c, e.time, 0.0, i + 1});
          ann.cnode[i] = c;
          break;
        }
        case EventType::Exit:
        case EventType::CollExit: {
          Frame f = stack.back();
          stack.pop_back();
          ann.cnode[i] = f.cnode;
          const double dur = e.time - f.enter_time;
          excl[f.cnode.get()] += dur - f.child_time;
          if (!stack.empty()) stack.back().child_time += dur;
          // Backfill enclosing-op times for the events inside this
          // frame (Send/Recv live directly inside their MPI call frame).
          for (std::uint32_t k = f.first_event; k < i; ++k) {
            if ((trace.events[k].type == EventType::Send ||
                 trace.events[k].type == EventType::Recv) &&
                !op_filled[k]) {
              ann.op_enter[k] = f.enter_time;
              ann.op_exit[k] = e.time;
              op_filled[k] = true;
            }
          }
          if (e.type == EventType::CollExit) {
            ann.op_enter[i] = f.enter_time;
            ann.op_exit[i] = e.time;
          }
          break;
        }
        case EventType::Send:
        case EventType::Recv: {
          ann.cnode[i] = stack.back().cnode;
          break;
        }
      }
    }
  }
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 1.0);
  return out;
}

}  // namespace metascope::analysis
