#include "analysis/prepare.hpp"

#include <sstream>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/span.hpp"

namespace metascope::analysis {

using tracing::Event;
using tracing::EventType;

// --- StructureWalk --------------------------------------------------------

StructureWalk::StructureWalk(const tracing::TraceDefs& defs,
                             std::size_t num_ranks, report::CallTree& calls)
    : defs_(&defs),
      calls_(&calls),
      num_ranks_(num_ranks),
      coll_counts_(defs.comms.size(), std::vector<int>(num_ranks, 0)) {}

void StructureWalk::fail(const std::string& what) const {
  std::ostringstream os;
  os << "malformed trace: rank " << rank_ << " event " << index_ << ": "
     << what;
  throw Error(ErrorCode::Corrupt, os.str(), ErrorContext{"", rank_, -1});
}

void StructureWalk::begin(Rank rank) {
  rank_ = rank;
  index_ = 0;
  ops_ = 0;
  stack_.clear();
}

CallPathId StructureWalk::step(const tracing::LightEvent& e) {
  const auto in_table = [](std::int64_t id, std::size_t size) {
    return id >= 0 && static_cast<std::uint64_t>(id) < size;
  };
  CallPathId entered;
  switch (e.type) {
    case EventType::Enter: {
      if (!in_table(e.region, defs_->regions.size()))
        fail("unknown region id " + std::to_string(e.region));
      const CallPathId parent =
          stack_.empty() ? CallPathId{} : stack_.back().cnode;
      entered = calls_->get_or_add(
          parent, RegionId{static_cast<RegionId::rep_type>(e.region)});
      stack_.push_back(Open{entered, e.time});
      break;
    }
    case EventType::Exit:
    case EventType::CollExit: {
      if (stack_.empty()) fail("Exit without Enter");
      if (e.time - stack_.back().enter_time < 0.0)
        fail("negative region duration");
      stack_.pop_back();
      if (e.type == EventType::CollExit) {
        if (!in_table(e.region, defs_->regions.size()))
          fail("unknown region id " + std::to_string(e.region));
        if (!in_table(e.comm, defs_->comms.size()))
          fail("collective on unknown communicator " +
               std::to_string(e.comm));
        ++coll_counts_[static_cast<std::size_t>(e.comm)]
                      [static_cast<std::size_t>(rank_)];
        ++ops_;
      }
      break;
    }
    case EventType::Send:
    case EventType::Recv: {
      if (stack_.empty()) fail("message event outside any region");
      ++ops_;
      break;
    }
  }
  ++index_;
  return entered;
}

StructureWalk::RankTotals StructureWalk::end() {
  if (!stack_.empty()) fail("unclosed region");
  return RankTotals{index_, ops_};
}

void StructureWalk::finish() const {
  for (std::size_t c = 0; c < defs_->comms.size(); ++c) {
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
  telemetry::counter("prepare.call_paths").add(calls_->size());
}

std::vector<StructureWalk::RankTotals> walk_structure(
    const tracing::TraceCollection& tc, report::CallTree& calls,
    std::vector<std::vector<CallPathId>>* enters) {
  const std::size_t n = tc.ranks.size();
  StructureWalk walk(tc.defs, n, calls);
  std::vector<StructureWalk::RankTotals> totals(n);
  if (enters != nullptr) enters->assign(n, {});
  for (std::size_t r = 0; r < n; ++r) {
    const auto& trace = tc.ranks[r];
    if (trace.rank != static_cast<Rank>(r)) {
      std::ostringstream os;
      os << "malformed trace: rank slot " << r << " holds the trace of rank "
         << trace.rank;
      throw Error(ErrorCode::Corrupt, os.str());
    }
    walk.begin(trace.rank);
    for (const Event& e : trace.events) {
      const CallPathId c = walk.step(tracing::LightEvent{
          e.type, e.time, e.region.get(), e.comm.get(), e.peer});
      if (enters != nullptr && c.valid()) (*enters)[r].push_back(c);
    }
    totals[r] = walk.end();
  }
  walk.finish();
  return totals;
}

// --- prepare (analyze_serial) ----------------------------------------------

PreparedTrace prepare(const tracing::TraceCollection& tc) {
  telemetry::ScopedSpan span("prepare");
  if (telemetry::progress_enabled()) telemetry::progress("prepare", 0.0);
  PreparedTrace out;
  // Pass 1: the structure walk assigns call-path ids and validates, so
  // the annotation pass below runs on validated input and cannot fail.
  // It records the id of each Enter in order; the annotation pass
  // replays the stack from that list without touching the call tree.
  std::vector<std::vector<CallPathId>> enter_cnodes;
  walk_structure(tc, out.calls, &enter_cnodes);
  out.region_table = RegionClassTable(tc.defs.regions);
  out.per_rank.resize(tc.ranks.size());
  out.excl_time.resize(tc.ranks.size());

  // Pass 2: per-event annotation — call-path tags, enclosing-op
  // windows, exclusive times.
  for (std::size_t ri = 0; ri < tc.ranks.size(); ++ri) {
    const auto& trace = tc.ranks[ri];
    const auto& enters = enter_cnodes[ri];
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
    std::size_t next_enter = 0;
    ExclusiveTimes& excl = out.excl_time[ri];

    for (std::uint32_t i = 0; i < n; ++i) {
      const Event& e = trace.events[i];
      switch (e.type) {
        case EventType::Enter: {
          const CallPathId c = enters[next_enter++];
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
