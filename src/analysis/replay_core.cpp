#include "analysis/replay_core.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace metascope::analysis {

using tracing::EventType;

P2pSide make_side(const PreparedTrace& prep, Rank rank, std::uint32_t index) {
  const auto& ann = prep.per_rank[static_cast<std::size_t>(rank)];
  P2pSide s;
  s.rank = rank;
  s.op_enter = ann.op_enter[index];
  s.op_exit = ann.op_exit[index];
  s.cnode = ann.cnode[index];
  s.region = prep.calls.node(s.cnode).region;
  return s;
}

std::vector<CollInstance> group_collectives(const tracing::TraceCollection& tc,
                                            const PreparedTrace& prep) {
  std::vector<CollInstance> out;
  // (comm, seq) packed into one word -> index into `out`.
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::vector<int> coll_seq(tc.defs.comms.size());
  for (const auto& trace : tc.ranks) {
    const auto ri = static_cast<std::size_t>(trace.rank);
    const auto& ann = prep.per_rank[ri];
    std::fill(coll_seq.begin(), coll_seq.end(), 0);
    for (std::uint32_t i = 0; i < trace.events.size(); ++i) {
      const auto& e = trace.events[i];
      if (e.type != EventType::CollExit) continue;
      const int comm = e.comm.get();
      const int seq = coll_seq[static_cast<std::size_t>(comm)]++;
      const std::uint64_t key = (static_cast<std::uint64_t>(
                                     static_cast<std::uint32_t>(comm))
                                 << 32) |
                                static_cast<std::uint32_t>(seq);
      auto [it, fresh] = index.try_emplace(key, out.size());
      if (fresh) {
        out.emplace_back();
        out.back().comm = comm;
        out.back().seq = seq;
      }
      CollInstance& inst = out[it->second];
      CollMember m;
      m.rank = trace.rank;
      m.enter = ann.op_enter[i];
      m.exit = ann.op_exit[i];
      m.cnode = ann.cnode[i];
      inst.members.push_back(m);
      inst.root = e.root;
      inst.region = e.region;
    }
  }
  return out;
}

void fill_trace_stats(std::size_t events, std::size_t resident_bytes,
                      AnalysisStats& stats) {
  stats.events = events;
  stats.trace_bytes_in_memory = resident_bytes;
  telemetry::counter("analysis.events").add(stats.events);
  telemetry::counter("analysis.trace_bytes_in_memory")
      .add(stats.trace_bytes_in_memory);
}

}  // namespace metascope::analysis
