#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "common/error.hpp"
#include "telemetry/span.hpp"
#include "tracing/matching.hpp"

namespace metascope::analysis {

AnalysisResult analyze_serial(const tracing::TraceCollection& tc,
                              const ReplayOptions& opts) {
  MSC_CHECK(tc.synchronized || tc.scheme == tracing::SyncScheme::None,
            "analyze_serial requires synchronized timestamps");
  AnalysisResult res;
  // The serial analyzer is the single-threaded reference (and the
  // baseline benches compare against): its prepare runs the shared
  // structure walk, then its own annotation on the calling thread.
  const PreparedTrace prep = prepare(tc);
  PatternRegistry registry = PatternRegistry::standard();
  registry.select(opts.patterns);
  PatternEngine engine(registry, res.cube);
  res.patterns = engine.install(tc, prep.calls, prep.region_table);
  engine.region_pass(prep.excl_time);

  // Post-mortem matching resolves both sides of every message; the
  // collective grouping walks each rank's op events once. Evaluation
  // order is the pattern engine's canonical order, shared with the
  // parallel analyzer. The span carries the same "replay" name as the
  // parallel analyzer's: it is the same pipeline stage, differently
  // implemented.
  telemetry::ScopedSpan replay_span("replay");
  const auto pairs = tracing::match_messages(tc);
  std::vector<P2pRecord> p2p;
  p2p.reserve(pairs.size());
  for (const auto& p : pairs)
    p2p.push_back(P2pRecord{make_side(prep, p.send.rank, p.send.index),
                            make_side(prep, p.recv.rank, p.recv.index),
                            p.recv.index});

  engine.dispatch(p2p, group_collectives(tc, prep), res.stats);
  fill_trace_stats(tc.total_events(), tracing::in_memory_bytes(tc),
                   res.stats);
  return res;
}

}  // namespace metascope::analysis
