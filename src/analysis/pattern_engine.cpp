#include "analysis/pattern_engine.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace metascope::analysis {

// --- PatternSink ---------------------------------------------------------

PatternSink::PatternSink(report::Cube& cube, std::size_t num_detectors)
    : cube_(&cube), tallies_(num_detectors) {}

void PatternSink::base_time(MetricId metric, CallPathId cnode, Rank rank,
                            double seconds) {
  cube_->add(metric, cnode, rank, seconds);
  Tally& t = tallies_[current_];
  t.hits += 1;
  t.seconds += seconds;
}

void PatternSink::severity(MetricId metric, MetricId category,
                           CallPathId cnode, Rank rank, double seconds,
                           MetahostId waiter_mh, MetahostId peer_mh) {
  if (seconds <= 0.0) return;
  cube_->add(metric, cnode, rank, seconds);
  cube_->add(category, cnode, rank, -seconds);
  cube_->add_pair_breakdown(metric, waiter_mh, peer_mh, seconds);
  Tally& t = tallies_[current_];
  t.hits += 1;
  t.seconds += seconds;
}

// --- PatternDetector -----------------------------------------------------

void PatternDetector::bind(const report::MetricTree& tree) {
  const MetricNodeSpec& n = spec().node;
  if (!n.name.empty()) metric_ = tree.find(n.name);
  if (!n.grid_name.empty() && tree.contains(n.grid_name))
    grid_metric_ = tree.find(n.grid_name);
  if (!n.parent.empty() && tree.contains(n.parent))
    category_ = tree.find(n.parent);
}

void PatternDetector::region_enter(const RegionCtx&, PatternSink&) {}
void PatternDetector::region_exit(const RegionCtx&, PatternSink&) {}
void PatternDetector::p2p_matched(const P2pCtx&, PatternSink&) {}
void PatternDetector::collective_completed(const CollCtx&, PatternSink&) {}
void PatternDetector::finalize(PatternSink&) {}

// --- PatternRegistry -----------------------------------------------------

void PatternRegistry::add(std::unique_ptr<PatternDetector> detector) {
  detectors_.push_back(std::move(detector));
  enabled_.push_back(true);
}

void PatternRegistry::select(const std::vector<std::string>& keys) {
  if (keys.empty()) return;
  for (const std::string& key : keys) {
    bool known = false;
    for (const auto& d : detectors_)
      if (d->spec().key == key && !d->spec().structural) known = true;
    if (!known) {
      std::ostringstream os;
      os << "unknown pattern key '" << key << "'; valid keys:";
      for (const auto& d : detectors_)
        if (!d->spec().structural) os << " " << d->spec().key;
      throw Error(os.str());
    }
  }
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    const DetectorSpec& s = detectors_[i]->spec();
    enabled_[i] = s.structural ||
                  std::find(keys.begin(), keys.end(), s.key) != keys.end();
  }
}

std::vector<PatternRegistry::Entry> PatternRegistry::entries() const {
  std::vector<Entry> out;
  out.reserve(detectors_.size());
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    const DetectorSpec& s = detectors_[i]->spec();
    out.push_back(Entry{s.key, s.node.name, s.node.description,
                        s.structural, enabled_[i]});
  }
  return out;
}

void PatternRegistry::install(report::MetricTree& tree) {
  // The category skeleton always exists: the structural time partition
  // accumulates into it whether or not any wait detector is enabled.
  const MetricId time = tree.add("Time", "Total execution time");
  const MetricId mpi = tree.add("MPI", "Time spent in MPI calls", time);
  const MetricId comm =
      tree.add("Communication", "MPI communication", mpi);
  tree.add("Point-to-point", "Point-to-point communication", comm);
  tree.add("Collective", "Collective communication", comm);
  tree.add("Synchronization", "MPI synchronization", mpi);

  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    if (!enabled_[i]) continue;
    const MetricNodeSpec& n = detectors_[i]->spec().node;
    if (n.name.empty()) continue;
    MSC_CHECK(n.parent.empty() || tree.contains(n.parent),
              "pattern '" + n.name + "' declares unknown parent metric '" +
                  n.parent + "'");
    const MetricId parent =
        n.parent.empty() ? MetricId{} : tree.find(n.parent);
    const MetricId base = tree.add(n.name, n.description, parent);
    if (!n.grid_name.empty())
      tree.add(n.grid_name, n.grid_description, base);
  }

  for (std::size_t i = 0; i < detectors_.size(); ++i)
    if (enabled_[i]) detectors_[i]->bind(tree);
}

// --- PatternEngine -------------------------------------------------------

PatternEngine::PatternEngine(PatternRegistry& registry, report::Cube& cube)
    : registry_(&registry), cube_(&cube), sink_(cube, registry.size()) {
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (!registry.is_enabled(i)) continue;
    PatternDetector& d = registry.detector(i);
    const unsigned mask = d.spec().callbacks;
    if (mask & kOnRegion) on_region_.push_back(Sub{i, &d});
    if (mask & kOnP2p) on_p2p_.push_back(Sub{i, &d});
    if (mask & kOnCollective) on_coll_.push_back(Sub{i, &d});
    if (mask & kOnFinalize) on_final_.push_back(Sub{i, &d});
  }
}

PatternSet PatternEngine::install(const tracing::TraceCollection& tc,
                                  const report::CallTree& calls,
                                  const RegionClassTable& region_table) {
  tc_ = &tc;
  region_table_ = &region_table;
  registry_->install(cube_->metrics);
  cube_->calls = calls;
  cube_->regions = tc.defs.regions;
  cube_->system = tc.defs;
  return PatternSet::from_tree(cube_->metrics);
}

void PatternEngine::region_pass(
    const std::vector<ExclusiveTimes>& excl_time) {
  MSC_CHECK(tc_ != nullptr, "PatternEngine::region_pass before install");
  // Region pass: per-cnode categories from the class table (indexed
  // loads, no strings), then ranks ascending, call paths in id order —
  // exactly the pre-engine base accumulation's add sequence.
  const report::CallTree& calls = cube_->calls;
  std::vector<RegionCategory> cats(calls.size());
  for (std::size_t c = 0; c < calls.size(); ++c)
    cats[c] = region_table_->category(
        calls.node(CallPathId{static_cast<int>(c)}).region);

  for (Rank r = 0; r < tc_->num_ranks(); ++r) {
    for (const auto& [cnode, seconds] :
         excl_time[static_cast<std::size_t>(r)]) {
      RegionCtx ctx;
      ctx.cnode = CallPathId{cnode};
      ctx.rank = r;
      ctx.category = cats[static_cast<std::size_t>(cnode)];
      for (const Sub& s : on_region_) {
        sink_.set_current(s.slot);
        s.det->region_enter(ctx, sink_);
      }
      ctx.seconds = seconds;
      for (const Sub& s : on_region_) {
        sink_.set_current(s.slot);
        s.det->region_exit(ctx, sink_);
      }
    }
  }
}

void PatternEngine::dispatch(std::vector<P2pRecord>&& p2p,
                             std::vector<CollInstance>&& colls,
                             AnalysisStats& stats) {
  MSC_CHECK(tc_ != nullptr, "PatternEngine::dispatch before install");
  telemetry::ScopedSpan span("dispatch");
  const tracing::TraceDefs& defs = tc_->defs;

  // Canonical order, independent of collection order: p2p by (receiver,
  // receive position), instances by (comm, seq), members by rank.
  std::sort(p2p.begin(), p2p.end(),
            [](const P2pRecord& a, const P2pRecord& b) {
              if (a.recv.rank != b.recv.rank) return a.recv.rank < b.recv.rank;
              return a.recv_index < b.recv_index;
            });
  std::sort(colls.begin(), colls.end(),
            [](const CollInstance& a, const CollInstance& b) {
              if (a.comm != b.comm) return a.comm < b.comm;
              return a.seq < b.seq;
            });

  for (const P2pRecord& r : p2p) {
    P2pCtx ctx;
    ctx.defs = &defs;
    ctx.send = &r.send;
    ctx.recv = &r.recv;
    ctx.send_is_blocking_standard =
        region_table_->is_blocking_standard_send(r.send.region);
    ctx.grid = defs.crosses_metahosts(r.send.rank, r.recv.rank);
    for (const Sub& s : on_p2p_) {
      sink_.set_current(s.slot);
      s.det->p2p_matched(ctx, sink_);
    }
  }

  for (CollInstance& inst : colls) {
    const auto& comm = defs.comms[static_cast<std::size_t>(inst.comm)];
    MSC_CHECK(inst.members.size() == comm.members.size(),
              "incomplete collective instance in trace");
    std::sort(inst.members.begin(), inst.members.end(),
              [](const CollMember& a, const CollMember& b) {
                return a.rank < b.rank;
              });
    CollCtx ctx;
    ctx.defs = &defs;
    ctx.kind = region_table_->kind(inst.region);
    ctx.comm_members = &comm.members;
    ctx.members = &inst.members;
    ctx.root = inst.root;
    ctx.grid = comm_spans_metahosts(defs, comm.members);
    // Last arrival (ties: lowest rank — members are sorted), shared by
    // every wait/completion detector on this instance.
    std::size_t last_idx = 0;
    for (std::size_t i = 1; i < inst.members.size(); ++i)
      if (inst.members[i].enter > inst.members[last_idx].enter) last_idx = i;
    ctx.last_enter = inst.members[last_idx].enter;
    ctx.last_enter_mh = defs.metahost_of(inst.members[last_idx].rank);
    for (const Sub& s : on_coll_) {
      sink_.set_current(s.slot);
      s.det->collective_completed(ctx, sink_);
    }
  }

  for (const Sub& s : on_final_) {
    sink_.set_current(s.slot);
    s.det->finalize(sink_);
  }

  stats.messages = p2p.size();
  stats.collective_instances = colls.size();
  telemetry::counter("analysis.messages").add(stats.messages);
  telemetry::counter("analysis.collectives").add(stats.collective_instances);
  flush_telemetry();
}

void PatternEngine::flush_telemetry() {
  if (!telemetry::enabled()) return;
  const auto& tallies = sink_.tallies();
  for (std::size_t i = 0; i < registry_->size(); ++i) {
    if (!registry_->is_enabled(i)) continue;
    const std::string& key = registry_->detector(i).spec().key;
    // Register even at zero so enabled patterns always appear in
    // snapshots; one registry touch per detector per run, never per hit.
    telemetry::counter("analysis.pattern." + key + ".hits")
        .add(tallies[i].hits);
    telemetry::dcounter("analysis.pattern." + key + ".seconds")
        .add(tallies[i].seconds);
  }
}

}  // namespace metascope::analysis
