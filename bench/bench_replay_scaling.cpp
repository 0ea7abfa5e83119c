// Replay-scheduler scaling on a bounded worker pool (hardware
// concurrency) at 64 / 256 / 1024 ranks: wall-clock, scheduler counters,
// and a check that every cube stays bit-identical to the serial
// analyzer's. Two further sections time the pattern engine's dispatch
// as the enabled detector set shrinks, and the telemetry registry's and
// flight recorder's overhead on a full 1024-rank pass.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "analysis/prepare.hpp"
#include "analysis/replay_core.hpp"
#include "archive/archive.hpp"
#include "clocksync/correction.hpp"
#include "common/table.hpp"
#include "harness_util.hpp"
#include "simmpi/program.hpp"
#include "simnet/topology.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "tracing/matching.hpp"
#include "workloads/experiment.hpp"

using namespace metascope;

namespace {

/// Two metahosts joined by a WAN link, `per_side` single-CPU nodes each.
simnet::Topology two_site(int per_side) {
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "SiteA";
  a.num_nodes = per_side;
  a.cpus_per_node = 1;
  a.speed_factor = 0.8;
  a.internal = simnet::LinkSpec{50e-6, 1e-6, 0.5e9};
  simnet::MetahostSpec b;
  b.name = "SiteB";
  b.num_nodes = per_side;
  b.cpus_per_node = 1;
  b.speed_factor = 1.0;
  b.internal = simnet::LinkSpec{21.5e-6, 0.8e-6, 1.4e9};
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.set_external_link(ia, ib, simnet::LinkSpec{988e-6, 3.86e-6, 1.25e9});
  topo.place_block(ia, per_side, 1);
  topo.place_block(ib, per_side, 1);
  return topo;
}

/// Ring shifts + staggered collectives — enough communication that the
/// replay suspends constantly when ranks outnumber workers.
simmpi::Program ring_program(int nranks, int steps) {
  simmpi::ProgramBuilder b(nranks);
  for (Rank r = 0; r < nranks; ++r) b.on(r).enter("main");
  for (int s = 0; s < steps; ++s) {
    for (Rank r = 0; r < nranks; ++r) {
      b.on(r).enter("ring").send((r + 1) % nranks, s, 2048.0);
      b.on(r).recv((r + nranks - 1) % nranks, s).exit();
    }
    for (Rank r = 0; r < nranks; ++r)
      b.on(r).compute(1e-4 * (r % 7)).barrier();
    for (Rank r = 0; r < nranks; ++r) b.on(r).allreduce(512.0);
  }
  for (Rank r = 0; r < nranks; ++r) b.on(r).exit();
  return b.take();
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

int main() {
  bench::banner("Replay scaling", "bounded worker pool");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware concurrency: %u\n\n", hw);

  bench::BenchReport report("replay_scaling");
  report.set("hardware_concurrency", Json(static_cast<int>(hw)));

  TextTable t({"ranks", "events", "workers", "wall [ms]", "suspensions",
               "requeues", "steals", "cube==serial"});
  workloads::ExperimentData data1024;  // kept for the overhead section
  for (int per_side : {32, 128, 512}) {
    const int ranks = 2 * per_side;
    const auto topo = two_site(per_side);
    workloads::ExperimentConfig cfg;
    cfg.perfect_clocks = true;
    cfg.measurement.scheme = tracing::SyncScheme::None;
    auto data =
        workloads::run_experiment(topo, ring_program(ranks, 3), cfg);
    const auto& tc = data.traces;
    const auto serial = analysis::analyze_serial(tc);

    analysis::ReplayOptions opts;
    opts.max_workers = hw;
    const auto t0 = std::chrono::steady_clock::now();
    const auto p = analysis::analyze_parallel(tc, opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms = ms_between(t0, t1);
    const bool cube_ok = serial.cube.approx_equal(p.cube, 0.0);
    t.add_row({std::to_string(ranks), std::to_string(p.stats.events),
               std::to_string(p.stats.replay_workers),
               TextTable::fixed(wall_ms, 1),
               std::to_string(p.stats.replay_suspensions),
               std::to_string(p.stats.replay_requeues),
               std::to_string(p.stats.replay_steals), cube_ok ? "yes" : "NO"});
    report.add_row("scaling",
                   Json{Json::Object{}}
                       .set("ranks", Json(ranks))
                       .set("workers", Json(p.stats.replay_workers))
                       .set("wall_ms", Json(wall_ms))
                       .set("suspensions", Json(p.stats.replay_suspensions))
                       .set("cube_matches_serial", Json(cube_ok)));
    if (ranks == 1024) data1024 = std::move(data);
  }
  std::printf("%s", t.render().c_str());

  // --- Pattern-engine dispatch by detector count at 1024 ranks ---------
  // Every matched message and collective instance goes through virtual
  // detector callbacks. This times evaluation only — records are
  // collected once outside the loop, each rep gets a fresh installed
  // cube, and the timed region is the canonical-order sweep — with all
  // detectors enabled and with the point-to-point pair only, to show
  // how dispatch cost scales with the enabled patterns.
  bench::banner("Pattern-engine dispatch",
                "1024 ranks, evaluation only, best of 9");
  {
    const auto& tc = data1024.traces;
    const auto prep = analysis::prepare(tc);
    const auto pairs = tracing::match_messages(tc);
    std::vector<analysis::P2pRecord> p2p;
    p2p.reserve(pairs.size());
    for (const auto& p : pairs)
      p2p.push_back(analysis::P2pRecord{
          analysis::make_side(prep, p.send.rank, p.send.index),
          analysis::make_side(prep, p.recv.rank, p.recv.index),
          p.recv.index});
    const auto colls = analysis::group_collectives(tc, prep);
    constexpr int kReps = 9;

    auto engine_ms = [&](const std::vector<std::string>& sel) {
      double best = 1e300;
      for (int i = 0; i < kReps; ++i) {
        report::Cube cube;
        auto registry = analysis::PatternRegistry::standard();
        registry.select(sel);
        analysis::PatternEngine engine(registry, cube);
        (void)engine.install(tc, prep.calls, prep.region_table);
        engine.region_pass(prep.excl_time);
        auto p2pc = p2p;
        auto collc = colls;
        analysis::AnalysisStats stats;
        const auto t0 = std::chrono::steady_clock::now();
        engine.dispatch(std::move(p2pc), std::move(collc), stats);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, ms_between(t0, t1));
      }
      return best;
    };

    const std::vector<std::string> p2p_only = {"late_sender",
                                               "late_receiver"};
    const double eng_all = engine_ms({});
    const double eng_p2p = engine_ms(p2p_only);

    TextTable dt({"configuration", "detectors", "wall [ms]"});
    dt.add_row({"engine, all patterns", "8", TextTable::fixed(eng_all, 2)});
    dt.add_row({"engine, p2p only", "2", TextTable::fixed(eng_p2p, 2)});
    std::printf("%s", dt.render().c_str());
    report.set("dispatch_engine_all_ms", Json(eng_all));
    report.set("dispatch_engine_p2p_only_ms", Json(eng_p2p));
  }

  // --- Telemetry overhead at 1024 ranks --------------------------------
  // The registry's whole design brief is that instrumentation must not
  // slow the pipeline down; this measures it directly. The timed body
  // covers every instrumented stage — archive write + read, clock
  // synchronization, and the pooled analysis (structure walk + replay)
  // — so the <= 5% budget gates the archive/sync/prepare spans and the
  // per-stage parallelism metrics, not just the replay counters. Same
  // trace, same pooled configuration, best-of-51 with recording on vs
  // off; the trace copy each rep consumes is made outside the timed
  // region.
  bench::banner("Telemetry overhead",
                "1024 ranks, full pipeline (archive+sync+prepare+replay)");
  analysis::ReplayOptions opts;
  opts.max_workers = hw;
  const auto topo1024 = two_site(512);
  // The pass writes and re-reads 1024 trace files; on a spinning or
  // shared disk the writeback stalls swamp the few-ms effect being
  // measured, so prefer a RAM-backed directory when the host has one.
  const std::filesystem::path ovbase =
      std::filesystem::is_directory("/dev/shm")
          ? std::filesystem::path("/dev/shm")
          : std::filesystem::temp_directory_path();
  const std::string ovdir = (ovbase / "msc_replay_overhead").string();
  std::filesystem::remove_all(ovdir);
  const auto ovlayout = archive::FileSystemLayout::per_metahost(
      ovdir, topo1024.num_metahosts());
  const auto ovarchive =
      archive::ExperimentArchive::create(topo1024, ovlayout, "overhead");
  auto one_pass = [&]() {
    auto tc = data1024.traces;  // untimed copy; synchronize mutates
    const auto t0 = std::chrono::steady_clock::now();
    ovarchive.write_traces(topo1024, tc, hw);
    auto tc2 = ovarchive.read_traces(hw);
    clocksync::synchronize(tc, hw);
    (void)analysis::analyze_parallel(tc, opts);
    const auto t1 = std::chrono::steady_clock::now();
    (void)tc2;
    return ms_between(t0, t1);
  };
  // Three configurations: registry off, registry on (the default
  // build), and registry + flight recorder (the `msc_run --trace-out`
  // configuration, rings at default capacity). The effect being
  // measured is ~1 ms on a ~20 ms pass, while a shared host adds
  // stalls worth tens of ms (writeback, noisy neighbours) and drifts
  // its clock rate in multi-second phases — so the estimator is a
  // *paired* design: one untimed warm-up primes the page cache, every
  // round runs all three configurations back to back (same host phase,
  // order rotating so no configuration always sits in the slot the
  // host happens to throttle), each gate is computed per round from
  // adjacent passes, and the median over rounds discards the stalled
  // ones. The displayed columns are each configuration's floor
  // (best-of-N); the gates use the paired medians.
  telemetry::Recorder::instance().configure(
      telemetry::Recorder::kDefaultRingCapacity);
  (void)one_pass();  // warm-up: prime the page cache, untimed
  constexpr int kRounds = 151;
  double off_ms = 1e300, on_ms = 1e300, rec_ms = 1e300;
  std::vector<double> reg_ratio, rec_ratio;  // per-round paired gates
  for (int rep = 0; rep < kRounds; ++rep) {
    double round_ms[3];  // [0]=off  [1]=registry  [2]=registry+recorder
    for (int slot = 0; slot < 3; ++slot) {
      const int cfg = (rep + slot) % 3;
      telemetry::set_enabled(cfg != 0);
      telemetry::Recorder::instance().set_enabled(cfg == 2);
      round_ms[cfg] = one_pass();
      telemetry::Recorder::instance().set_enabled(false);
      telemetry::set_enabled(true);
    }
    off_ms = std::min(off_ms, round_ms[0]);
    on_ms = std::min(on_ms, round_ms[1]);
    rec_ms = std::min(rec_ms, round_ms[2]);
    reg_ratio.push_back(round_ms[1] / round_ms[0]);
    rec_ratio.push_back(round_ms[2] / round_ms[1]);
  }
  // Context for the overhead number: how many events one full pass
  // actually records (huge rings so nothing wraps).
  telemetry::Recorder::instance().configure(std::size_t{1} << 20);
  telemetry::Recorder::instance().set_enabled(true);
  (void)one_pass();
  telemetry::Recorder::instance().set_enabled(false);
  std::uint64_t events_per_pass = 0;
  for (const auto& log : telemetry::Recorder::instance().snapshot()) {
    events_per_pass += log.dropped + log.events.size();
  }
  telemetry::Recorder::instance().configure(
      telemetry::Recorder::kDefaultRingCapacity);
  std::filesystem::remove_all(ovdir);
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  const double overhead_pct = (median(reg_ratio) - 1.0) * 100.0;
  const double recorder_overhead_pct = (median(rec_ratio) - 1.0) * 100.0;
  std::printf("telemetry off         : %8.1f ms (best of 151)\n", off_ms);
  std::printf("telemetry on          : %8.1f ms (best of 151)\n", on_ms);
  std::printf("telemetry + recorder  : %8.1f ms (best of 151)\n", rec_ms);
  std::printf("recorder events/pass  : %8llu\n",
              static_cast<unsigned long long>(events_per_pass));
  std::printf(
      "registry overhead     : %+7.2f %%  (paired median of 151 rounds, budget: <= 5%%) "
      "%s\n",
      overhead_pct, overhead_pct <= 5.0 ? "[ok]" : "[OVER BUDGET]");
  std::printf(
      "recorder overhead     : %+7.2f %%  (paired median of 151 rounds, budget: <= 5%%) "
      "%s\n",
      recorder_overhead_pct,
      recorder_overhead_pct <= 5.0 ? "[ok]" : "[OVER BUDGET]");
  report.set("telemetry_on_ms", Json(on_ms));
  report.set("telemetry_off_ms", Json(off_ms));
  report.set("telemetry_overhead_pct", Json(overhead_pct));
  report.set("recorder_on_ms", Json(rec_ms));
  report.set("recorder_overhead_pct", Json(recorder_overhead_pct));
  report.set("recorder_overhead_budget_pct", Json(5.0));
  report.set("recorder_events_per_pass",
             Json(static_cast<double>(events_per_pass)));
  bench::note(
      "\nShape check: the pool holds the worker count at hardware\n"
      "concurrency at every rank count. cube==serial must read 'yes' in\n"
      "every row: canonical-order accumulation makes the pooled replay\n"
      "bit-identical to the serial analyzer regardless of schedule.");
  report.write();
  return 0;
}
