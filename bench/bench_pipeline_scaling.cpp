// Pre-replay pipeline scaling: the whole path from raw traces to cube —
// archive write, archive read, clock synchronization + amortization,
// prepare, replay — fanned out per rank on the shared worker pool.
//
// Sweep: 64 / 256 / 1024 ranks x workers {1, 2, 4, 8}. workers=1 runs
// every stage inline (no pool threads at all), so the speedup column is
// parallel-total over inline-total at the same rank count. On hardware
// with >= 8 cores the target is >= 3x end-to-end at 1024 ranks / 8
// workers; on narrower machines the attainable speedup is capped by the
// core count, which the harness prints and records so runs are
// comparable. Correctness gate printed in every row: the final cube must
// be bit-identical (tolerance 0) to the serial analyzer's and to the
// workers=1 pipeline's.
//
// Usage: bench_pipeline_scaling [max_ranks]
//   max_ranks caps the sweep (CI smoke runs "bench_pipeline_scaling 64").
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <filesystem>
#include <string>
#include <thread>

#include "analysis/analyzer.hpp"
#include "analysis/prepare.hpp"
#include "archive/archive.hpp"
#include "clocksync/amortization.hpp"
#include "clocksync/correction.hpp"
#include "common/table.hpp"
#include "harness_util.hpp"
#include "simmpi/program.hpp"
#include "simnet/topology.hpp"
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

/// Ring shifts + staggered collectives: per-rank event streams heavy
/// enough that every pipeline stage has real per-rank work.
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

class StageTimer {
 public:
  double take_ms() {
    const auto now = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    return ms;
  }

 private:
  std::chrono::steady_clock::time_point last_{
      std::chrono::steady_clock::now()};
};

/// Encoded bytes an archive occupies: every defs + trace file across the
/// partial archives (manifests excluded — identical in every format).
std::uintmax_t archive_bytes(const archive::ExperimentArchive& ar) {
  std::uintmax_t total = 0;
  for (const std::string& dir : ar.partial_dirs())
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".elg") || name.ends_with(".defs"))
        total += entry.file_size();
    }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  int max_ranks = 1024;
  if (argc > 1) max_ranks = std::atoi(argv[1]);
  bench::banner("Pipeline scaling",
                "archive I/O + sync + prepare + replay on the worker pool");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware concurrency: %u\n", hw);
  std::printf("rank cap: %d\n\n", max_ranks);

  bench::BenchReport report("pipeline_scaling");
  report.set("hardware_concurrency", Json(static_cast<int>(hw)));
  report.set("max_ranks", Json(max_ranks));

  const std::string base =
      (std::filesystem::temp_directory_path() / "msc_pipeline_scaling")
          .string();
  std::filesystem::remove_all(base);

  TextTable t({"ranks", "workers", "write", "read", "sync", "prepare",
               "replay", "total [ms]", "speedup", "cube ok"});
  for (int per_side : {32, 128, 512}) {
    const int ranks = 2 * per_side;
    if (ranks > max_ranks) continue;
    const auto topo = two_site(per_side);
    workloads::ExperimentConfig cfg;
    cfg.measurement.scheme = tracing::SyncScheme::HierarchicalTwo;
    const auto data =
        workloads::run_experiment(topo, ring_program(ranks, 3), cfg);

    // Serial reference cube: one pipeline run entirely single-threaded
    // through the same stages.
    report::Cube ref_cube;
    {
      auto tc = data.traces;
      clocksync::synchronize(tc, 1);
      clocksync::AmortizationConfig acfg;
      acfg.max_workers = 1;
      clocksync::amortize_violations(tc, acfg);
      ref_cube = analysis::analyze_serial(tc).cube;
    }

    double total_w1 = 0.0;
    for (const std::size_t w : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      const std::string dir = base + "/r" + std::to_string(ranks) + "_w" +
                              std::to_string(w);
      const auto layout =
          archive::FileSystemLayout::per_metahost(dir, topo.num_metahosts());
      const auto ar =
          archive::ExperimentArchive::create(topo, layout, "pipeline");

      StageTimer timer;
      ar.write_traces(topo, data.traces, w);
      const double write_ms = timer.take_ms();
      auto tc = ar.read_traces(w);
      const double read_ms = timer.take_ms();
      clocksync::synchronize(tc, w);
      clocksync::AmortizationConfig acfg;
      acfg.max_workers = w;
      clocksync::amortize_violations(tc, acfg);
      const double sync_ms = timer.take_ms();
      // The standalone prepare stage times only analyze_serial's
      // prepare (the structure walk plus the serial baseline's own
      // per-event annotation, always on the calling thread, so it does
      // not scale with w). analyze_parallel runs just the structure
      // walk and annotates inside its rank tasks, so its prepare cost
      // is part of the replay column. Excluded from the total so
      // end-to-end counts each stage once.
      (void)analysis::prepare(tc);
      const double prepare_ms = timer.take_ms();
      analysis::ReplayOptions opts;
      opts.max_workers = w;
      timer.take_ms();
      const auto res = analysis::analyze_parallel(tc, opts);
      const double replay_ms = timer.take_ms();

      const double total_ms = write_ms + read_ms + sync_ms + replay_ms;
      if (w == 1) total_w1 = total_ms;
      const double speedup = total_w1 / total_ms;
      const bool cube_ok = ref_cube.approx_equal(res.cube, 0.0);
      t.add_row({std::to_string(ranks), std::to_string(w),
                 TextTable::fixed(write_ms, 1), TextTable::fixed(read_ms, 1),
                 TextTable::fixed(sync_ms, 1),
                 TextTable::fixed(prepare_ms, 1),
                 TextTable::fixed(replay_ms, 1),
                 TextTable::fixed(total_ms, 1), TextTable::fixed(speedup, 2),
                 cube_ok ? "yes" : "NO"});
      report.add_row(
          "scaling",
          Json{Json::Object{}}
              .set("ranks", Json(ranks))
              .set("workers", Json(static_cast<int>(w)))
              .set("write_ms", Json(write_ms))
              .set("read_ms", Json(read_ms))
              .set("sync_ms", Json(sync_ms))
              .set("prepare_ms", Json(prepare_ms))
              .set("replay_ms", Json(replay_ms))
              .set("total_ms", Json(total_ms))
              .set("speedup_vs_1_worker", Json(speedup))
              .set("cube_matches_serial", Json(cube_ok)));
    }

    // ---- trace-format comparison: same traces written as v2 and v3 ----
    // One pass per format (single worker — this isolates the encode +
    // byte-volume effect from thread scaling): archive size on disk,
    // write + read wall, and the severity cube after the full pipeline,
    // which must be bit-identical across formats.
    struct FormatRun {
      std::uintmax_t bytes{0};
      double write_ms{0.0};
      double read_ms{0.0};
      report::Cube cube;
    };
    FormatRun runs[2];
    const std::uint32_t versions[2] = {2, 3};
    for (int fi = 0; fi < 2; ++fi) {
      const std::string dir =
          base + "/fmt_r" + std::to_string(ranks) + "_v" +
          std::to_string(versions[fi]);
      const auto layout =
          archive::FileSystemLayout::per_metahost(dir, topo.num_metahosts());
      const auto ar =
          archive::ExperimentArchive::create(topo, layout, "pipeline");
      archive::WriteOptions wopts;
      wopts.max_workers = 1;
      wopts.format_version = versions[fi];
      StageTimer timer;
      ar.write_traces(topo, data.traces, wopts);
      runs[fi].write_ms = timer.take_ms();
      archive::ReadOptions ropts;
      ropts.max_workers = 1;
      auto tc = ar.read_traces(ropts);
      runs[fi].read_ms = timer.take_ms();
      runs[fi].bytes = archive_bytes(ar);
      clocksync::synchronize(tc, 1);
      clocksync::AmortizationConfig acfg;
      acfg.max_workers = 1;
      clocksync::amortize_violations(tc, acfg);
      runs[fi].cube = analysis::analyze_serial(tc).cube;
    }
    const double shrink = static_cast<double>(runs[0].bytes) /
                          static_cast<double>(runs[1].bytes);
    const double rw_speedup =
        (runs[0].write_ms + runs[0].read_ms) /
        (runs[1].write_ms + runs[1].read_ms);
    const bool fmt_cube_ok = runs[0].cube.approx_equal(runs[1].cube, 0.0) &&
                             runs[0].cube.approx_equal(ref_cube, 0.0);
    std::printf(
        "format v2 vs v3 at %d ranks: %ju -> %ju bytes (%.2fx smaller), "
        "write+read %.1f -> %.1f ms (%.2fx), cubes identical: %s\n",
        ranks, runs[0].bytes, runs[1].bytes, shrink,
        runs[0].write_ms + runs[0].read_ms,
        runs[1].write_ms + runs[1].read_ms, rw_speedup,
        fmt_cube_ok ? "yes" : "NO");
    for (int fi = 0; fi < 2; ++fi)
      report.add_row("format",
                     Json{Json::Object{}}
                         .set("ranks", Json(ranks))
                         .set("format_version",
                              Json(static_cast<int>(versions[fi])))
                         .set("archive_bytes",
                              Json(static_cast<std::size_t>(runs[fi].bytes)))
                         .set("write_ms", Json(runs[fi].write_ms))
                         .set("read_ms", Json(runs[fi].read_ms)));
    report.add_row("format_summary",
                   Json{Json::Object{}}
                       .set("ranks", Json(ranks))
                       .set("v2_over_v3_bytes", Json(shrink))
                       .set("v2_over_v3_read_write_wall", Json(rw_speedup))
                       .set("cubes_identical", Json(fmt_cube_ok)));

    // ---- streamed vs materialized replay over the same v3 archive ----
    // The archive is written after synchronization (streaming replays
    // it as-is, so the timestamps must already be corrected), then
    // analyzed twice from disk: materialized (read_traces + parallel
    // replay, peak = the whole collection) and streamed (windowed
    // decode under a budget that forces single-event windows, peak =
    // resident windows only). Gates: cubes bit-identical always, and at
    // 1024 ranks the streamed peak must be >= 4x lower — both
    // hardware-independent. The wall target — within 15% of the
    // materialized replay — holds on >= 8 cores, where the windowed
    // decode fans out like the materialized one and only the light
    // prepare pass stays serial; on narrower machines the streamed
    // side's extra serial decode work lands on the wall directly (like
    // the speedup target above, the attainable figure is capped by the
    // core count, which the sidecar records for comparability).
    {
      auto tcs = data.traces;
      clocksync::synchronize(tcs);
      clocksync::AmortizationConfig acfg;
      clocksync::amortize_violations(tcs, acfg);
      const std::string dir = base + "/stream_r" + std::to_string(ranks);
      const auto layout =
          archive::FileSystemLayout::per_metahost(dir, topo.num_metahosts());
      const auto ar =
          archive::ExperimentArchive::create(topo, layout, "pipeline");
      ar.write_traces(topo, tcs);

      // Both sides are timed best-of-kReps: a single sample at this
      // scale is mostly scheduler/page-cache noise, and the minimum is
      // the standard estimator for the actual cost of the work.
      constexpr int kReps = 3;
      StageTimer timer;
      double mat_ms = 0.0;
      std::optional<analysis::AnalysisResult> mat;
      for (int rep = 0; rep < kReps; ++rep) {
        timer.take_ms();
        const auto tcm = ar.read_traces();
        auto r = analysis::analyze_parallel(tcm);
        const double ms = timer.take_ms();
        if (rep == 0 || ms < mat_ms) mat_ms = ms;
        mat = std::move(r);
      }

      const auto src = ar.stream_source(archive::ReadOptions{});
      analysis::ReplayOptions sopts;
      // One byte per rank: every window sits at its one-event floor.
      sopts.memory_budget_bytes = static_cast<std::size_t>(ranks);
      double stream_ms = 0.0;
      std::optional<analysis::AnalysisResult> streamed;
      for (int rep = 0; rep < kReps; ++rep) {
        timer.take_ms();
        auto r = analysis::analyze_streaming(src, sopts);
        const double ms = timer.take_ms();
        if (rep == 0 || ms < stream_ms) stream_ms = ms;
        streamed = std::move(r);
      }

      const bool stream_cube_ok =
          mat->cube.approx_equal(streamed->cube, 0.0) &&
          ref_cube.approx_equal(streamed->cube, 0.0);
      const double reduction =
          static_cast<double>(mat->stats.trace_bytes_in_memory) /
          static_cast<double>(
              std::max<std::size_t>(streamed->stats.trace_bytes_in_memory, 1));
      const double overhead_pct = (stream_ms - mat_ms) / mat_ms * 100.0;
      std::printf(
          "streamed vs materialized at %d ranks: peak %zu -> %zu bytes "
          "(%.1fx lower), replay %.1f -> %.1f ms (%+.1f%%), cubes "
          "identical: %s\n",
          ranks, mat->stats.trace_bytes_in_memory,
          streamed->stats.trace_bytes_in_memory, reduction, mat_ms, stream_ms,
          overhead_pct, stream_cube_ok ? "yes" : "NO");
      report.add_row(
          "stream",
          Json{Json::Object{}}
              .set("ranks", Json(ranks))
              .set("memory_budget_bytes",
                   Json(sopts.memory_budget_bytes))
              .set("stream_peak_resident_bytes",
                   Json(streamed->stats.trace_bytes_in_memory))
              .set("materialized_peak_resident_bytes",
                   Json(mat->stats.trace_bytes_in_memory))
              .set("peak_reduction_factor", Json(reduction))
              .set("materialized_ms", Json(mat_ms))
              .set("stream_ms", Json(stream_ms))
              .set("stream_overhead_pct", Json(overhead_pct))
              .set("wall_within_15pct", Json(overhead_pct <= 15.0))
              .set("cubes_identical", Json(stream_cube_ok)));
    }
  }
  std::printf("%s", t.render().c_str());
  std::filesystem::remove_all(base);

  bench::note(
      "\nShape check: every stage column shrinks as workers grow until the\n"
      "machine runs out of cores (speedup saturates near min(workers,\n"
      "hardware concurrency)). Target on >= 8 cores: >= 3x total at 1024\n"
      "ranks / 8 workers. 'cube ok' must read 'yes' in every row — the\n"
      "per-rank fan-out writes disjoint slots, so the cube is bit-identical\n"
      "to the fully serial pipeline at any worker count.\n"
      "Streaming: peak resident bytes must be >= 4x below materialized at\n"
      "1024 ranks with bit-identical cubes on any machine; the wall target\n"
      "(within 15% of materialized) applies on >= 8 cores, where the\n"
      "windowed decode fans out and only the light prepare pass is serial.");
  report.write();
  return 0;
}
