// msc_run — the command-line front end: run a JSON-described experiment
// end to end and emit the analysis report plus a severity cube file.
//
// Usage:
//   msc_run <experiment.json> [--cube out.cubex] [--profile] [--amortize]
//           [--timeline] [--metrics out.json] [--progress]
//           [--trace-out trace.json] [--sample-interval-ms n]
//           [--patterns key[,key...]] [--list-patterns]
//           [--archive-dir dir] [--permissive] [--trace-format n]
//           [--stream] [--memory-budget bytes]
//           [--log-level {debug,info,warn,error,off}]
//
// --archive-dir routes the traces through the on-disk archive layer:
// the measured traces are written into a trace archive under the given
// directory and read back through the hardened ingestion path before
// analysis (so the analyzed data went through the same decode layer a
// post-mortem run would use). --permissive switches that read into
// permissive-recovery mode: undecodable ranks are quarantined and
// reported instead of aborting the run (see DESIGN.md "Ingestion
// hardening"). --permissive without --archive-dir is accepted and has
// no effect (in-memory traces never need decoding). --trace-format
// selects the trace format version the archive writes (1–3; default is
// the current columnar v3) — useful for producing legacy fixtures and
// for measuring v2-vs-v3 archive sizes; readers auto-detect.
//
// --stream analyzes the archive *out of core* instead of materializing
// it: clock synchronization runs first (streaming needs synchronized
// timestamps on disk), the synchronized traces are written as a v3
// archive under --archive-dir, and analysis::analyze_streaming replays
// them in bounded windows straight out of the mapped files.
// --memory-budget caps the decoded trace bytes resident across all
// ranks at once (default: a generous 4096-event window per rank). The
// severity cube is bit-identical to the in-memory analysis. --stream
// requires --archive-dir and the v3 format; --permissive composes
// (quarantined ranks stream zero events).
//
// --metrics writes the full telemetry snapshot (pipeline-stage spans,
// counters, histograms, run metadata, and — when the sampler ran — the
// time-resolved series) as JSON; --progress prints a rate-limited
// stage/percent line to stderr while the pipeline runs.
//
// --trace-out switches on the flight recorder and writes the analyzer's
// own execution timeline as Chrome Trace Event JSON (open in Perfetto:
// one track per worker thread plus a "pipeline" phase track).
// --sample-interval-ms starts the background sampler that snapshots the
// metrics registry every n ms into the --metrics document's
// "timeseries" section. Both are also settable from the config's
// "telemetry" section; the flags win. Output paths (--cube, --metrics,
// --trace-out) are validated up front — missing parent directories are
// created and an unwritable path fails before the pipeline runs.
//
// --patterns restricts the analysis to the named wait-state detectors
// (comma-separated keys; overrides the config's "analysis.patterns");
// --list-patterns prints the available detector keys and exits.
//
// With no arguments it runs a built-in demo config (and prints it), so
// `./build/examples/msc_run` works out of the box. --help / -h prints
// the usage and exits 0; an unknown option, a flag missing its value or
// a non-integer value for a numeric flag prints the usage and exits 2.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/pattern_engine.hpp"
#include "archive/archive.hpp"
#include "clocksync/amortization.hpp"
#include "clocksync/clock_condition.hpp"
#include "clocksync/correction.hpp"
#include "common/log.hpp"
#include "report/cubexml.hpp"
#include "report/profile.hpp"
#include "report/timeline.hpp"
#include "report/render.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace_export.hpp"
#include "tracing/epilog_io.hpp"
#include "workloads/config.hpp"
#include "workloads/experiment.hpp"

using namespace metascope;

namespace {

const char* kDemoConfig = R"({
  "name": "demo-two-sites",
  "seed": 11,
  "topology": {
    "metahosts": [
      {"name": "Alpha", "nodes": 4, "cpus_per_node": 2, "speed": 1.0,
       "latency_us": 25, "jitter_us": 1, "bandwidth_gbps": 1.0},
      {"name": "Beta", "nodes": 4, "cpus_per_node": 2, "speed": 0.6,
       "latency_us": 40, "jitter_us": 1.5, "bandwidth_gbps": 0.5}
    ],
    "external": {"latency_us": 950, "jitter_us": 4,
                 "bandwidth_gbps": 1.25, "asymmetry": 0.08},
    "placement": [
      {"metahost": 0, "nodes": 4, "procs_per_node": 2},
      {"metahost": 1, "nodes": 4, "procs_per_node": 2}
    ]
  },
  "workload": {"kind": "metatrace", "coupling_steps": 3,
               "cg_iterations": 20, "field_mb_total": 64},
  "sync": "hierarchical-two"
})";

std::vector<std::string> split_keys(const std::string& list) {
  std::vector<std::string> keys;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string key =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!key.empty()) keys.push_back(key);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return keys;
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "Usage: msc_run [experiment.json] [options]\n"
      "\n"
      "Runs a JSON-described experiment end to end (the built-in demo when\n"
      "no config is given) and prints the analysis report.\n"
      "\n"
      "Options:\n"
      "  --cube <file>               write the severity cube as CUBE-XML\n"
      "  --profile                   print the flat profile\n"
      "  --amortize                  repair clock-condition violations\n"
      "  --timeline                  print the per-rank timeline\n"
      "  --metrics <file>            write the telemetry snapshot as JSON\n"
      "  --progress                  print stage progress to stderr\n"
      "  --trace-out <file>          write the analyzer's own timeline\n"
      "  --sample-interval-ms <n>    sample the metrics every n ms\n"
      "  --patterns <key[,key...]>   run only the named detectors\n"
      "  --list-patterns             list the detector keys and exit\n"
      "  --archive-dir <dir>         route traces through an on-disk archive\n"
      "  --permissive                quarantine undecodable ranks\n"
      "  --trace-format <n>          archive trace format version\n"
      "  --stream                    analyze the archive out of core\n"
      "  --memory-budget <bytes>     cap resident trace bytes (--stream)\n"
      "  --log-level <level>         debug, info, warn, error or off\n"
      "  -h, --help                  print this help and exit\n");
}

/// Parses a whole decimal integer in [lo, hi]; false on an empty value,
/// trailing characters or a value out of range.
bool parse_integer(const std::string& s, long long lo, long long hi,
                   long long& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(s.c_str(), &end, 10);
  return !s.empty() && *end == '\0' && errno == 0 && out >= lo && out <= hi;
}

void print_pattern_list() {
  std::printf("available patterns (--patterns key[,key...]):\n");
  for (const auto& e : analysis::PatternRegistry::standard().entries()) {
    if (e.structural) continue;
    std::printf("  %-20s %s (%s)\n", e.key.c_str(), e.metric.c_str(),
                e.description.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string cube_path;
  std::string metrics_path;
  std::string trace_path;
  int sample_interval_ms = -1;  // -1 = not given on the CLI
  std::string archive_dir;
  int trace_format = 0;  // 0 = current (tracing::kTraceFormatVersion)
  bool permissive = false;
  bool streaming = false;
  long long memory_budget = 0;
  bool want_profile = false;
  bool want_amortize = false;
  bool want_timeline = false;
  bool have_cli_patterns = false;
  std::vector<std::string> cli_patterns;
  // A malformed command line (unknown option, missing or non-integer
  // value) prints the usage and exits 2 before any work starts.
  std::string bad;
  for (int i = 1; i < argc && bad.empty(); ++i) {
    const char* arg = argv[i];
    std::string value;
    // Matches "--name value" or "--name=value" and sets `value`.
    auto take = [&](const char* name) {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(arg, name, n) != 0 ||
          (arg[n] != '=' && arg[n] != '\0'))
        return false;
      if (arg[n] == '=')
        value = arg + n + 1;
      else if (i + 1 < argc)
        value = argv[++i];
      else
        bad = std::string(name) + " requires a value";
      return true;
    };
    long long number = 0;
    // take() for an integer flag whose value must lie in [lo, hi].
    auto take_integer = [&](const char* name, long long lo, long long hi) {
      if (!take(name)) return false;
      if (bad.empty() && !parse_integer(value, lo, hi, number))
        bad = std::string(name) + " expects an integer, got '" + value + "'";
      return true;
    };
    constexpr long long kIntMin = std::numeric_limits<int>::min();
    constexpr long long kIntMax = std::numeric_limits<int>::max();
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(stdout);
      return 0;
    } else if (std::strcmp(arg, "--list-patterns") == 0) {
      print_pattern_list();
      return 0;
    } else if (take("--cube")) {
      cube_path = value;
    } else if (take("--patterns")) {
      have_cli_patterns = true;
      cli_patterns = split_keys(value);
    } else if (take("--metrics")) {
      metrics_path = value;
    } else if (take("--trace-out")) {
      trace_path = value;
    } else if (take_integer("--sample-interval-ms", 0, kIntMax)) {
      sample_interval_ms = static_cast<int>(number);
    } else if (take("--log-level")) {
      LogLevel level{};
      if (bad.empty() && !parse_log_level(value, level)) {
        std::fprintf(stderr,
                     "msc_run: unknown log level '%s' (expected debug, "
                     "info, warn, error, or off)\n",
                     value.c_str());
        return 1;
      }
      set_log_level(level);
    } else if (take("--archive-dir")) {
      archive_dir = value;
    } else if (take_integer("--trace-format", kIntMin, kIntMax)) {
      trace_format = static_cast<int>(number);
    } else if (std::strcmp(arg, "--permissive") == 0) {
      permissive = true;
    } else if (std::strcmp(arg, "--stream") == 0) {
      streaming = true;
    } else if (take_integer("--memory-budget",
                            std::numeric_limits<long long>::min(),
                            std::numeric_limits<long long>::max())) {
      memory_budget = number;
    } else if (std::strcmp(arg, "--progress") == 0) {
      telemetry::set_progress_enabled(true);
    } else if (std::strcmp(arg, "--profile") == 0) {
      want_profile = true;
    } else if (std::strcmp(arg, "--amortize") == 0) {
      want_amortize = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      want_timeline = true;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      bad = std::string("unknown option '") + arg + "'";
    } else {
      config_path = arg;
    }
  }
  if (!bad.empty()) {
    std::fprintf(stderr, "msc_run: %s\n\n", bad.c_str());
    print_usage(stderr);
    return 2;
  }

  if (trace_format != 0 &&
      (trace_format < static_cast<int>(tracing::kMinTraceFormatVersion) ||
       trace_format > static_cast<int>(tracing::kTraceFormatVersion))) {
    std::fprintf(stderr,
                 "msc_run: --trace-format %d out of range (supported: "
                 "%u..%u)\n",
                 trace_format, tracing::kMinTraceFormatVersion,
                 tracing::kTraceFormatVersion);
    return 1;
  }
  if (streaming && archive_dir.empty()) {
    std::fprintf(stderr,
                 "msc_run: --stream requires --archive-dir (streaming "
                 "replays the on-disk archive)\n");
    return 1;
  }
  if (streaming && trace_format != 0 &&
      trace_format < static_cast<int>(tracing::kTraceFormatVersion)) {
    std::fprintf(stderr,
                 "msc_run: --stream requires the columnar v%u trace format "
                 "(row-wise v%d archives must be materialized)\n",
                 tracing::kTraceFormatVersion, trace_format);
    return 1;
  }
  if (memory_budget < 0) {
    std::fprintf(stderr, "msc_run: --memory-budget must be >= 0\n");
    return 1;
  }
  if (memory_budget > 0 && !streaming) {
    std::fprintf(stderr, "msc_run: --memory-budget requires --stream\n");
    return 1;
  }

  try {
    workloads::ExperimentSpec spec =
        config_path.empty()
            ? workloads::parse_experiment(Json::parse(kDemoConfig))
            : workloads::load_experiment(config_path);
    if (config_path.empty()) {
      std::printf("(no config given — running the built-in demo)\n%s\n\n",
                  kDemoConfig);
    }

    // CLI flags override the config's "telemetry" section.
    if (trace_path.empty()) trace_path = spec.telemetry.trace_out;
    if (sample_interval_ms < 0)
      sample_interval_ms = spec.telemetry.sample_interval_ms;

    // Fail on a bad output path now, not after minutes of pipeline.
    if (!cube_path.empty()) ensure_writable_file(cube_path);
    if (!metrics_path.empty()) ensure_writable_file(metrics_path);
    if (!trace_path.empty()) ensure_writable_file(trace_path);

    const std::size_t workers = std::thread::hardware_concurrency();
    Json run_meta{Json::Object{}};
    run_meta.set("workload", spec.name);
    run_meta.set("seed",
                 static_cast<std::int64_t>(spec.config.clock_seed));
    run_meta.set("ranks", spec.topology.num_ranks());
    run_meta.set("workers", workers);
    telemetry::set_run_metadata(std::move(run_meta));

    if (!trace_path.empty()) {
      if (spec.telemetry.ring_capacity > 0)
        telemetry::Recorder::instance().configure(
            spec.telemetry.ring_capacity);
      telemetry::Recorder::instance().set_enabled(true);
      telemetry::set_thread_label("pipeline");
    }
    if (sample_interval_ms > 0)
      telemetry::start_sampler(sample_interval_ms);

    std::printf("experiment '%s'\n%s\n", spec.name.c_str(),
                spec.topology.describe().c_str());
    auto data =
        workloads::run_experiment(spec.topology, spec.program, spec.config);
    std::printf("run complete: %.3f s virtual, %zu events, %llu messages\n\n",
                data.exec.end_time.s, data.traces.total_events(),
                static_cast<unsigned long long>(data.exec.stats.messages));

    if (!archive_dir.empty() && !streaming) {
      // Round-trip through the on-disk archive so the analyzed traces
      // pass through the hardened decode layer (and, with --permissive,
      // its quarantine-and-proceed recovery). (--stream instead writes
      // the archive after clock synchronization and analyzes it out of
      // core below.)
      const auto layout = archive::FileSystemLayout::shared(
          archive_dir, spec.topology.num_metahosts());
      const auto arch =
          archive::ExperimentArchive::create(spec.topology, layout, spec.name);
      archive::WriteOptions wopts;
      wopts.format_version = static_cast<std::uint32_t>(trace_format);
      arch.write_traces(spec.topology, data.traces, wopts);
      archive::ReadOptions ropts;
      ropts.permissive = permissive;
      archive::ReadReport rep;
      data.traces = arch.read_traces(ropts, &rep);
      std::printf("archive round-trip via %s (%s mode)\n", archive_dir.c_str(),
                  permissive ? "permissive" : "strict");
      if (rep.quarantined.empty()) {
        std::printf("all %d ranks decoded cleanly\n\n",
                    spec.topology.num_ranks());
      } else {
        std::printf("quarantined %zu rank(s), pruned %zu event(s):\n",
                    rep.quarantined.size(), rep.events_pruned);
        for (const auto& q : rep.quarantined)
          std::printf("  rank %d: [%s] %s (%s)\n", q.rank,
                      to_string(q.code), q.reason.c_str(), q.path.c_str());
        std::printf("\n");
        Json qmeta{Json::Object{}};
        Json qranks{Json::Array{}};
        for (const auto& q : rep.quarantined)
          qranks.push_back(Json(static_cast<std::int64_t>(q.rank)));
        qmeta.set("quarantined_ranks", std::move(qranks));
        qmeta.set("events_pruned",
                  static_cast<std::int64_t>(rep.events_pruned));
        telemetry::merge_run_metadata("ingestion", std::move(qmeta));
      }
    }

    if (spec.config.measurement.scheme != tracing::SyncScheme::None) {
      clocksync::synchronize(data.traces);
      const auto violations =
          clocksync::check_clock_condition(data.traces);
      std::printf("clock condition after synchronization: %zu/%zu violations\n",
                  violations.violations, violations.messages);
      if (want_amortize && violations.violations > 0) {
        const auto rep = clocksync::amortize_violations(data.traces);
        std::printf(
            "amortization: repaired %zu receives in %zu passes (max shift "
            "%.1f us)\n",
            rep.repaired_receives, rep.passes, rep.max_shift * 1e6);
      }
      std::printf("\n");
    }

    if (want_profile) {
      const auto prof = report::profile_traces(data.traces);
      std::printf("%s\n",
                  report::render_profile(prof, data.traces.defs).c_str());
    }

    if (want_timeline) {
      std::printf("%s\n", report::render_timeline(data.traces).c_str());
    }

    analysis::ReplayOptions aopts;
    aopts.patterns = have_cli_patterns ? cli_patterns : spec.patterns;
    aopts.memory_budget_bytes = static_cast<std::size_t>(memory_budget);
    analysis::AnalysisResult res;
    if (streaming) {
      // Out-of-core path: the *synchronized* traces go to disk (clock
      // correction rewrites timestamps in memory, so the archive must
      // be written after it for the streamed cube to match), then the
      // replay pulls them back in bounded windows.
      const auto layout = archive::FileSystemLayout::shared(
          archive_dir, spec.topology.num_metahosts());
      const auto arch = archive::ExperimentArchive::create(
          spec.topology, layout, spec.name);
      arch.write_traces(spec.topology, data.traces, archive::WriteOptions{});
      archive::ReadOptions ropts;
      ropts.permissive = permissive;
      archive::ReadReport rep;
      const auto src = arch.stream_source(ropts, &rep);
      std::printf("streaming analysis from %s (%s mode, budget %s)\n",
                  archive_dir.c_str(), permissive ? "permissive" : "strict",
                  memory_budget > 0 ? std::to_string(memory_budget).c_str()
                                    : "default");
      if (!rep.quarantined.empty()) {
        std::printf("quarantined %zu rank(s):\n", rep.quarantined.size());
        for (const auto& q : rep.quarantined)
          std::printf("  rank %d: [%s] %s (%s)\n", q.rank,
                      to_string(q.code), q.reason.c_str(), q.path.c_str());
        Json qmeta{Json::Object{}};
        Json qranks{Json::Array{}};
        for (const auto& q : rep.quarantined)
          qranks.push_back(Json(static_cast<std::int64_t>(q.rank)));
        qmeta.set("quarantined_ranks", std::move(qranks));
        telemetry::merge_run_metadata("ingestion", std::move(qmeta));
      }
      res = analysis::analyze_streaming(src, aopts);
      std::printf(
          "streamed %zu events in %llu windows, peak resident %zu bytes\n\n",
          res.stats.events,
          static_cast<unsigned long long>(
              telemetry::counter("analysis.stream.windows").value()),
          res.stats.trace_bytes_in_memory);
    } else {
      res = analysis::analyze_parallel(data.traces, aopts);
    }
    std::printf("%s\n", report::render_report(res.cube).c_str());
    for (MetricId m :
         {res.patterns.grid_late_sender, res.patterns.grid_late_receiver,
          res.patterns.grid_wait_nxn, res.patterns.grid_wait_barrier,
          res.patterns.grid_nxn_completion,
          res.patterns.grid_barrier_completion}) {
      if (!m.valid()) continue;  // pattern deselected via --patterns
      const std::string pb = report::render_pair_breakdown(res.cube, m);
      if (!pb.empty()) std::printf("%s\n", pb.c_str());
    }

    if (!cube_path.empty()) {
      report::save_cube(cube_path, res.cube);
      std::printf("severity cube written to %s\n", cube_path.c_str());
    }
    telemetry::stop_sampler();
    if (!metrics_path.empty()) {
      telemetry::save_snapshot(metrics_path);
      std::printf("telemetry snapshot written to %s\n",
                  metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      telemetry::save_chrome_trace(trace_path);
      std::printf("execution trace written to %s (open in Perfetto)\n",
                  trace_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "msc_run: %s\n", e.what());
    telemetry::stop_sampler();
    // A failed run is exactly when the timeline matters most: keep
    // whatever the recorder captured.
    if (!trace_path.empty()) {
      try {
        telemetry::save_chrome_trace(trace_path);
        std::fprintf(stderr, "partial execution trace written to %s\n",
                     trace_path.c_str());
      } catch (const Error&) {
      }
    }
    return 1;
  }
}
