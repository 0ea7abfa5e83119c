// perfbench_driver — the end-to-end benchmark of the MetaScope pipeline.
//
// Usage:
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --out-dir <dir> [--tamper-cube]
//
// One process, no threads of its own: the analysis worker pools are the
// program's, sized to the cores in the process's affinity mask. The driver
// first re-executes itself with address-space randomization off
// (disable_aslr). A run
//
//   1. sets the workload up kSetupRepeats times (config parse, program
//      build and, for stream-512, the synchronized v3 input archive) and
//      reports the median as setup_s;
//   2. runs timed passes for --seconds seconds, each calling the layers'
//      public functions in the order msc_run does;
//   3. after the timed passes computes an independent analyze_serial
//      reference and checks every pass's cube bit for bit against it and
//      its event/message/collective counts against the simulator's;
//   4. prints one detail line (medians, quartiles, pass counts) and, as the
//      last line, the JSON result: end-to-end metrics with --trace 0,
//      per-layer metrics with --trace 1.
//
// --trace 1 alternates untraced and traced passes. A traced pass records a
// span (name, start, end, parent) around every layer call plus the
// registry's prepare/replay/dispatch spans; the spans and the registry
// snapshot are written to <out-dir>/spans-<workload>-seed<n>.json. It also
// times the workload's analyzer at one worker and at all workers on the
// reference traces. --tamper-cube perturbs the first pass's cube so the
// correctness gate can be seen to fail; it exists for the benchmark's
// tests.
#include <malloc.h>
#include <sched.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "archive/archive.hpp"
#include "clocksync/clock_condition.hpp"
#include "clocksync/correction.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "report/cubexml.hpp"
#include "report/render.hpp"
#include "simmpi/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"
#include "tracing/measurement.hpp"
#include "workloads/config.hpp"

using namespace metascope;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads -------------------------------------------------------------

// Set-ups per run; setup_s is their median, so one slow set-up (page
// faults of a cold heap, a noisy neighbour) does not move it.
constexpr int kSetupRepeats = 5;
// Decoded-trace budget of the out-of-core replay on stream-512.
constexpr std::size_t kStreamBudgetBytes = std::size_t{16} << 20;
// Spans must cover this share of every traced pass.
constexpr double kMinSpanCoverage = 0.95;
// Analyzer timings per worker count in the traced run's scaling probe.
constexpr int kScalingRepeats = 3;

// The ROADMAP's steady-512: the built-in demo scaled to 512 ranks on two
// metahosts (2,676,928 events, 515,120 messages). The simulator and
// point-to-point matching/suspension dominate it.
const char* kMetatrace512 = R"({"name":"steady-512","seed":11,
 "topology":{"metahosts":[
   {"name":"Alpha","nodes":64,"cpus_per_node":4,"speed":1.0,"latency_us":25,"jitter_us":1,"bandwidth_gbps":1.0},
   {"name":"Beta","nodes":64,"cpus_per_node":4,"speed":0.6,"latency_us":40,"jitter_us":1.5,"bandwidth_gbps":0.5}],
  "external":{"latency_us":950,"jitter_us":4,"bandwidth_gbps":1.25,"asymmetry":0.08},
  "placement":[{"metahost":0,"nodes":64,"procs_per_node":4},{"metahost":1,"nodes":64,"procs_per_node":4}]},
 "workload":{"kind":"metatrace","coupling_steps":10,"cg_iterations":100,"field_mb_total":64},
 "sync":"hierarchical-two"})";

// Ensemble forecast on four metahosts: collectives only, no point-to-point
// messages, so it exercises the simulator's and the replay's collective
// paths and bypasses point-to-point matching.
const char* kEnsemble1024 = R"({"name":"ensemble-1024","seed":11,
 "topology":{"metahosts":[
   {"name":"Alpha","nodes":64,"cpus_per_node":4,"speed":1.0,"latency_us":25,"jitter_us":1,"bandwidth_gbps":1.0},
   {"name":"Beta","nodes":64,"cpus_per_node":4,"speed":0.8,"latency_us":30,"jitter_us":1.2,"bandwidth_gbps":0.8},
   {"name":"Gamma","nodes":64,"cpus_per_node":4,"speed":0.6,"latency_us":40,"jitter_us":1.5,"bandwidth_gbps":0.5},
   {"name":"Delta","nodes":64,"cpus_per_node":4,"speed":0.9,"latency_us":30,"jitter_us":1.2,"bandwidth_gbps":1.0}],
  "external":{"latency_us":950,"jitter_us":4,"bandwidth_gbps":1.25,"asymmetry":0.08},
  "placement":[{"metahost":0,"nodes":64,"procs_per_node":4},{"metahost":1,"nodes":64,"procs_per_node":4},
               {"metahost":2,"nodes":64,"procs_per_node":4},{"metahost":3,"nodes":64,"procs_per_node":4}]},
 "workload":{"kind":"ensemble","members":4,"cycles":10,"timesteps":40},
 "sync":"hierarchical-two"})";

struct WorkloadDef {
  const char* name;
  const char* config;
  /// stream-512: the archive is written in set-up and each pass replays
  /// it out of core, so the simulator does no timed work.
  bool streaming;
};

const WorkloadDef kWorkloads[] = {
    {"metatrace-512", kMetatrace512, false},
    {"ensemble-1024", kEnsemble1024, false},
    {"stream-512", kMetatrace512, true},
};

// --- arguments -------------------------------------------------------------

struct Args {
  const WorkloadDef* workload{nullptr};
  std::uint64_t seed{0};
  int seconds{0};
  bool trace{false};
  fs::path out_dir;
  bool tamper_cube{false};
};

// Whole-string unsigned decimal in [lo, hi]; rejects signs, blanks,
// trailing text and overflow.
bool parse_uint(const char* s, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t& out) {
  if (*s == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = s; *p; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(*p - '0');
    if (v > hi / 10) return false;
    v *= 10;
    if (d > hi - v) return false;
    v += d;
  }
  if (v < lo) return false;
  out = v;
  return true;
}

void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload "
               "{metatrace-512,ensemble-1024,stream-512} --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> "
               "[--tamper-cube]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper-cube") {
      a.tamper_cube = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      for (const auto& w : kWorkloads)
        if (std::strcmp(w.name, val) == 0) a.workload = &w;
      if (!a.workload) usage_error(std::string("unknown workload '") + val + "'");
    } else if (flag == "--seed") {
      // The config's seed is a JSON number (a double): keep it exact.
      if (!parse_uint(val, 0, std::uint64_t{1} << 53, n))
        usage_error(std::string("--seed must be an integer in [0, 2^53], got '") +
                    val + "'");
      a.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(val, 1, 3600, n))
        usage_error(std::string("--seconds must be an integer in [1, 3600], got '") +
                    val + "'");
      a.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!parse_uint(val, 0, 1, n))
        usage_error(std::string("--trace must be 0 or 1, got '") + val + "'");
      a.trace = n == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      a.out_dir = val;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (!a.workload) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (a.seconds == 0) usage_error("--seconds is required");
  if (!have_trace) usage_error("--trace is required");
  if (a.out_dir.empty()) usage_error("--out-dir is required");
  return a;
}

// --- statistics ------------------------------------------------------------

struct Summary {
  double median{0.0};
  double q1{0.0};
  double q3{0.0};
  std::size_t n{0};
};

// Median and quartiles; the quartiles interpolate like Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  auto quartile = [&](std::size_t i) {
    if (n == 1) return v[0];
    const std::size_t m = (n + 1) * i;
    const std::size_t j = std::clamp<std::size_t>(m / 4, 1, n - 1);
    const double delta = static_cast<double>(m) / 4.0 - static_cast<double>(j);
    return v[j - 1] + std::clamp(delta, 0.0, 1.0) * (v[j] - v[j - 1]);
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// Named sample series, e.g. one value per pass of each layer's span.
using SampleMap = std::map<std::string, std::vector<double>>;

double median_of(const SampleMap& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : summarize(it->second).median;
}

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_s{0.0};  ///< since driver start
  double end_s{0.0};
  int parent{-1};       ///< index into the log, -1 = top level
};

// The benchmark's own spans around each layer call. Recording is off in
// untraced passes: a Scope then reads no clock and stores nothing.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.recording_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, log_.now(), 0.0, log_.open_});
      log_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      log_.spans_[static_cast<std::size_t>(index_)].end_s = log_.now();
      log_.open_ = log_.spans_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const { return index_; }

   private:
    SpanLog& log_;
    int index_{-1};
  };

  /// Runs `f` inside a span named `name`.
  template <class F>
  decltype(auto) in(const char* name, F&& f) {
    Scope scope(*this, name);
    return f();
  }

  /// Seconds of each direct child of span `parent` (summed per name).
  [[nodiscard]] std::map<std::string, double> children_of(int parent) const {
    std::map<std::string, double> out;
    for (const auto& s : spans_)
      if (s.parent == parent) out[s.name] += s.end_s - s.start_s;
    return out;
  }

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_;
  bool recording_{false};
  int open_{-1};
  std::vector<Span> spans_;
};

// --- process probes --------------------------------------------------------

// Address-space layout randomization places heaps, thread stacks and malloc
// arenas differently in every process; on ensemble-1024 that alone moved a
// run's median analysis_s between about 0.28 and 0.33 s. Re-executes the
// driver once with it off, so runs differ only in their inputs. Where the
// personality cannot be changed the run keeps ASLR.
void disable_aslr(char** argv) {
  const int persona = personality(0xffffffff);
  if (persona == -1 || (persona & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) ==
      -1)
    return;
  execv("/proc/self/exe", argv);
}

std::size_t affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

// Resets VmHWM to the current resident size (Linux >= 4.0).
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  throw Error(ErrorCode::Io, "perfbench: no VmHWM in /proc/self/status");
}

// --- the pipeline ----------------------------------------------------------

// The counts every pass is checked against: the simulator's (messages,
// collective instances) and the measurement layer's (events).
struct Truth {
  std::uint64_t sim_events{0};
  std::uint64_t messages{0};
  std::uint64_t collectives{0};
  std::uint64_t sweeps{0};
  std::size_t trace_events{0};
};

Truth truth_of(const simmpi::ExecResult& exec,
               const tracing::TraceCollection& traces) {
  return {exec.stats.events, exec.stats.messages, exec.stats.collectives,
          exec.stats.sweeps, traces.total_events()};
}

struct Inputs {
  workloads::ExperimentSpec spec;
  simnet::ClockSet clocks;
  std::size_t workers{1};
  /// stream-512: the synchronized v3 archive written in set-up, and the
  /// counts of the run that produced it.
  std::optional<archive::ExperimentArchive> archive;
  Truth truth;
  double archive_mb{0.0};
};

archive::ExperimentArchive write_archive(const Inputs& in,
                                         const tracing::TraceCollection& tc,
                                         const fs::path& dir) {
  const auto layout = archive::FileSystemLayout::shared(
      dir.string(), in.spec.topology.num_metahosts());
  auto arch = archive::ExperimentArchive::create(in.spec.topology, layout,
                                                 in.spec.name);
  archive::WriteOptions wopts;
  wopts.max_workers = in.workers;
  arch.write_traces(in.spec.topology, tc, wopts);
  return arch;
}

std::uint64_t bytes_on_disk() {
  return telemetry::counter("archive.bytes_on_disk").value();
}

// One set-up, timed by the caller. Records its layer spans in `log`.
Inputs set_up(const WorkloadDef& w, const Args& args, std::size_t workers,
              const fs::path& work_dir, SpanLog& log) {
  Json doc = Json::parse(w.config);
  doc.set("seed", static_cast<std::int64_t>(args.seed));
  workloads::ExperimentSpec spec = log.in("workloads.build_program", [&] {
    return workloads::parse_experiment(doc);
  });
  Rng clock_rng(spec.config.clock_seed);
  simnet::ClockSet clocks = simnet::ClockSet::randomized(
      spec.topology, spec.config.clocks, clock_rng);
  Inputs in{std::move(spec), std::move(clocks), workers, {}, {}, 0.0};
  if (!w.streaming) return in;

  // msc_run --stream: simulate, measure, synchronize, check, then write
  // the synchronized traces as the v3 archive the passes replay.
  const auto& s = in.spec;
  const simmpi::ExecResult exec = log.in("simmpi.execute", [&] {
    return simmpi::execute(s.topology, s.program, s.config.engine);
  });
  tracing::TraceCollection traces = log.in("tracing.collect", [&] {
    return tracing::collect_traces(s.topology, in.clocks, s.program, exec,
                                   s.config.measurement);
  });
  log.in("clocksync.synchronize",
         [&] { clocksync::synchronize(traces, workers); });
  log.in("clocksync.check_condition",
         [&] { (void)clocksync::check_clock_condition(traces); });
  in.truth = truth_of(exec, traces);
  const std::uint64_t disk0 = bytes_on_disk();
  in.archive = log.in("archive.write", [&] {
    return write_archive(in, traces, work_dir / "input");
  });
  in.archive_mb = static_cast<double>(bytes_on_disk() - disk0) / 1e6;
  return in;
}

struct PassResult {
  bool traced{false};
  double wall_s{0.0};
  double analysis_s{0.0};
  double peak_rss_mb{0.0};
  double trace_resident_mb{0.0};
  double archive_mb{0.0};
  report::Cube cube;
  analysis::AnalysisStats stats;
  Truth truth;
  std::uint64_t stream_windows{0};
  /// Traced passes: seconds per layer span (direct children of the pass
  /// span), and the analyzer's prepare/replay/dispatch seconds from the
  /// program's telemetry registry.
  std::map<std::string, double> layers;
  std::map<std::string, double> phases;
};

// Seconds of every span named `name` in a registry span tree.
double registry_span_s(const Json& tree, const std::string& name) {
  if (!tree.is_object()) return 0.0;
  double total = 0.0;
  for (const auto& [key, node] : tree.as_object()) {
    if (key == name) total += node.number_or("total_s", 0.0);
    if (node.has("children"))
      total += registry_span_s(node.at("children"), name);
  }
  return total;
}

// Runs the analysis call `f`; in a traced pass also records how much the
// registry's prepare, replay and dispatch spans grew during it.
template <class F>
analysis::AnalysisResult analyze(SpanLog& log, PassResult& r, F&& f) {
  const bool traced = log.recording();
  const Json before = traced ? telemetry::span_tree_json() : Json();
  analysis::AnalysisResult res = log.in("analysis.analyze", f);
  if (traced) {
    const Json after = telemetry::span_tree_json();
    for (const char* name : {"prepare", "replay", "dispatch"})
      r.phases[std::string("analysis.") + name] =
          registry_span_s(after, name) - registry_span_s(before, name);
  }
  return res;
}

void render(const analysis::AnalysisResult& res, SpanLog& log) {
  log.in("report.render", [&] {
    std::string text = report::render_report(res.cube);
    for (MetricId m :
         {res.patterns.grid_late_sender, res.patterns.grid_late_receiver,
          res.patterns.grid_wait_nxn, res.patterns.grid_wait_barrier,
          res.patterns.grid_nxn_completion,
          res.patterns.grid_barrier_completion})
      if (m.valid()) text += report::render_pair_breakdown(res.cube, m);
    return text;
  });
  log.in("report.cube_xml", [&] { return report::to_cube_xml(res.cube); });
}

analysis::ReplayOptions replay_options(const WorkloadDef& w,
                                       std::size_t workers) {
  analysis::ReplayOptions opts;
  opts.max_workers = workers;
  if (w.streaming) opts.memory_budget_bytes = kStreamBudgetBytes;
  return opts;
}

// What one `msc_run --archive-dir` run does after parsing the config.
PassResult pipeline_pass(const WorkloadDef& w, const Inputs& in,
                         const fs::path& dir, SpanLog& log) {
  PassResult r;
  const auto& s = in.spec;
  simmpi::ExecResult exec = log.in("simmpi.execute", [&] {
    return simmpi::execute(s.topology, s.program, s.config.engine);
  });
  tracing::TraceCollection traces = log.in("tracing.collect", [&] {
    return tracing::collect_traces(s.topology, in.clocks, s.program, exec,
                                   s.config.measurement);
  });
  r.truth = truth_of(exec, traces);
  const std::uint64_t disk0 = bytes_on_disk();
  const auto arch =
      log.in("archive.write", [&] { return write_archive(in, traces, dir); });
  r.archive_mb = static_cast<double>(bytes_on_disk() - disk0) / 1e6;

  const auto analysis_start = Clock::now();
  log.in("archive.read", [&] {
    archive::ReadOptions ropts;
    ropts.max_workers = in.workers;
    traces = arch.read_traces(ropts);
  });
  log.in("clocksync.synchronize",
         [&] { clocksync::synchronize(traces, in.workers); });
  log.in("clocksync.check_condition",
         [&] { (void)clocksync::check_clock_condition(traces); });
  analysis::AnalysisResult res = analyze(log, r, [&] {
    return analysis::analyze_parallel(traces, replay_options(w, in.workers));
  });
  r.analysis_s = seconds_since(analysis_start);

  render(res, log);
  log.in("pipeline.teardown", [&] {
    exec = {};
    traces = {};
  });
  r.cube = std::move(res.cube);
  r.stats = res.stats;
  return r;
}

// msc_run --stream's analysis: open the set-up archive and replay it out
// of core under the memory budget.
PassResult stream_pass(const WorkloadDef& w, const Inputs& in, SpanLog& log) {
  PassResult r;
  r.truth = in.truth;
  r.archive_mb = in.archive_mb;
  telemetry::Counter& windows = telemetry::counter("analysis.stream.windows");
  const std::uint64_t windows0 = windows.value();
  const auto analysis_start = Clock::now();
  tracing::StreamSource src = log.in("archive.stream_open", [&] {
    archive::ReadOptions ropts;
    ropts.max_workers = in.workers;
    return in.archive->stream_source(ropts);
  });
  analysis::AnalysisResult res = analyze(log, r, [&] {
    return analysis::analyze_streaming(src, replay_options(w, in.workers));
  });
  r.analysis_s = seconds_since(analysis_start);
  r.stream_windows = windows.value() - windows0;

  render(res, log);
  log.in("pipeline.teardown", [&] { src = {}; });
  r.cube = std::move(res.cube);
  r.stats = res.stats;
  return r;
}

PassResult timed_pass(const WorkloadDef& w, const Inputs& in,
                      const fs::path& dir, SpanLog& log) {
  // Hand the heap the previous pass or the set-up freed back to the
  // system, so every pass starts from the resident set a fresh msc_run
  // process would have, and its peak RSS is its own.
  malloc_trim(0);
  reset_peak_rss();
  const auto t0 = Clock::now();
  SpanLog::Scope pass_span(log, "pass");
  PassResult r = w.streaming ? stream_pass(w, in, log)
                             : pipeline_pass(w, in, dir, log);
  r.wall_s = seconds_since(t0);
  r.peak_rss_mb = peak_rss_mb();
  r.trace_resident_mb =
      static_cast<double>(r.stats.trace_bytes_in_memory) / 1e6;
  r.traced = log.recording();
  if (r.traced) r.layers = log.children_of(pass_span.index());
  return r;
}

// --- correctness -----------------------------------------------------------

struct Reference {
  analysis::AnalysisResult result;
  Truth truth;
  /// Materialized synchronized traces (input of the scaling probe).
  tracing::TraceCollection traces;
  /// Collective participations: CollExit events over all ranks.
  std::size_t coll_participations{0};
};

// The serial (KOJAK-style) analysis shares no replay scheduling with the
// analyzers under test. Pipeline workloads re-run simulation and
// measurement in memory, so the archive round-trip is checked too;
// stream-512 materializes the same archive with read_traces.
Reference compute_reference(const Inputs& in) {
  Reference ref;
  const auto& s = in.spec;
  if (in.archive) {
    archive::ReadOptions ropts;
    ropts.max_workers = in.workers;
    ref.traces = in.archive->read_traces(ropts);
    ref.truth = in.truth;
  } else {
    const simmpi::ExecResult exec =
        simmpi::execute(s.topology, s.program, s.config.engine);
    ref.traces = tracing::collect_traces(s.topology, in.clocks, s.program,
                                         exec, s.config.measurement);
    ref.truth = truth_of(exec, ref.traces);
    clocksync::synchronize(ref.traces, in.workers);
  }
  ref.result = analysis::analyze_serial(ref.traces);
  for (const auto& t : ref.traces.ranks)
    for (const auto& e : t.events)
      if (e.type == tracing::EventType::CollExit) ++ref.coll_participations;
  return ref;
}

// Empty when `stats`/`cube` agree with the reference and the simulator.
std::string check_result(const report::Cube& cube,
                         const analysis::AnalysisStats& stats,
                         const Truth& truth, const Reference& ref) {
  if (!cube.approx_equal(ref.result.cube, 0.0))
    return "cube differs from the analyze_serial reference";
  if (truth.trace_events != ref.truth.trace_events ||
      truth.messages != ref.truth.messages ||
      truth.collectives != ref.truth.collectives)
    return "simulated/measured counts differ from the reference run";
  if (stats.events != truth.trace_events)
    return "analyzed " + std::to_string(stats.events) + " events, measured " +
           std::to_string(truth.trace_events);
  if (stats.messages != truth.messages)
    return "analyzed " + std::to_string(stats.messages) +
           " messages, simulated " + std::to_string(truth.messages);
  if (stats.collective_instances != truth.collectives)
    return "analyzed " + std::to_string(stats.collective_instances) +
           " collective instances, simulated " +
           std::to_string(truth.collectives);
  return {};
}

// --- the traced run's scaling probe ----------------------------------------

struct Scaling {
  double one_worker_s{0.0};
  double all_workers_s{0.0};
  std::string error;
};

// Times the workload's analyzer at 1 worker and at all workers on the
// reference input, alternating so drift hits both equally, and checks
// each cube against the reference.
Scaling scaling_probe(const WorkloadDef& w, const Inputs& in,
                      const Reference& ref) {
  std::optional<tracing::StreamSource> src;
  if (w.streaming) src = in.archive->stream_source(archive::ReadOptions{});
  std::vector<double> one;
  std::vector<double> all;
  Scaling sc;
  for (int i = 0; i < kScalingRepeats; ++i) {
    for (const std::size_t workers : {std::size_t{1}, in.workers}) {
      const auto t0 = Clock::now();
      const analysis::AnalysisResult res =
          w.streaming
              ? analysis::analyze_streaming(*src, replay_options(w, workers))
              : analysis::analyze_parallel(ref.traces,
                                           replay_options(w, workers));
      (workers == 1 ? one : all).push_back(seconds_since(t0));
      if (!res.cube.approx_equal(ref.result.cube, 0.0))
        sc.error = "scaling probe: cube at " + std::to_string(workers) +
                   " worker(s) differs from the reference";
    }
  }
  sc.one_worker_s = summarize(one).median;
  sc.all_workers_s = summarize(all).median;
  return sc;
}

// --- a run -----------------------------------------------------------------

// What a run measured, before its correctness check.
struct Measured {
  std::vector<double> setup_s;
  /// Traced run: seconds of each set-up layer span, one per set-up.
  SampleMap setup_layers;
  std::optional<Inputs> in;
  std::vector<PassResult> passes;
  std::size_t attempted{0};
  std::vector<std::string> failures;
};

Measured measure(const Args& args, std::size_t workers,
                 const fs::path& work_dir, Clock::time_point process_start,
                 SpanLog& log) {
  const WorkloadDef& w = *args.workload;
  Measured m;
  // Set-up, repeated; the first one is timed from process start.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    m.in.reset();
    fs::remove_all(work_dir / "input");
    const auto t0 = rep == 0 ? process_start : Clock::now();
    SpanLog::Scope setup_span(log, "setup");
    m.in.emplace(set_up(w, args, workers, work_dir, log));
    m.setup_s.push_back(seconds_since(t0));
    if (log.recording())
      for (const auto& [name, secs] : log.children_of(setup_span.index()))
        m.setup_layers[name].push_back(secs);
  }

  // Timed passes; the traced run alternates untraced and traced ones.
  const auto timed_start = Clock::now();
  while (m.attempted == 0 || seconds_since(timed_start) < args.seconds ||
         (args.trace && m.attempted < 2)) {
    log.set_recording(args.trace && m.attempted % 2 == 1);
    ++m.attempted;
    // msc_run leaves its archive behind; the previous pass's one is
    // removed here, outside the timed pass.
    fs::remove_all(work_dir / "pass");
    try {
      m.passes.push_back(timed_pass(w, *m.in, work_dir / "pass", log));
    } catch (const std::exception& e) {
      m.failures.push_back("pass " + std::to_string(m.attempted) + ": " +
                           e.what());
    }
  }
  log.set_recording(false);
  return m;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

using PassList = std::vector<const PassResult*>;

std::vector<double> series(const PassList& passes, double PassResult::*field) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(p->*field);
  return v;
}

Json summary_json(const Summary& s) {
  Json j{Json::Object{}};
  j.set("median", s.median);
  j.set("q1", s.q1);
  j.set("q3", s.q3);
  j.set("n", s.n);
  return j;
}

// --trace 0: medians over the (untraced) passes, setup_s over the set-ups.
std::vector<Metric> end_to_end_metrics(const Measured& m,
                                       const PassList& passes,
                                       std::size_t failed, Json& summaries) {
  std::vector<Metric> out;
  auto add = [&](const char* name, const char* unit, std::vector<double> v) {
    const Summary s = summarize(std::move(v));
    summaries.set(name, summary_json(s));
    out.push_back({name, unit, s.median});
  };
  add("wall_s", "s", series(passes, &PassResult::wall_s));
  add("analysis_s", "s", series(passes, &PassResult::analysis_s));
  add("setup_s", "s", m.setup_s);
  add("peak_rss_mb", "MB", series(passes, &PassResult::peak_rss_mb));
  add("trace_resident_peak_mb", "MB",
      series(passes, &PassResult::trace_resident_mb));
  add("archive_mb", "MB", series(passes, &PassResult::archive_mb));
  out.push_back({"pass_rate", "ratio",
                 static_cast<double>(m.attempted - failed) /
                     static_cast<double>(m.attempted)});
  return out;
}

// --trace 1: medians over the traced passes. A layer that runs only in
// set-up on this workload (the simulator on stream-512) reports its set-up
// median; a layer the workload never runs reports 0. Also checks span
// coverage and runs the scaling probe; problems go to `failures`.
std::vector<Metric> per_layer_metrics(const WorkloadDef& w, Measured& m,
                                      const Reference& ref,
                                      const PassList& traced,
                                      const PassList& untraced,
                                      std::size_t workers, Json& detail,
                                      Json& summaries) {
  SampleMap layer;
  double min_coverage = 1.0;
  for (const PassResult* p : traced) {
    double covered = 0.0;
    for (const auto& [name, secs] : p->layers) {
      layer[name].push_back(secs);
      covered += secs;
    }
    for (const auto& [name, secs] : p->phases) layer[name].push_back(secs);
    layer["pipeline.unattributed"].push_back(p->wall_s - covered);
    min_coverage = std::min(min_coverage, covered / p->wall_s);
    layer["analysis.suspensions"].push_back(
        static_cast<double>(p->stats.replay_suspensions));
    layer["analysis.steals"].push_back(
        static_cast<double>(p->stats.replay_steals));
    layer["analysis.replay_bytes"].push_back(
        static_cast<double>(p->stats.replay_bytes));
    layer["analysis.stream_windows"].push_back(
        static_cast<double>(p->stream_windows));
  }
  if (min_coverage < kMinSpanCoverage)
    m.failures.push_back("spans cover only " +
                         std::to_string(100.0 * min_coverage) +
                         "% of a traced pass");
  const Scaling sc = scaling_probe(w, *m.in, ref);
  if (!sc.error.empty()) m.failures.push_back(sc.error);

  auto layer_s = [&](const std::string& name) {
    const double v = median_of(layer, name);
    return v > 0.0 ? v : median_of(m.setup_layers, name);
  };
  auto rate = [](double work, double secs) {
    return secs > 0.0 ? work / secs : 0.0;
  };
  const Truth& t = ref.truth;
  const auto events = static_cast<double>(t.trace_events);
  const double archive_mb =
      summarize(series(traced, &PassResult::archive_mb)).median;
  const double write_s = layer_s("archive.write");
  const double read_s = layer_s("archive.read");
  const double comm_ops =
      static_cast<double>(t.messages + ref.coll_participations);
  const Summary traced_wall = summarize(series(traced, &PassResult::wall_s));
  const Summary untraced_wall =
      summarize(series(untraced, &PassResult::wall_s));

  summaries.set("traced_wall_s", summary_json(traced_wall));
  summaries.set("untraced_wall_s", summary_json(untraced_wall));
  for (const auto& [name, v] : layer)
    summaries.set(name, summary_json(summarize(v)));
  detail.set("min_span_coverage", min_coverage);
  detail.set("analysis_1_worker_s", sc.one_worker_s);
  detail.set("analysis_all_workers_s", sc.all_workers_s);

  return {
      {"workloads.build_program_s", "s",
       median_of(m.setup_layers, "workloads.build_program")},
      {"simmpi.execute_s", "s", layer_s("simmpi.execute")},
      {"simmpi.events_per_s", "1/s",
       rate(static_cast<double>(t.sim_events), layer_s("simmpi.execute"))},
      {"simmpi.messages", "count", static_cast<double>(t.messages)},
      {"simmpi.collectives", "count", static_cast<double>(t.collectives)},
      {"simmpi.sweeps", "count", static_cast<double>(t.sweeps)},
      {"tracing.collect_s", "s", layer_s("tracing.collect")},
      {"tracing.events_per_s", "1/s",
       rate(events, layer_s("tracing.collect"))},
      {"clocksync.synchronize_s", "s", layer_s("clocksync.synchronize")},
      {"clocksync.check_condition_s", "s",
       layer_s("clocksync.check_condition")},
      {"archive.write_s", "s", write_s},
      {"archive.write_mb_per_s", "MB/s", rate(archive_mb, write_s)},
      {"archive.read_s", "s", read_s},
      {"archive.read_events_per_s", "1/s", rate(events, read_s)},
      {"archive.stream_open_s", "s", layer_s("archive.stream_open")},
      {"archive.bytes_per_event", "B", archive_mb * 1e6 / events},
      {"analysis.analyze_s", "s", layer_s("analysis.analyze")},
      {"analysis.prepare_s", "s", median_of(layer, "analysis.prepare")},
      {"analysis.replay_s", "s", median_of(layer, "analysis.replay")},
      {"analysis.dispatch_s", "s", median_of(layer, "analysis.dispatch")},
      {"analysis.events_per_s_per_core", "1/s",
       rate(events, sc.all_workers_s * static_cast<double>(workers))},
      {"analysis.speedup", "ratio", rate(sc.one_worker_s, sc.all_workers_s)},
      {"analysis.suspensions_per_comm_op", "ratio",
       rate(median_of(layer, "analysis.suspensions"), comm_ops)},
      {"analysis.steals", "count", median_of(layer, "analysis.steals")},
      {"analysis.replay_bytes", "B", median_of(layer, "analysis.replay_bytes")},
      {"analysis.stream_windows", "count",
       median_of(layer, "analysis.stream_windows")},
      {"report.render_s", "s", layer_s("report.render")},
      {"report.cube_xml_s", "s", layer_s("report.cube_xml")},
      {"pipeline.teardown_s", "s", layer_s("pipeline.teardown")},
      {"pipeline.unattributed_s", "s",
       median_of(layer, "pipeline.unattributed")},
      {"pipeline.trace_overhead", "ratio",
       traced_wall.median / untraced_wall.median - 1.0},
  };
}

// The traced run's spans and the registry snapshot, written when it ends.
void write_spans(const fs::path& path, const Args& args, std::size_t workers,
                 const SpanLog& log) {
  Json spans{Json::Array{}};
  for (const auto& s : log.spans()) {
    Json js{Json::Object{}};
    js.set("name", s.name);
    js.set("start_s", s.start_s);
    js.set("end_s", s.end_s);
    js.set("parent", s.parent);
    spans.push_back(std::move(js));
  }
  Json doc{Json::Object{}};
  doc.set("workload", args.workload->name);
  doc.set("seed", static_cast<std::int64_t>(args.seed));
  doc.set("workers", workers);
  doc.set("spans", std::move(spans));
  doc.set("registry", telemetry::snapshot_json());
  save_json_file(path.string(), doc);
}

}  // namespace

int main(int argc, char** argv) {
  disable_aslr(argv);
  const auto process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  const WorkloadDef& w = *args.workload;
  const std::size_t workers = affinity_cores();
  const std::string run_name =
      std::string(w.name) + "-seed" + std::to_string(args.seed);
  const fs::path work_dir = args.out_dir / ("work-" + run_name);
  SpanLog log(process_start);
  log.set_recording(args.trace);

  int exit_code = 0;
  try {
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    Measured m = measure(args, workers, work_dir, process_start, log);
    if (args.tamper_cube && !m.passes.empty()) {
      report::Cube& cube = m.passes.front().cube;
      cube.add(MetricId{0}, CallPathId{0}, 0, 1e-9);
    }

    // Correctness, after peak RSS was read and outside every timing.
    const Reference ref = compute_reference(*m.in);
    std::size_t failed = m.attempted - m.passes.size();
    for (std::size_t i = 0; i < m.passes.size(); ++i) {
      const PassResult& p = m.passes[i];
      const std::string err = check_result(p.cube, p.stats, p.truth, ref);
      if (err.empty()) continue;
      ++failed;
      m.failures.push_back("checked pass " + std::to_string(i + 1) + ": " +
                           err);
    }

    PassList untraced;
    PassList traced;
    Json pass_walls{Json::Array{}};
    for (const auto& p : m.passes) {
      (p.traced ? traced : untraced).push_back(&p);
      pass_walls.push_back(p.wall_s);
    }
    Json detail{Json::Object{}};
    detail.set("workload", w.name);
    detail.set("seed", static_cast<std::int64_t>(args.seed));
    detail.set("workers", workers);
    detail.set("setup_repeats", kSetupRepeats);
    detail.set("events", ref.truth.trace_events);
    detail.set("messages", static_cast<std::size_t>(ref.truth.messages));
    detail.set("collectives", static_cast<std::size_t>(ref.truth.collectives));
    detail.set("passes_attempted", m.attempted);
    detail.set("pass_wall_s", std::move(pass_walls));
    Json summaries{Json::Object{}};
    std::vector<Metric> metrics;
    if (args.trace) {
      metrics = per_layer_metrics(w, m, ref, traced, untraced, workers,
                                  detail, summaries);
      const fs::path spans_path = args.out_dir / ("spans-" + run_name + ".json");
      write_spans(spans_path, args, workers, log);
      detail.set("spans_file", spans_path.string());
    } else {
      metrics = end_to_end_metrics(m, untraced, failed, summaries);
    }
    detail.set("summaries", std::move(summaries));
    Json errs{Json::Array{}};
    for (const auto& f : m.failures) {
      std::fprintf(stderr, "perfbench_driver: FAILED %s\n", f.c_str());
      errs.push_back(f);
    }
    detail.set("failures", std::move(errs));
    const bool correct = m.failures.empty();

    Json mj{Json::Object{}};
    for (const auto& metric : metrics) {
      Json v{Json::Object{}};
      v.set("value", metric.value);
      v.set("unit", metric.unit);
      mj.set(metric.name, std::move(v));
    }
    Json result{Json::Object{}};
    result.set("correct", correct);
    result.set("attempted", m.attempted);
    result.set("failed", failed);
    result.set("metrics", std::move(mj));
    Json detail_line{Json::Object{}};
    detail_line.set("detail", std::move(detail));
    std::printf("%s\n%s\n", detail_line.dump().c_str(),
                result.dump().c_str());
    if (!correct) exit_code = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    exit_code = 1;
  }
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  return exit_code;
}
