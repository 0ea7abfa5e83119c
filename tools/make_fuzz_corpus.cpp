// make_fuzz_corpus — generates the seed corpus for the fuzz harnesses.
//
// Usage: make_fuzz_corpus <outdir>
//
// Runs a miniature two-metahost experiment, encodes its real defs and
// per-rank trace files — current (v3 columnar) format by default, plus
// one rank in each legacy row-wise format — and writes them together
// with structured mutants (truncations, bad magic, future version, and
// v3-specific corners: bad type nibbles, count mismatches, broken
// column frames, bad XOR lead bytes / scale indices / residual widths)
// and small traces aimed at the analyzer stage of fuzz_trace_decode
// into one subdirectory per harness:
//
//   <outdir>/trace_decode/   defs + trace bytes (also seeds sync_decode)
//   <outdir>/sync_decode/    trace bytes rich in sync records
//   <outdir>/config_json/    valid experiment configs
//
// Seeding with real encodings matters: libFuzzer mutates from these, so
// it starts past the magic/version gate instead of spending its budget
// rediscovering four magic bytes. Deterministic output (fixed seeds) —
// CI caches the corpus keyed on the harness sources.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "tracing/epilog_io.hpp"
#include "workloads/config.hpp"
#include "workloads/experiment.hpp"

namespace fs = std::filesystem;
using namespace metascope;

namespace {

const char* kSeedConfig = R"({
  "name": "fuzz-seed",
  "seed": 7,
  "topology": {
    "metahosts": [
      {"name": "A", "nodes": 1, "cpus_per_node": 2, "latency_us": 20},
      {"name": "B", "nodes": 1, "cpus_per_node": 2, "latency_us": 30}
    ],
    "external": {"latency_us": 500, "bandwidth_gbps": 1.0},
    "placement": [
      {"metahost": 0, "nodes": 1, "procs_per_node": 2},
      {"metahost": 1, "nodes": 1, "procs_per_node": 2}
    ]
  },
  "workload": {"kind": "metatrace", "coupling_steps": 2,
               "cg_iterations": 4, "field_mb_total": 8},
  "sync": "hierarchical-two"
})";

const char* kClockbenchConfig = R"({
  "name": "fuzz-clockbench",
  "topology": {
    "metahosts": [{"name": "A", "nodes": 1, "cpus_per_node": 2}],
    "placement": [{"metahost": 0, "nodes": 1, "procs_per_node": 2}]
  },
  "workload": {"kind": "clockbench", "rounds": 16},
  "sync": "flat-two"
})";

const char* kPatternConfig = R"({
  "name": "fuzz-pattern",
  "topology": {
    "metahosts": [{"name": "A", "nodes": 1, "cpus_per_node": 2}],
    "placement": [{"metahost": 0, "nodes": 1, "procs_per_node": 2}]
  },
  "workload": {"kind": "pattern-demo", "pattern": "late-sender"},
  "sync": "none"
})";

void put(const fs::path& dir, const std::string& name,
         const std::vector<std::uint8_t>& bytes) {
  write_file_bytes((dir / name).string(), bytes);
  std::printf("  %s (%zu bytes)\n", (dir / name).string().c_str(),
              bytes.size());
}

void put_text(const fs::path& dir, const std::string& name,
              const std::string& text) {
  put(dir, name,
      std::vector<std::uint8_t>(text.begin(), text.end()));
}

/// Structured mutants of a valid encoding: the decode-path corners a
/// random mutator takes longest to reach.
void put_mutants(const fs::path& dir, const std::string& stem,
                 const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() > 1) {
    put(dir, stem + "_trunc_half",
        std::vector<std::uint8_t>(bytes.begin(),
                                  bytes.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          bytes.size() / 2)));
    put(dir, stem + "_trunc_1",
        std::vector<std::uint8_t>(bytes.begin(), bytes.end() - 1));
  }
  if (bytes.size() >= 8) {
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    put(dir, stem + "_bad_magic", bad_magic);
    auto bad_version = bytes;
    bad_version[4] = 0x7F;  // far-future format version
    put(dir, stem + "_bad_version", bad_version);
  }
}

/// A minimal v3 trace whose header layout is byte-addressable: rank 1,
/// no sync records, two Enter events. Offsets (all varints one byte):
/// rank@8, nsync@9, nev@10, per-type counts@11..15, type stream@16,
/// time-column frame length@17, time payload@18.
std::vector<std::uint8_t> small_v3_trace() {
  tracing::LocalTrace t;
  t.rank = 1;
  for (int i = 1; i <= 2; ++i) {
    tracing::Event e;
    e.type = tracing::EventType::Enter;
    e.time = 1.0e-3 * i;
    e.region = RegionId{i};
    t.events.push_back(e);
  }
  return tracing::encode_local_trace(t, 3);
}

/// Replaces the time column of the minimal v3 trace with a hand-built
/// payload, dropping everything after it (the decoder throws inside the
/// time column, so later columns are never reached).
std::vector<std::uint8_t> with_time_payload(
    const std::vector<std::uint8_t>& payload) {
  auto bytes = small_v3_trace();
  bytes.resize(17);  // keep header + type stream, drop the time frame
  bytes.push_back(static_cast<std::uint8_t>(payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

/// v3-specific structured mutants: columnar-format corners (type-stream
/// nibbles, per-type count cross-checks, column frames) and the double
/// codec's validated fields (XOR lead bytes, scale indices, residual
/// widths). Each hits one exact ErrorCode in the corruption matrix.
void put_v3_mutants(const fs::path& dir) {
  const auto base = small_v3_trace();

  auto bad_nibble = base;
  bad_nibble[16] = 0x07;  // event type 7: no such type
  put(dir, "v3_bad_nibble", bad_nibble);

  auto type_mismatch = base;
  type_mismatch[16] = 0x10;  // second nibble says Exit; header says Enter
  put(dir, "v3_type_count_mismatch", type_mismatch);

  auto count_sum = base;
  count_sum[11] = 3;  // per-type counts sum to 3, header declares 2 events
  put(dir, "v3_count_sum_mismatch", count_sum);

  auto col_len = base;
  col_len[17] += 1;  // frame longer than the codec consumes
  put(dir, "v3_column_len_mismatch", col_len);

  put(dir, "v3_trunc_column",  // cut mid time column
      std::vector<std::uint8_t>(base.begin(), base.begin() + 19));

  auto overrun = base;
  overrun[17] = 200;  // frame declares more bytes than the file holds
  put(dir, "v3_column_overrun", overrun);

  // Codec-level corners: mode byte + the first validated field.
  put(dir, "v3_bad_xor_lead", with_time_payload({0x01, 0x41}));      // 65>64
  put(dir, "v3_bad_scale_index", with_time_payload({0x02, 0xC8}));   // 200
  put(dir, "v3_bad_res_width", with_time_payload({0x04, 0x00, 0x41}));
  put(dir, "v3_bad_mode", with_time_payload({0x2A}));  // unknown mode 42
}

/// Truncated-mid-block mutants for the windowed reader: a trace large
/// enough that the streaming analyzer needs several decode windows per
/// column, cut at points that land inside the later columns (past the
/// type stream and the time column), so the lazy block-decode path hits
/// end-of-file in the middle of a chunked cursor refill rather than at
/// a frame boundary.
void put_midblock_mutants(const fs::path& dir) {
  tracing::LocalTrace t;
  t.rank = 2;
  double now = 0.0;
  for (int i = 0; i < 400; ++i) {
    tracing::Event enter;
    enter.type = tracing::EventType::Enter;
    enter.time = now;
    enter.region = RegionId{1 + (i % 5)};
    t.events.push_back(enter);
    tracing::Event send;
    send.type = i % 2 == 0 ? tracing::EventType::Send
                           : tracing::EventType::Recv;
    send.time = now + 1e-5;
    send.peer = (i * 7) % 4;
    send.tag = i;
    send.bytes = 64.0 * (1 + i % 9);
    send.comm = CommId{0};
    t.events.push_back(send);
    tracing::Event exit;
    exit.type = tracing::EventType::Exit;
    exit.time = now + 3e-5;
    t.events.push_back(exit);
    now += 4.7e-5;
  }
  const auto bytes = tracing::encode_local_trace(t, 3);
  for (const int pct : {55, 70, 85, 97}) {
    put(dir, "v3_trunc_midblock_" + std::to_string(pct),
        std::vector<std::uint8_t>(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(
                                bytes.size() * static_cast<std::size_t>(pct) /
                                100)));
  }
  put(dir, "v3_multiwindow", bytes);
}

/// Seeds for fuzz_trace_decode's analyzer stage, which replays a
/// decoded trace as rank 0 of a one-rank collection with four regions
/// and one communicator: one trace that replays clean (a message to
/// itself and a barrier), and one each whose CollExit communicator or
/// Enter region lies outside those tables.
void put_analyzer_seeds(const fs::path& dir) {
  using tracing::EventType;
  auto encode = [](int coll_comm, int send_region) {
    tracing::LocalTrace t;
    t.rank = 0;
    auto ev = [&](EventType type, double time) -> tracing::Event& {
      tracing::Event e;
      e.type = type;
      e.time = time;
      t.events.push_back(e);
      return t.events.back();
    };
    ev(EventType::Enter, 0.0).region = RegionId{0};
    ev(EventType::Enter, 0.1).region = RegionId{send_region};
    ev(EventType::Send, 0.15).peer = 0;
    ev(EventType::Exit, 0.2);
    ev(EventType::Enter, 0.3).region = RegionId{2};
    ev(EventType::Recv, 0.35).peer = 0;
    ev(EventType::Exit, 0.4);
    ev(EventType::Enter, 0.5).region = RegionId{3};
    tracing::Event& coll = ev(EventType::CollExit, 0.6);
    coll.region = RegionId{3};
    coll.comm = CommId{coll_comm};
    ev(EventType::Exit, 0.7);
    return tracing::encode_local_trace(t);
  };
  put(dir, "analyzer_clean", encode(0, 1));
  put(dir, "analyzer_bad_comm", encode(5, 1));
  put(dir, "analyzer_bad_region", encode(0, 9));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
    return 2;
  }
  try {
    const fs::path out = argv[1];
    const fs::path trace_dir = out / "trace_decode";
    const fs::path sync_dir = out / "sync_decode";
    const fs::path config_dir = out / "config_json";
    fs::create_directories(trace_dir);
    fs::create_directories(sync_dir);
    fs::create_directories(config_dir);

    workloads::ExperimentSpec spec =
        workloads::parse_experiment(Json::parse(kSeedConfig));
    auto data =
        workloads::run_experiment(spec.topology, spec.program, spec.config);

    const auto defs = tracing::encode_defs(data.traces);
    put(trace_dir, "defs", defs);
    put_mutants(trace_dir, "defs", defs);
    for (const auto& t : data.traces.ranks) {
      const auto bytes = tracing::encode_local_trace(t);
      const std::string stem = "rank" + std::to_string(t.rank);
      put(trace_dir, stem, bytes);
      put(sync_dir, stem, bytes);
      if (t.rank == 0) {
        put_mutants(trace_dir, stem, bytes);
        // The legacy row-wise encodings stay decodable behind the
        // version switch — seed both so mutation keeps covering them.
        put(trace_dir, stem + "_v1", tracing::encode_local_trace(t, 1));
        put(trace_dir, stem + "_v2", tracing::encode_local_trace(t, 2));
      }
    }
    put_v3_mutants(trace_dir);
    put_midblock_mutants(trace_dir);
    put_analyzer_seeds(trace_dir);
    // An empty trace is valid too — seed the minimal accepting input.
    tracing::LocalTrace empty;
    empty.rank = 0;
    put(trace_dir, "empty_trace", tracing::encode_local_trace(empty));

    put_text(config_dir, "metatrace.json", kSeedConfig);
    put_text(config_dir, "clockbench.json", kClockbenchConfig);
    put_text(config_dir, "pattern.json", kPatternConfig);

    std::printf("corpus written to %s\n", out.string().c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "make_fuzz_corpus: %s\n", e.what());
    return 1;
  }
}
