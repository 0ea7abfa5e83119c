// Fuzz target: the binary trace/defs decoders. The contract under test
// is the hardened-ingestion invariant: for ANY byte string, decoding
// either succeeds or throws a typed metascope::Error — never crashes,
// never reads out of bounds (ASan), never overflows arithmetic (UBSan),
// never allocates proportionally to attacker-controlled count fields.
//
// Both decoders run on the same input: the magic words ("MCSD" vs
// "MCST") disambiguate real files, so a single corpus exercises both
// paths and the mutator can freely morph one format into the other.
// The corpus seeds all three trace format versions; the v3 columnar
// seeds and mutants (make_fuzz_corpus) aim the mutator at the type
// stream, per-type count cross-checks, column frames, and the double
// codec's validated fields (XOR lead bytes, scale indices, residual
// bit widths).
//
// The windowed reader (tracing::TraceStream — the streaming analyzer's
// lazy block-decode entry point) runs on the same input too: open-time
// validation, the light prepare-pass scan, and a small-window drain
// that forces per-window cursor refills mid-column. It must uphold the
// same invariant as the batch decoder, and the truncated-mid-block
// corpus mutants aim the mutator straight at the window boundaries.
//
// An input that starts with the container magic ("MCSC") is decoded as
// a rank-block container too: the index decoder runs against the
// input's own size and a four-rank manifest {0, 1, 2, 3} (the seed
// experiment's ranks), and every block it accepts is decoded and
// analyzed as a trace, with its offset as the block base.
// make_fuzz_corpus seeds a clean container plus the malformed-index
// cases (truncated header, index past EOF, block past EOF, overlapping
// blocks, duplicate rank, rank missing from the manifest, zero-length
// block).
//
// A trace that decodes goes on into the analyzer: it becomes rank 0 of
// a one-rank collection with fixed minimal definitions (one
// communicator, four regions) and is replayed by analyze_parallel on
// one worker. Decoders do not check event ids against the definitions,
// so this is what reaches the structure walk's id and nesting checks;
// a typed Error is again the accepted outcome.
#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/error.hpp"
#include "tracing/container.hpp"
#include "tracing/epilog_io.hpp"
#include "tracing/stream.hpp"

namespace {

void analyze_as_rank0(metascope::tracing::LocalTrace trace) {
  using namespace metascope;
  tracing::TraceCollection tc;
  tc.scheme = tracing::SyncScheme::None;
  for (const char* name : {"main", "MPI_Send", "MPI_Recv", "MPI_Barrier"})
    tc.defs.regions.intern(name);
  tc.defs.metahosts.push_back({MetahostId{0}, "A"});
  tc.defs.locations.push_back({MetahostId{0}, NodeId{0}, 0, 0});
  tc.defs.comms.push_back({CommId{0}, "world", {0}});
  trace.rank = 0;
  tc.ranks.push_back(std::move(trace));
  analysis::ReplayOptions opts;
  opts.max_workers = 1;
  (void)analysis::analyze_parallel(tc, opts);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    analyze_as_rank0(metascope::tracing::decode_local_trace(bytes, "<fuzz>"));
  } catch (const metascope::Error&) {
    // Typed rejection is the expected outcome for invalid input.
  }
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < 4 && i < size; ++i)
    magic |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  if (magic == metascope::tracing::kContainerMagic) {
    try {
      static const std::vector<metascope::Rank> kManifest{0, 1, 2, 3};
      const auto index = metascope::tracing::decode_container_index(
          data, size, "<fuzz>", -1, &kManifest);
      for (const auto& b : index) {
        try {
          analyze_as_rank0(metascope::tracing::decode_local_trace(
              data + b.offset, static_cast<std::size_t>(b.length), "<fuzz>",
              b.offset));
        } catch (const metascope::Error&) {
        }
      }
    } catch (const metascope::Error&) {
    }
  }
  try {
    (void)metascope::tracing::decode_defs(bytes, "<fuzz>");
  } catch (const metascope::Error&) {
  }
  try {
    metascope::tracing::TraceStream s(bytes.data(), bytes.size(), "<fuzz>");
    s.scan_light([](const metascope::tracing::LightEvent&) {});
    // Tiny windows put every chunked cursor through mid-column refills.
    std::vector<metascope::tracing::Event> sink;
    std::vector<metascope::CollBytes> coll_sink;
    while (!s.at_end()) {
      sink.clear();
      coll_sink.clear();
      if (s.next(sink, 3, &coll_sink) == 0) break;
    }
  } catch (const metascope::Error&) {
  }
  return 0;
}

#include "fuzz_driver.hpp"
