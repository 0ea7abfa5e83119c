// Binary trace format ("EPILOG-like"): one definitions file shared by the
// experiment plus one event trace per process. The per-process split is
// what makes the metacomputing archive layout (paper §4 "Runtime archive
// management") natural: each metahost's partial archive holds exactly the
// traces of its own processes, as blocks of one container file
// (tracing/container.hpp).
//
// Format versions (decode accepts all of them; encode takes a version
// knob defaulting to the newest — see DESIGN.md §5e for the byte-level
// v3 layout):
//
//   v1  row-wise events; each section's count immediately precedes it.
//   v2  row-wise events; both counts moved into the header so a decoder
//       can size its vectors with a single reserve and report truncation
//       up front by checking the counts against the bytes present.
//   v3  columnar: the header additionally carries per-EventType counts,
//       the event kinds are a nibble-packed type stream, and every
//       Event and OffsetRecord field becomes a per-type column —
//       zigzag-delta varints for the integer columns, and
//       self-describing lossless double columns (raw /
//       XOR-of-bit-pattern deltas / scaled-integer deltas with optional
//       per-value ULP residuals, common/column_codec.hpp) for
//       timestamps and byte counts. Decoded values are bit-identical to
//       what was encoded, so severity cubes stay exactly reproducible;
//       archives shrink ~2x against the (already varint-packed) v2.
//
// The defs file layout is shared by all three versions (only the header
// version number differs).
//
// All decoding goes through the bounds-checked Decoder facade
// (common/binary_io.hpp): every failure is an Error carrying an
// ErrorCode (Truncated / Corrupt / VersionMismatch / LimitExceeded)
// plus the source path, rank, and byte offset. Pass `path` so the
// context names the file; callers that only hold bytes may omit it.
// The pointer+size decode overloads are the zero-copy entry points: the
// archive layer passes a MappedFile's view straight in, and the decoder
// reads out of the mapping without an intermediate copy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracing/trace.hpp"

namespace metascope::tracing {

/// Newest (and default-written) trace format version.
inline constexpr std::uint32_t kTraceFormatVersion = 3;
/// Oldest version the decoders still read.
inline constexpr std::uint32_t kMinTraceFormatVersion = 1;

/// Sanity cap on the rank count a defs file may declare (well above any
/// simulated metacomputer; bounds the decoder's up-front allocation).
inline constexpr std::uint64_t kMaxRanksPerArchive = 1ULL << 22;

/// Serialization of the shared definition records (+ collection flags).
/// `version` must be in [kMinTraceFormatVersion, kTraceFormatVersion].
std::vector<std::uint8_t> encode_defs(const TraceCollection& tc,
                                      std::uint32_t version =
                                          kTraceFormatVersion);

/// Decodes definitions into an empty collection (ranks left empty but
/// sized; scheme/synchronized restored). Accepts every known version.
TraceCollection decode_defs(const std::uint8_t* data, std::size_t size,
                            const std::string& path = {});
TraceCollection decode_defs(const std::vector<std::uint8_t>& bytes,
                            const std::string& path = {});

/// Serialization of one process's events + sync records in the given
/// format version.
std::vector<std::uint8_t> encode_local_trace(const LocalTrace& trace,
                                             std::uint32_t version =
                                                 kTraceFormatVersion);

/// Decodes a trace of any known version (the header's version
/// field selects the layout). The pointer overload borrows the buffer —
/// nothing is copied out of it except the decoded trace itself. `base`
/// is the file offset of data[0] when the trace is a block inside a
/// container, so error offsets address the container file.
LocalTrace decode_local_trace(const std::uint8_t* data, std::size_t size,
                              const std::string& path = {},
                              std::uint64_t base = 0);
LocalTrace decode_local_trace(const std::vector<std::uint8_t>& bytes,
                              const std::string& path = {});

/// Conventional name of the definitions file inside an archive
/// directory (the per-rank traces live in containers, container.hpp).
std::string defs_filename();

}  // namespace metascope::tracing
