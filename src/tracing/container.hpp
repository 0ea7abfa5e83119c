// Rank-block containers: how a partial archive stores its ranks' traces.
//
// Every rank's trace is a task-local logical file (the bytes
// encode_local_trace emits), but a partial archive does not create one
// physical file per rank: creating a file costs the file system
// metadata work that does not parallelize, so at a thousand ranks file
// creation alone outweighed encoding and writing the bytes. Following
// SIONlib (Frings, Wolf, Petkov, "Scalable Massively Parallel I/O to
// Task-Local Files", SC'09), each metahost's blocks live in one
// container file, traces.<metahost>.elg:
//
//   header  magic "MCSC" u32 | container version u32 | metahost u32 |
//           rank count u32
//   index   rank count x { rank u32 | offset u64 | length u64 },
//           strictly rank-ascending
//   blocks  each rank's encoded trace, concatenated in index order
//
// Integers are fixed-width little-endian, offsets absolute. There is no
// padding: the blocks tile the file from the end of the index to the
// end of the file, which is what lets the index decoder check every
// entry against its neighbours and the file size.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/types.hpp"

namespace metascope::tracing {

inline constexpr std::uint32_t kContainerMagic = 0x4353434DU;  // "MCSC"
inline constexpr std::uint32_t kContainerVersion = 1;
inline constexpr std::size_t kContainerHeaderBytes = 16;
inline constexpr std::size_t kContainerEntryBytes = 20;

/// One index entry: where a rank's block sits in its container.
struct BlockEntry {
  Rank rank{kNoRank};
  std::uint64_t offset{0};  ///< absolute file offset
  std::uint64_t length{0};
};

/// A rank's block together with the container holding it.
struct TraceBlock {
  std::string path;
  std::uint64_t offset{0};
  std::uint64_t length{0};
};

/// The container of metahost `metahost` inside a partial archive.
std::string container_filename(int metahost);

/// Writes one container while its blocks are still being encoded.
/// put() takes blocks in any order from any thread and appends each to
/// the file as soon as the blocks of all lower ranks are there, so only
/// blocks that arrive early are held in memory; finish() then writes the
/// header and index into the space reserved for them at the front. The
/// file is byte-identical for every arrival order. I/O failures throw
/// Error (Io, path attached).
class ContainerWriter {
 public:
  /// `ranks` must be ascending: the block order in the file.
  ContainerWriter(std::string path, int metahost, std::vector<Rank> ranks);

  /// Hands over rank r's encoded trace (thread-safe).
  void put(Rank r, std::vector<std::uint8_t> block);

  /// Writes header + index and closes the file; every rank must have
  /// been put. Returns the container's size in bytes.
  std::uint64_t finish();

 private:
  std::mutex mu_;
  std::string path_;
  int metahost_;
  std::vector<Rank> ranks_;
  std::ofstream out_;
  std::vector<std::vector<std::uint8_t>> early_;  ///< by index position
  std::vector<char> arrived_;
  std::vector<std::uint64_t> lengths_;
  std::size_t next_{0};  ///< index position of the next block to write
};

/// Decodes and cross-checks the header and index of the container
/// whose bytes are data[0, size). Checks, each a typed Error:
///   - magic (Corrupt), version (VersionMismatch), the metahost id when
///     `metahost` >= 0 (Corrupt), the rank count cap (LimitExceeded),
///     an index running past the end of the file (Truncated);
///   - ranks strictly ascending — a duplicate or out-of-order entry is
///     Corrupt — and each in `manifest` (sorted) when one is given;
///   - blocks tiling the file after the index: an overlap or a gap is
///     Corrupt, a block past the end of the file Truncated, bytes after
///     the last block Corrupt.
/// Errors carry `path`, the absolute byte offset of the failing field,
/// and the entry's rank (header and trailing-byte failures, which
/// concern the whole container, name the manifest's first rank).
std::vector<BlockEntry> decode_container_index(
    const std::uint8_t* data, std::size_t size, const std::string& path,
    int metahost = -1, const std::vector<Rank>* manifest = nullptr);

/// Decodes the index of the container at `path` as above, against the
/// metahost's manifest rank list; of the blocks, nothing is read.
std::vector<BlockEntry> read_container_index(const std::string& path,
                                             int metahost,
                                             const std::vector<Rank>& manifest);

}  // namespace metascope::tracing
