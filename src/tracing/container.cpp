#include "tracing/container.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "tracing/epilog_io.hpp"

namespace metascope::tracing {

namespace {

[[noreturn]] void fail_at(ErrorCode code, const std::string& msg,
                          const std::string& path, Rank rank,
                          std::uint64_t offset) {
  throw Error(code, msg,
              ErrorContext{path, rank, static_cast<std::int64_t>(offset)});
}

}  // namespace

std::string container_filename(int metahost) {
  return "traces." + std::to_string(metahost) + ".elg";
}

ContainerWriter::ContainerWriter(std::string path, int metahost,
                                 std::vector<Rank> ranks)
    : path_(std::move(path)),
      metahost_(metahost),
      ranks_(std::move(ranks)),
      early_(ranks_.size()),
      arrived_(ranks_.size(), 0),
      lengths_(ranks_.size(), 0) {
  errno = 0;
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_)
    throw Error(ErrorCode::Io,
                std::string("cannot open for write") +
                    (errno ? std::string(" (") + std::strerror(errno) + ")"
                           : ""),
                ErrorContext{path_, -1, -1});
  // Reserve the header and index; finish() overwrites them.
  const std::vector<char> head(
      kContainerHeaderBytes + kContainerEntryBytes * ranks_.size(), 0);
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
}

void ContainerWriter::put(Rank r, std::vector<std::uint8_t> block) {
  const auto it = std::lower_bound(ranks_.begin(), ranks_.end(), r);
  MSC_CHECK(it != ranks_.end() && *it == r, "rank not in this container");
  const auto pos = static_cast<std::size_t>(it - ranks_.begin());
  const std::lock_guard<std::mutex> lock(mu_);
  MSC_CHECK(!arrived_[pos], "container block put twice");
  arrived_[pos] = 1;
  early_[pos] = std::move(block);
  for (; next_ < ranks_.size() && arrived_[next_]; ++next_) {
    const std::vector<std::uint8_t>& b = early_[next_];
    out_.write(reinterpret_cast<const char*>(b.data()),
               static_cast<std::streamsize>(b.size()));
    lengths_[next_] = b.size();
    early_[next_] = {};
  }
  if (!out_)
    throw Error(ErrorCode::Io, "write failed", ErrorContext{path_, r, -1});
}

std::uint64_t ContainerWriter::finish() {
  const std::lock_guard<std::mutex> lock(mu_);
  MSC_CHECK(next_ == ranks_.size(), "container finished before every block");
  BufWriter head;
  head.put_u32(kContainerMagic);
  head.put_u32(kContainerVersion);
  head.put_u32(static_cast<std::uint32_t>(metahost_));
  head.put_u32(static_cast<std::uint32_t>(ranks_.size()));
  std::uint64_t offset =
      kContainerHeaderBytes + kContainerEntryBytes * ranks_.size();
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    head.put_u32(static_cast<std::uint32_t>(ranks_[i]));
    head.put_u64(offset);
    head.put_u64(lengths_[i]);
    offset += lengths_[i];
  }
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(head.data().data()),
             static_cast<std::streamsize>(head.size()));
  out_.close();
  if (!out_)
    throw Error(ErrorCode::Io, "write failed", ErrorContext{path_, -1, -1});
  return offset;
}

std::vector<BlockEntry> decode_container_index(
    const std::uint8_t* data, std::size_t size, const std::string& path,
    int metahost, const std::vector<Rank>* manifest) {
  // Failures that concern the whole container name its first rank.
  const Rank first =
      manifest != nullptr && !manifest->empty() ? manifest->front() : kNoRank;
  Decoder d(data, size, ErrorContext{path, first, -1});
  d.expect_magic(kContainerMagic, "trace container");
  d.expect_version(kContainerVersion, "trace container");
  const std::uint32_t mh = d.get_u32();
  if (metahost >= 0 && mh != static_cast<std::uint32_t>(metahost))
    d.fail(ErrorCode::Corrupt,
           "container of metahost " + std::to_string(mh) +
               " found where metahost " + std::to_string(metahost) +
               "'s belongs");
  const std::uint32_t count = d.get_u32();
  if (count > kMaxRanksPerArchive)
    d.fail(ErrorCode::LimitExceeded,
           "container index declares " + std::to_string(count) +
               " ranks (cap " + std::to_string(kMaxRanksPerArchive) + ")");
  const std::uint8_t* table =
      d.get_raw(kContainerEntryBytes * count, "container index");

  std::vector<BlockEntry> index(count);
  // The first block starts right where the index ends; each next one
  // where its predecessor ends; the last one ends the file.
  std::uint64_t expect = kContainerHeaderBytes + kContainerEntryBytes * count;
  Decoder entries(table, kContainerEntryBytes * count,
                  ErrorContext{path, first, kContainerHeaderBytes});
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t at = kContainerHeaderBytes + kContainerEntryBytes * i;
    const std::uint32_t raw_rank = entries.get_u32();
    if (raw_rank > kMaxRanksPerArchive)
      fail_at(ErrorCode::Corrupt,
              "implausible rank id " + std::to_string(raw_rank) +
                  " in container index",
              path, first, at);
    BlockEntry& b = index[i];
    b.rank = static_cast<Rank>(raw_rank);
    b.offset = entries.get_u64();
    b.length = entries.get_u64();
    if (i > 0 && b.rank <= index[i - 1].rank)
      fail_at(ErrorCode::Corrupt,
              b.rank == index[i - 1].rank
                  ? "duplicate container index entry for rank " +
                        std::to_string(b.rank)
                  : "container index out of rank order (rank " +
                        std::to_string(b.rank) + " after rank " +
                        std::to_string(index[i - 1].rank) + ")",
              path, b.rank, at);
    if (manifest != nullptr &&
        !std::binary_search(manifest->begin(), manifest->end(), b.rank))
      fail_at(ErrorCode::Corrupt,
              "container holds a block for rank " + std::to_string(b.rank) +
                  ", which the manifest of metahost " + std::to_string(mh) +
                  " does not list",
              path, b.rank, at);
    const std::string prev =
        i == 0 ? std::string("the index")
               : "the block of rank " + std::to_string(index[i - 1].rank);
    if (b.offset < expect)
      fail_at(ErrorCode::Corrupt,
              "block of rank " + std::to_string(b.rank) + " at byte " +
                  std::to_string(b.offset) + " overlaps " + prev +
                  ", which ends at byte " + std::to_string(expect),
              path, b.rank, at + 4);
    if (b.offset > expect)
      fail_at(ErrorCode::Corrupt,
              "gap of " + std::to_string(b.offset - expect) +
                  " byte(s) between " + prev + " and the block of rank " +
                  std::to_string(b.rank),
              path, b.rank, at + 4);
    if (b.length > size - b.offset)
      fail_at(ErrorCode::Truncated,
              "block of rank " + std::to_string(b.rank) + " (" +
                  std::to_string(b.length) + " bytes at byte " +
                  std::to_string(b.offset) +
                  ") runs past the end of the container (" +
                  std::to_string(size) + " bytes)",
              path, b.rank, at + 12);
    expect = b.offset + b.length;
  }
  if (expect != size)
    fail_at(ErrorCode::Corrupt,
            std::to_string(size - expect) +
                " trailing byte(s) after the last block of the container",
            path, first, expect);
  return index;
}

std::vector<BlockEntry> read_container_index(
    const std::string& path, int metahost, const std::vector<Rank>& manifest) {
  // The whole file is mapped, but only the header and index pages are
  // touched.
  try {
    const MappedFile f = MappedFile::open(path);
    return decode_container_index(f.data(), f.size(), path, metahost,
                                  &manifest);
  } catch (const Error& e) {
    throw e.with_context(
        ErrorContext{path, manifest.empty() ? kNoRank : manifest.front(), -1});
  }
}

}  // namespace metascope::tracing
