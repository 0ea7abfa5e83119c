// Test-side access to the rank blocks inside an archive's container
// files (tracing/container.hpp). The parser and writer here are written
// against the documented byte layout, independently of the library's
// own, so corruption tests can cut, replace or drop one rank's block
// and patch index fields at known offsets:
//
//   header  magic u32 | version u32 | metahost u32 | count u32  (16 B)
//   index   count x { rank u32 | offset u64 | length u64 }      (20 B)
//   blocks  concatenated in index order
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/types.hpp"

namespace metascope::container_edit {

inline constexpr std::size_t kHeader = 16;
inline constexpr std::size_t kEntry = 20;

inline std::uint64_t load(const std::vector<std::uint8_t>& b, std::size_t at,
                          int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= static_cast<std::uint64_t>(b.at(at + static_cast<std::size_t>(i)))
         << (8 * i);
  return v;
}

inline void store(std::vector<std::uint8_t>& b, std::size_t at, int width,
                  std::uint64_t v) {
  for (int i = 0; i < width; ++i)
    b.at(at + static_cast<std::size_t>(i)) =
        static_cast<std::uint8_t>(v >> (8 * i));
}

/// Byte offsets of index entry i's fields.
inline std::size_t rank_field(std::size_t i) { return kHeader + kEntry * i; }
inline std::size_t offset_field(std::size_t i) { return rank_field(i) + 4; }
inline std::size_t length_field(std::size_t i) { return rank_field(i) + 12; }

/// A parsed container: header words plus each block's rank and bytes.
struct Container {
  std::uint32_t magic{0};
  std::uint32_t version{0};
  std::uint32_t metahost{0};
  std::vector<Rank> ranks;
  std::vector<std::vector<std::uint8_t>> blocks;

  static Container load_file(const std::string& path) {
    const auto bytes = read_file_bytes(path);
    Container c;
    c.magic = static_cast<std::uint32_t>(load(bytes, 0, 4));
    c.version = static_cast<std::uint32_t>(load(bytes, 4, 4));
    c.metahost = static_cast<std::uint32_t>(load(bytes, 8, 4));
    const auto n = static_cast<std::size_t>(load(bytes, 12, 4));
    for (std::size_t i = 0; i < n; ++i) {
      const auto off = static_cast<std::size_t>(load(bytes, offset_field(i), 8));
      const auto len = static_cast<std::size_t>(load(bytes, length_field(i), 8));
      c.ranks.push_back(static_cast<Rank>(load(bytes, rank_field(i), 4)));
      c.blocks.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                            bytes.begin() +
                                static_cast<std::ptrdiff_t>(off + len));
    }
    return c;
  }

  /// Re-emits the container with the blocks tiled after the index.
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    std::vector<std::uint8_t> out(kHeader + kEntry * ranks.size());
    store(out, 0, 4, magic);
    store(out, 4, 4, version);
    store(out, 8, 4, metahost);
    store(out, 12, 4, ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      store(out, rank_field(i), 4, static_cast<std::uint64_t>(ranks[i]));
      store(out, offset_field(i), 8, out.size());
      store(out, length_field(i), 8, blocks[i].size());
      out.insert(out.end(), blocks[i].begin(), blocks[i].end());
    }
    return out;
  }

  [[nodiscard]] std::size_t entry_of(Rank r) const {
    const auto it = std::find(ranks.begin(), ranks.end(), r);
    EXPECT_NE(it, ranks.end()) << "rank " << r << " not in container";
    return static_cast<std::size_t>(it - ranks.begin());
  }
};

/// Rank r's block bytes.
inline std::vector<std::uint8_t> read_block(const std::string& path, Rank r) {
  const Container c = Container::load_file(path);
  return c.blocks[c.entry_of(r)];
}

/// Absolute file offset of rank r's block.
inline std::uint64_t block_offset(const std::string& path, Rank r) {
  const Container c = Container::load_file(path);
  const auto bytes = read_file_bytes(path);
  return load(bytes, offset_field(c.entry_of(r)), 8);
}

/// Replaces rank r's block (any length, empty included); the index is
/// rewritten to match, so only that rank's bytes change meaning.
inline void write_block(const std::string& path, Rank r,
                        const std::vector<std::uint8_t>& block) {
  Container c = Container::load_file(path);
  c.blocks[c.entry_of(r)] = block;
  write_file_bytes(path, c.bytes());
}

/// Removes rank r's block and index entry.
inline void drop_block(const std::string& path, Rank r) {
  Container c = Container::load_file(path);
  const std::size_t i = c.entry_of(r);
  c.ranks.erase(c.ranks.begin() + static_cast<std::ptrdiff_t>(i));
  c.blocks.erase(c.blocks.begin() + static_cast<std::ptrdiff_t>(i));
  write_file_bytes(path, c.bytes());
}

}  // namespace metascope::container_edit
