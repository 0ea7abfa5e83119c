#include "common/binary_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace metascope {

void BufWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }

void BufWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
}

void BufWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
}

void BufWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BufWriter::put_svarint(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void BufWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void BufWriter::put_string(const std::string& s) {
  put_varint(s.size());
  put_bytes(s.data(), s.size());
}

void BufWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void BufReader::need(std::size_t n) const {
  // size_ - pos_ cannot underflow (pos_ <= size_ is an invariant);
  // comparing against it instead of pos_ + n avoids the wraparound a
  // huge attacker-controlled n would cause.
  if (n > size_ - pos_) throw Error("binary read past end of buffer");
}

std::uint8_t BufReader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t BufReader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t BufReader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t BufReader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1);
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64) throw Error("varint too long");
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  return v;
}

std::int64_t BufReader::get_svarint() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

double BufReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string BufReader::get_string() {
  const std::uint64_t n = get_varint();
  if (n > remaining()) throw Error("binary read past end of buffer");
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

// --- Decoder -------------------------------------------------------------

void Decoder::fail(ErrorCode code, const std::string& msg) const {
  ErrorContext ctx = ctx_;
  ctx.byte_offset = base_ + static_cast<std::int64_t>(pos_);
  throw Error(code, msg, std::move(ctx));
}

void Decoder::need(std::size_t n, const char* what) const {
  if (n > size_ - pos_) {
    fail(ErrorCode::Truncated,
         std::string("truncated: need ") + std::to_string(n) +
             " more byte(s) for " + what + " but only " +
             std::to_string(size_ - pos_) + " remain");
  }
}

std::uint8_t Decoder::get_u8() {
  need(1, "u8");
  return data_[pos_++];
}

std::uint32_t Decoder::get_u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1, "varint");
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64) fail(ErrorCode::Corrupt, "varint longer than 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  return v;
}

std::int64_t Decoder::get_svarint() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

double Decoder::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Decoder::get_string(const char* what) {
  const std::uint64_t n = get_varint();
  if (n > kMaxStringBytes)
    fail(ErrorCode::LimitExceeded,
         std::string(what) + " length " + std::to_string(n) +
             " exceeds the " + std::to_string(kMaxStringBytes) +
             "-byte string cap");
  need(static_cast<std::size_t>(n), what);
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::uint64_t Decoder::get_count(const char* what,
                                 std::size_t min_bytes_per_item) {
  const std::uint64_t n = get_varint();
  if (n > kMaxCount)
    fail(ErrorCode::LimitExceeded,
         std::string("count of ") + what + " (" + std::to_string(n) +
             ") exceeds the sanity cap of " + std::to_string(kMaxCount));
  // A zero per-item floor means the count has no payload of its own
  // (e.g. the defs rank count) — only the absolute cap applies then.
  if (min_bytes_per_item > 0) {
    // n <= 2^27 and min is a small constant, so the product cannot
    // overflow.
    const std::uint64_t floor_bytes = n * min_bytes_per_item;
    if (floor_bytes > remaining())
      fail(ErrorCode::Truncated,
           std::string("truncated: header promises ") + std::to_string(n) +
               " " + what + " (>= " + std::to_string(floor_bytes) +
               " bytes) but only " + std::to_string(remaining()) +
               " payload bytes are present");
  }
  return n;
}

void Decoder::expect_magic(std::uint32_t expected, const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t got = get_u32();
  if (got != expected) {
    pos_ = at;
    fail(ErrorCode::Corrupt,
         std::string("bad ") + what + " magic (got 0x" + [&] {
           char buf[16];
           std::snprintf(buf, sizeof buf, "%08X", got);
           return std::string(buf);
         }() + ")");
  }
}

void Decoder::expect_version(std::uint32_t expected, const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t got = get_u32();
  if (got != expected) {
    pos_ = at;
    fail(ErrorCode::VersionMismatch,
         std::string("unsupported ") + what + " format version " +
             std::to_string(got) + " (this build reads version " +
             std::to_string(expected) + ")");
  }
}

std::uint32_t Decoder::expect_version_in(std::uint32_t lo, std::uint32_t hi,
                                         const char* what) {
  const std::size_t at = pos_;
  const std::uint32_t got = get_u32();
  if (got < lo || got > hi) {
    pos_ = at;
    fail(ErrorCode::VersionMismatch,
         std::string("unsupported ") + what + " format version " +
             std::to_string(got) + " (this build reads versions " +
             std::to_string(lo) + ".." + std::to_string(hi) + ")");
  }
  return got;
}

const std::uint8_t* Decoder::get_raw(std::size_t n, const char* what) {
  need(n, what);
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void Decoder::require_end(const char* what) {
  if (pos_ != size_)
    fail(ErrorCode::Corrupt, std::string("trailing bytes in ") + what + " (" +
                                 std::to_string(size_ - pos_) +
                                 " undecoded)");
}

// --- whole-file helpers --------------------------------------------------

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw Error(ErrorCode::Io,
                std::string("cannot open for write") +
                    (errno ? std::string(" (") + std::strerror(errno) + ")"
                           : ""),
                ErrorContext{path, -1, -1});
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error(ErrorCode::Io, "write failed",
                        ErrorContext{path, -1, -1});
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    throw Error(ErrorCode::Io,
                std::string("cannot open for read") +
                    (errno ? std::string(" (") + std::strerror(errno) + ")"
                           : ""),
                ErrorContext{path, -1, -1});
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw Error(ErrorCode::Io, "read failed",
                       ErrorContext{path, -1, -1});
  return bytes;
}

// --- MappedFile ----------------------------------------------------------

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = other.data_;
    size_ = other.size_;
    map_ = other.map_;
    map_len_ = other.map_len_;
    fallback_ = std::move(other.fallback_);
    if (!fallback_.empty()) data_ = fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.map_ = nullptr;
    other.map_len_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
#if defined(__unix__) || defined(__APPLE__)
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
  size_ = 0;
}

MappedFile MappedFile::open(const std::string& path, bool allow_mmap) {
  return open(path, 0, kToEnd, allow_mmap);
}

MappedFile MappedFile::open(const std::string& path, std::uint64_t offset,
                            std::uint64_t length, bool allow_mmap) {
  std::error_code ec;
  const bool regular = std::filesystem::is_regular_file(path, ec);
  const std::uint64_t file_size =
      regular ? std::filesystem::file_size(path, ec) : 0;
  if (!regular || ec)
    throw Error(ErrorCode::Io,
                "cannot open for read (" +
                    (ec ? ec.message() : std::string("not a regular file")) +
                    ")",
                ErrorContext{path, -1, -1});
  if (length == kToEnd) length = offset <= file_size ? file_size - offset : 0;
  if (offset > file_size || length > file_size - offset)
    throw Error(ErrorCode::Truncated,
                "file ends at byte " + std::to_string(file_size) +
                    " inside the requested range [" + std::to_string(offset) +
                    ", +" + std::to_string(length) + ")",
                ErrorContext{path, -1, static_cast<std::int64_t>(file_size)});
  MappedFile f;
  // mmap rejects zero-length mappings; an empty view is valid and simply
  // fails decoding with Truncated later.
  if (length == 0) return f;
#if defined(__unix__) || defined(__APPLE__)
  const int fd = allow_mmap ? ::open(path.c_str(), O_RDONLY) : -1;
  if (fd >= 0) {
    // Map whole pages: the mapping starts at the page holding `offset`,
    // and data() points at `offset` inside it.
    const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t start = offset - offset % page;
    const auto map_len = static_cast<std::size_t>(offset + length - start);
    void* map = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd,
                       static_cast<off_t>(start));
    ::close(fd);  // the mapping keeps its own reference
    if (map != MAP_FAILED) {
#if defined(POSIX_MADV_SEQUENTIAL)
      ::posix_madvise(map, map_len, POSIX_MADV_SEQUENTIAL);
#endif
      f.map_ = map;
      f.map_len_ = map_len;
      f.data_ = static_cast<const std::uint8_t*>(map) + (offset - start);
      f.size_ = static_cast<std::size_t>(length);
      return f;
    }
    // Mapping refused (e.g. a file system without mmap support): fall
    // through to the owned-buffer path.
  }
#else
  (void)allow_mmap;
#endif
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  f.fallback_.resize(static_cast<std::size_t>(length));
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(f.fallback_.data()),
          static_cast<std::streamsize>(length));
  if (!in)
    throw Error(ErrorCode::Io,
                std::string("read failed") +
                    (errno ? std::string(" (") + std::strerror(errno) + ")"
                           : ""),
                ErrorContext{path, -1, -1});
  f.data_ = f.fallback_.data();
  f.size_ = f.fallback_.size();
  return f;
}

}  // namespace metascope
