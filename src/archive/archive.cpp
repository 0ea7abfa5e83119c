#include "archive/archive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <utility>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "tracing/container.hpp"
#include "tracing/epilog_io.hpp"

namespace fs = std::filesystem;

namespace metascope::archive {

// --- FileSystemLayout ----------------------------------------------------

FileSystemLayout FileSystemLayout::shared(const std::string& root,
                                          int num_metahosts) {
  MSC_CHECK(num_metahosts > 0, "layout needs metahosts");
  FileSystemLayout l;
  l.roots_.assign(static_cast<std::size_t>(num_metahosts), root);
  return l;
}

FileSystemLayout FileSystemLayout::per_metahost(const std::string& base,
                                                int num_metahosts) {
  MSC_CHECK(num_metahosts > 0, "layout needs metahosts");
  FileSystemLayout l;
  for (int m = 0; m < num_metahosts; ++m)
    l.roots_.push_back(base + "/fs" + std::to_string(m));
  return l;
}

FileSystemLayout FileSystemLayout::custom(std::vector<std::string> roots) {
  MSC_CHECK(!roots.empty(), "layout needs metahosts");
  FileSystemLayout l;
  l.roots_ = std::move(roots);
  return l;
}

const std::string& FileSystemLayout::root_of(MetahostId m) const {
  MSC_CHECK(m.valid() && static_cast<std::size_t>(m.get()) < roots_.size(),
            "metahost out of layout range");
  return roots_[static_cast<std::size_t>(m.get())];
}

bool FileSystemLayout::same_fs(MetahostId a, MetahostId b) const {
  return root_of(a) == root_of(b);
}

// --- ExperimentArchive ---------------------------------------------------

namespace {

int log2_ceil(int n) {
  int r = 0;
  int s = 1;
  while (s < n) {
    s *= 2;
    ++r;
  }
  return std::max(r, 1);
}

std::string archive_dir_name(const std::string& experiment) {
  return experiment + ".msc";
}

/// Attempts mkdir; true if the directory exists afterwards and either we
/// created it or it was already there from this experiment.
bool try_create(const std::string& path, CreationStats* stats) {
  if (stats) ++stats->create_attempts;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  const bool created = fs::create_directory(path, ec);
  if (created && stats) ++stats->directories_created;
  return created || fs::exists(path);
}

bool is_visible(const std::string& path, CreationStats* stats) {
  if (stats) ++stats->visibility_checks;
  return fs::exists(path);
}

}  // namespace

ExperimentArchive ExperimentArchive::create(const simnet::Topology& topo,
                                            const FileSystemLayout& layout,
                                            const std::string& experiment_name,
                                            CreationStats* stats) {
  MSC_CHECK(layout.num_metahosts() == topo.num_metahosts(),
            "layout/topology metahost mismatch");
  CreationStats local_stats;
  CreationStats* st = stats ? stats : &local_stats;

  ExperimentArchive a;
  a.name_ = experiment_name;
  a.dir_by_metahost_.resize(
      static_cast<std::size_t>(topo.num_metahosts()));
  a.ranks_by_metahost_.resize(
      static_cast<std::size_t>(topo.num_metahosts()));
  for (Rank r = 0; r < topo.num_ranks(); ++r)
    a.ranks_by_metahost_[static_cast<std::size_t>(
                             topo.metahost_of(r).get())]
        .push_back(r);

  const std::string dname = archive_dir_name(experiment_name);

  // Step 1: rank 0 creates the archive on its own file system and
  // broadcasts the outcome (one broadcast, log2(p) messages).
  const MetahostId mh0 = topo.metahost_of(0);
  const std::string dir0 = layout.root_of(mh0) + "/" + dname;
  const bool ok0 = try_create(dir0, st);
  ++st->broadcasts;
  if (!ok0) {
    st->aborted = true;
    throw Error("archive creation failed on rank 0: " + dir0);
  }

  // Step 2: each local master checks visibility on its file system and
  // creates a partial archive if it cannot see one.
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const MetahostId mh{m};
    const std::string dir = layout.root_of(mh) + "/" + dname;
    if (!is_visible(dir, st)) {
      if (!try_create(dir, st)) {
        st->aborted = true;
        throw Error("partial archive creation failed: " + dir);
      }
    }
    a.dir_by_metahost_[static_cast<std::size_t>(m)] = dir;
  }

  // Step 3: every process verifies visibility; one all-reduce combines
  // the results.
  bool all_visible = true;
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    const std::string& dir =
        a.dir_by_metahost_[static_cast<std::size_t>(
            topo.metahost_of(r).get())];
    all_visible = is_visible(dir, st) && all_visible;
  }
  ++st->allreduces;
  if (!all_visible) {
    st->aborted = true;
    throw Error("archive invisible to at least one process; aborting");
  }
  (void)log2_ceil(topo.num_ranks());
  return a;
}

ExperimentArchive ExperimentArchive::create_naive(
    const simnet::Topology& topo, const FileSystemLayout& layout,
    const std::string& experiment_name, CreationStats* stats) {
  MSC_CHECK(layout.num_metahosts() == topo.num_metahosts(),
            "layout/topology metahost mismatch");
  CreationStats local_stats;
  CreationStats* st = stats ? stats : &local_stats;

  ExperimentArchive a;
  a.name_ = experiment_name;
  a.dir_by_metahost_.resize(static_cast<std::size_t>(topo.num_metahosts()));
  a.ranks_by_metahost_.resize(
      static_cast<std::size_t>(topo.num_metahosts()));
  const std::string dname = archive_dir_name(experiment_name);

  // Every process hammers mkdir on its own file system — correct result,
  // O(P) redundant metadata operations (the contention the hierarchical
  // protocol avoids).
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    const MetahostId mh = topo.metahost_of(r);
    const std::string dir = layout.root_of(mh) + "/" + dname;
    if (!try_create(dir, st)) {
      st->aborted = true;
      throw Error("archive creation failed: " + dir);
    }
    a.dir_by_metahost_[static_cast<std::size_t>(mh.get())] = dir;
    a.ranks_by_metahost_[static_cast<std::size_t>(mh.get())].push_back(r);
  }
  return a;
}

const std::string& ExperimentArchive::dir_of(MetahostId m) const {
  MSC_CHECK(m.valid() && static_cast<std::size_t>(m.get()) <
                             dir_by_metahost_.size(),
            "metahost out of range");
  const std::string& d = dir_by_metahost_[static_cast<std::size_t>(m.get())];
  MSC_CHECK(!d.empty(), "metahost has no archive directory");
  return d;
}

std::vector<std::string> ExperimentArchive::partial_dirs() const {
  std::vector<std::string> out;
  for (const auto& d : dir_by_metahost_)
    if (!d.empty() && std::find(out.begin(), out.end(), d) == out.end())
      out.push_back(d);
  return out;
}

std::string ExperimentArchive::container_path(MetahostId m) const {
  return dir_of(m) + "/" + tracing::container_filename(m.get());
}

void ExperimentArchive::write_traces(const simnet::Topology& topo,
                                     const tracing::TraceCollection& tc,
                                     const WriteOptions& opts) const {
  MSC_CHECK(tc.num_ranks() == topo.num_ranks(),
            "collection/topology rank mismatch");
  const std::uint32_t version = opts.format_version != 0
                                    ? opts.format_version
                                    : tracing::kTraceFormatVersion;
  telemetry::ScopedSpan span("archive_write");
  // Definitions + manifest go into every partial archive; each rank's
  // trace goes only where that rank can write.
  std::uint64_t bytes_on_disk = 0;
  const auto defs_bytes = tracing::encode_defs(tc, version);
  for (const std::string& dir : partial_dirs()) {
    write_file_bytes(dir + "/" + tracing::defs_filename(), defs_bytes);
    bytes_on_disk += defs_bytes.size();
  }

  // One container per metahost, its blocks in rank order: the number of
  // files created does not grow with the rank count (see
  // tracing/container.hpp). The pool encodes ranks in parallel and each
  // block goes to its container as soon as the lower ranks' blocks are
  // written, so the files are byte-identical for any worker count and
  // few encoded blocks are ever held at once.
  std::deque<tracing::ContainerWriter> writers;
  for (std::size_t m = 0; m < ranks_by_metahost_.size(); ++m) {
    const MetahostId mh{static_cast<int>(m)};
    writers.emplace_back(container_path(mh), mh.get(),
                         ranks_by_metahost_[m]);
  }
  telemetry::RecordingObserver rec_obs(
      "archive_write",
      telemetry::RecordingObserver::fanout_stride(tc.ranks.size()));
  const auto pst = parallel_for(
      tc.ranks.size(), opts.max_workers,
      [&](std::size_t i) {
        const auto& t = tc.ranks[i];
        writers[static_cast<std::size_t>(topo.metahost_of(t.rank).get())].put(
            t.rank, tracing::encode_local_trace(t, version));
      },
      &rec_obs);
  telemetry::record_stage_parallelism("archive_write", pst);
  for (auto& w : writers) bytes_on_disk += w.finish();
  telemetry::counter("archive.bytes_on_disk").add(bytes_on_disk);
  telemetry::counter("archive.bytes_in_memory")
      .add(tracing::in_memory_bytes(tc));

  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const MetahostId mh{m};
    Json manifest;
    manifest.set("experiment", name_);
    manifest.set("format_version", static_cast<int>(version));
    manifest.set("metahost_id", m);
    Json ranks;
    for (Rank r :
         ranks_by_metahost_[static_cast<std::size_t>(m)])
      ranks.push_back(r);
    if (ranks.is_null()) ranks = Json(Json::Array{});
    manifest.set("ranks", ranks);
    save_json_file(dir_of(mh) + "/manifest." + std::to_string(m) + ".json",
                   manifest);
  }
}

void ExperimentArchive::write_traces(const simnet::Topology& topo,
                                     const tracing::TraceCollection& tc,
                                     std::size_t max_workers) const {
  WriteOptions opts;
  opts.max_workers = max_workers;
  write_traces(topo, tc, opts);
}

std::vector<Rank> ReadReport::quarantined_ranks() const {
  std::vector<Rank> out;
  out.reserve(quarantined.size());
  for (const auto& q : quarantined) out.push_back(q.rank);
  return out;
}

namespace {

/// Decodes the definitions from the first partial archive whose replica
/// reads; in permissive mode a damaged replica falls back to the next.
tracing::TraceCollection read_defs_replica(
    const std::vector<std::string>& dirs, const ReadOptions& opts,
    std::uint64_t& bytes_read) {
  for (std::size_t i = 0;; ++i) {
    const std::string path = dirs[i] + "/" + tracing::defs_filename();
    try {
      const MappedFile f = MappedFile::open(path, opts.use_mmap);
      auto tc = tracing::decode_defs(f.data(), f.size(), path);
      bytes_read += f.size();
      return tc;
    } catch (const Error&) {
      if (!opts.permissive || i + 1 == dirs.size()) throw;
    }
  }
}

/// Rank r's block in a decoded container index. A rank the manifest
/// lists but the index lacks is Io, like the missing file it stands in
/// for: its data cannot be found, while every block that is there
/// stays addressable.
tracing::TraceBlock block_of(const std::vector<tracing::BlockEntry>& index,
                             const std::string& path, Rank r) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), r,
      [](const tracing::BlockEntry& e, Rank x) { return e.rank < x; });
  if (it == index.end() || it->rank != r)
    throw Error(ErrorCode::Io,
                "container has no trace block for rank " + std::to_string(r),
                ErrorContext{path, r, -1});
  return tracing::TraceBlock{path, it->offset, it->length};
}

/// The decoded block must be the rank the index filed it under.
void check_block_rank(Rank claimed, Rank r, const tracing::TraceBlock& b) {
  if (claimed != r)
    throw Error(ErrorCode::Corrupt,
                "trace block rank mismatch (block claims rank " +
                    std::to_string(claimed) + ")",
                ErrorContext{b.path, r, static_cast<std::int64_t>(b.offset)});
}

/// Runs `body` for every located block on up to opts.max_workers
/// threads. A rank whose body throws fails the read with its container
/// and rank attached (strict), or joins `quarantined` (permissive),
/// which ends up sorted by rank whatever the interleaving.
void for_each_block(
    const std::vector<tracing::TraceBlock>& blocks, const ReadOptions& opts,
    const char* stage, std::vector<QuarantineRecord>& quarantined,
    const std::function<void(Rank, const tracing::TraceBlock&)>& body) {
  std::mutex quarantine_mu;
  telemetry::RecordingObserver rec_obs(
      stage, telemetry::RecordingObserver::fanout_stride(blocks.size()));
  const auto pst = parallel_for(
      blocks.size(), opts.max_workers,
      [&](std::size_t i) {
        const auto r = static_cast<Rank>(i);
        const tracing::TraceBlock& b = blocks[i];
        if (b.path.empty()) return;  // quarantined while locating
        try {
          body(r, b);
        } catch (const Error& e) {
          if (!opts.permissive)
            throw e.with_context(ErrorContext{b.path, r, -1});
          const std::lock_guard<std::mutex> lock(quarantine_mu);
          quarantined.push_back(
              QuarantineRecord{r, b.path, e.code(), e.base_message()});
        }
      },
      &rec_obs);
  telemetry::record_stage_parallelism(stage, pst);
  std::sort(quarantined.begin(), quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return a.rank < b.rank;
            });
  if (!quarantined.empty())
    telemetry::counter("archive.read.quarantined").add(quarantined.size());
}

}  // namespace

std::vector<tracing::TraceBlock> ExperimentArchive::locate_blocks(
    std::size_t num_ranks, bool permissive,
    std::vector<QuarantineRecord>& quarantined) const {
  std::vector<tracing::TraceBlock> blocks(num_ranks);
  for (std::size_t m = 0; m < ranks_by_metahost_.size(); ++m) {
    const std::vector<Rank>& ranks = ranks_by_metahost_[m];
    const MetahostId mh{static_cast<int>(m)};
    const std::string path = container_path(mh);
    for (const Rank r : ranks)
      if (static_cast<std::size_t>(r) >= num_ranks)
        throw Error(ErrorCode::Corrupt,
                    "the definitions declare " + std::to_string(num_ranks) +
                        " ranks, but metahost " + std::to_string(m) +
                        "'s manifest lists rank " + std::to_string(r),
                    ErrorContext{path, r, -1});
    std::vector<tracing::BlockEntry> index;
    try {
      index = tracing::read_container_index(path, mh.get(), ranks);
    } catch (const Error& e) {
      if (!permissive) throw;
      // A header or index that does not decode leaves no block of this
      // container addressable: every rank in it is quarantined.
      for (const Rank r : ranks)
        quarantined.push_back(
            QuarantineRecord{r, path, e.code(), e.base_message()});
      continue;
    }
    for (const Rank r : ranks) {
      try {
        blocks[static_cast<std::size_t>(r)] = block_of(index, path, r);
      } catch (const Error& e) {
        if (!permissive) throw;
        quarantined.push_back(
            QuarantineRecord{r, path, e.code(), e.base_message()});
      }
    }
  }
  return blocks;
}

tracing::TraceCollection ExperimentArchive::read_traces(
    const ReadOptions& opts, ReadReport* report) const {
  MSC_CHECK(!dir_by_metahost_.empty(), "empty archive");
  telemetry::ScopedSpan span("archive_read");
  if (report) *report = ReadReport{};

  // The defs header names the rank count, so each rank's Trace slot is
  // pre-sized before any block is opened; the per-rank decoders then
  // fill their slots straight from the mappings.
  std::uint64_t defs_bytes = 0;
  tracing::TraceCollection tc =
      read_defs_replica(partial_dirs(), opts, defs_bytes);
  std::atomic<std::uint64_t> bytes_read{defs_bytes};
  std::vector<QuarantineRecord> quarantined;
  const auto blocks =
      locate_blocks(tc.ranks.size(), opts.permissive, quarantined);
  for_each_block(
      blocks, opts, "archive_read", quarantined,
      [&](Rank r, const tracing::TraceBlock& b) {
        // Zero-copy: decode straight out of the block's mapping (or out
        // of the owned-buffer fallback — identical bytes either way).
        const MappedFile f =
            MappedFile::open(b.path, b.offset, b.length, opts.use_mmap);
        auto trace =
            tracing::decode_local_trace(f.data(), f.size(), b.path, b.offset);
        bytes_read.fetch_add(f.size(), std::memory_order_relaxed);
        check_block_rank(trace.rank, r, b);
        tc.ranks[static_cast<std::size_t>(r)] = std::move(trace);
      });
  telemetry::counter("archive.read.bytes")
      .add(bytes_read.load(std::memory_order_relaxed));

  if (!quarantined.empty()) {
    // Quarantined ranks come back as empty traces; survivors are pruned
    // of the events that can no longer match.
    std::vector<Rank> rs;
    for (const auto& q : quarantined) {
      rs.push_back(q.rank);
      tc.ranks[static_cast<std::size_t>(q.rank)] = tracing::LocalTrace{};
      tc.ranks[static_cast<std::size_t>(q.rank)].rank = q.rank;
    }
    const std::size_t pruned = tracing::prune_quarantined(tc, rs);
    telemetry::counter("archive.read.pruned_events").add(pruned);
    if (report) {
      report->quarantined = std::move(quarantined);
      report->events_pruned = pruned;
    }
  }
  return tc;
}

tracing::TraceCollection ExperimentArchive::read_traces(
    std::size_t max_workers) const {
  ReadOptions opts;
  opts.max_workers = max_workers;
  return read_traces(opts);
}

tracing::StreamSource ExperimentArchive::stream_source(
    const ReadOptions& opts, ReadReport* report) const {
  MSC_CHECK(!dir_by_metahost_.empty(), "empty archive");
  telemetry::ScopedSpan span("archive_stream_open");
  if (report) *report = ReadReport{};

  tracing::StreamSource src;
  src.use_mmap = opts.use_mmap;
  std::uint64_t defs_bytes = 0;
  src.defs = read_defs_replica(partial_dirs(), opts, defs_bytes);
  std::atomic<std::uint64_t> bytes{defs_bytes};
  std::vector<QuarantineRecord> quarantined;
  src.blocks =
      locate_blocks(src.defs.ranks.size(), opts.permissive, quarantined);

  // Open-time validation fan-out: everything short of the column
  // payloads is checked per rank, so a corrupt block is caught (and, in
  // permissive mode, quarantined) before any analysis state exists.
  // The replay maps the blocks again; each block's bytes are counted as
  // read here, since streaming decodes all of them exactly once.
  for_each_block(
      src.blocks, opts, "archive_stream_open", quarantined,
      [&](Rank r, const tracing::TraceBlock& b) {
        const MappedFile f =
            MappedFile::open(b.path, b.offset, b.length, opts.use_mmap);
        tracing::TraceStream s(f.data(), f.size(), b.path, b.offset);
        bytes.fetch_add(f.size(), std::memory_order_relaxed);
        check_block_rank(s.rank(), r, b);
        if (opts.permissive) {
          // Quarantine decisions must match read_traces, and open-time
          // validation alone cannot see codec-level corruption inside
          // the column payloads. Permissive mode therefore drains each
          // stream once — windows are decoded and discarded, nothing is
          // materialized — so every rank is classified up front. Strict
          // mode skips the drain: payload corruption surfaces from
          // whichever replay window decodes it, with the same error code
          // and container/rank/offset context.
          std::vector<tracing::Event> sink;
          while (!s.at_end()) {
            sink.clear();
            s.next(sink, 4096);
          }
        }
      });
  telemetry::counter("archive.read.bytes")
      .add(bytes.load(std::memory_order_relaxed));

  for (const auto& q : quarantined) src.quarantined.push_back(q.rank);
  if (report) report->quarantined = std::move(quarantined);
  return src;
}

tracing::LocalTrace ExperimentArchive::read_local_trace(
    const simnet::Topology& topo, Rank r) const {
  const MetahostId m = topo.metahost_of(r);
  const std::string path = container_path(m);
  try {
    const auto index = tracing::read_container_index(
        path, m.get(), ranks_by_metahost_[static_cast<std::size_t>(m.get())]);
    const tracing::TraceBlock b = block_of(index, path, r);
    const MappedFile f = MappedFile::open(b.path, b.offset, b.length);
    return tracing::decode_local_trace(f.data(), f.size(), path, b.offset);
  } catch (const Error& e) {
    throw e.with_context(ErrorContext{path, r, -1});
  }
}

tracing::TraceCollection ExperimentArchive::read_defs(MetahostId m) const {
  const std::string path = dir_of(m) + "/" + tracing::defs_filename();
  const MappedFile f = MappedFile::open(path);
  return tracing::decode_defs(f.data(), f.size(), path);
}

}  // namespace metascope::archive
