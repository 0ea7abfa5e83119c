#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "container_edit.hpp"
#include "simmpi/program.hpp"
#include "simnet/presets.hpp"
#include "tracing/container.hpp"
#include "tracing/measurement.hpp"
#include "workloads/experiment.hpp"
#include "workloads/metatrace.hpp"

namespace metascope::archive {
namespace {

namespace fs = std::filesystem;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("msc_archive_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  std::string base_;
};

TEST_F(ArchiveTest, SharedFileSystemCreatesOneDirectory) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout = FileSystemLayout::shared(base_, topo.num_metahosts());
  CreationStats stats;
  const auto arch = ExperimentArchive::create(topo, layout, "exp", &stats);
  EXPECT_EQ(arch.partial_dirs().size(), 1u);
  EXPECT_TRUE(fs::exists(base_ + "/exp.msc"));
  EXPECT_EQ(stats.directories_created, 1);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.broadcasts, 1);
  EXPECT_EQ(stats.allreduces, 1);
}

TEST_F(ArchiveTest, PerMetahostLayoutCreatesPartialArchives) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  CreationStats stats;
  const auto arch = ExperimentArchive::create(topo, layout, "exp", &stats);
  EXPECT_EQ(arch.partial_dirs().size(), 3u);
  for (int m = 0; m < 3; ++m)
    EXPECT_TRUE(fs::exists(base_ + "/fs" + std::to_string(m) + "/exp.msc"));
  EXPECT_EQ(stats.directories_created, 3);
}

TEST_F(ArchiveTest, CustomLayoutSharesSelectively) {
  const auto topo = simnet::make_viola_experiment1();
  // CAESAR and FH-BRS share an NFS root; FZJ is separate.
  const auto layout = FileSystemLayout::custom(
      {base_ + "/nfs", base_ + "/nfs", base_ + "/fzj"});
  EXPECT_TRUE(layout.same_fs(MetahostId{0}, MetahostId{1}));
  EXPECT_FALSE(layout.same_fs(MetahostId{0}, MetahostId{2}));
  CreationStats stats;
  const auto arch = ExperimentArchive::create(topo, layout, "exp", &stats);
  EXPECT_EQ(arch.partial_dirs().size(), 2u);
  EXPECT_EQ(stats.directories_created, 2);
}

TEST_F(ArchiveTest, ProtocolAttemptsScaleWithMetahostsNotRanks) {
  const auto topo = simnet::make_viola_experiment1();  // 32 ranks
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  CreationStats hier;
  ExperimentArchive::create(topo, layout, "h", &hier);
  CreationStats naive;
  ExperimentArchive::create_naive(topo, layout, "n", &naive);
  EXPECT_LE(hier.create_attempts, topo.num_metahosts());
  EXPECT_EQ(naive.create_attempts, topo.num_ranks());
  EXPECT_LT(hier.create_attempts, naive.create_attempts);
}

TEST_F(ArchiveTest, TracesRoundTripThroughPartialArchives) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  const auto loaded = arch.read_traces();
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
  EXPECT_EQ(loaded.defs.metahosts, data.traces.defs.metahosts);
}

TEST_F(ArchiveTest, EachRankTraceLandsOnItsOwnFileSystem) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    // The rank's block sits in its own metahost's container, on its own
    // file system...
    const MetahostId home = topo.metahost_of(r);
    const std::string expected = layout.root_of(home) + "/mt.msc/" +
                                 tracing::container_filename(home.get());
    ASSERT_TRUE(fs::exists(expected)) << expected;
    const auto c = container_edit::Container::load_file(expected);
    EXPECT_NE(std::find(c.ranks.begin(), c.ranks.end(), r), c.ranks.end())
        << expected << " lacks rank " << r;
    // And nowhere else.
    for (int m = 0; m < topo.num_metahosts(); ++m) {
      if (home == MetahostId{m}) continue;
      const std::string other = layout.root_of(MetahostId{m}) + "/mt.msc/" +
                                tracing::container_filename(m);
      const auto oc = container_edit::Container::load_file(other);
      EXPECT_EQ(std::find(oc.ranks.begin(), oc.ranks.end(), r),
                oc.ranks.end())
          << other << " holds rank " << r;
      EXPECT_FALSE(fs::exists(layout.root_of(MetahostId{m}) + "/mt.msc/" +
                              tracing::container_filename(home.get())));
    }
  }
}

/// Names of the files in a directory, sorted.
std::vector<std::string> file_names(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    out.push_back(e.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(ArchiveTest, FileCountDoesNotGrowWithRanks) {
  // Two metahosts sharing one file system, at 64 and at 1024 ranks: the
  // archive always holds the defs, one manifest and one container per
  // metahost, and nothing per rank.
  for (const int per_metahost : {32, 512}) {
    simnet::Topology topo;
    simnet::MetahostSpec a;
    a.name = "A";
    a.num_nodes = per_metahost;
    simnet::MetahostSpec b = a;
    b.name = "B";
    topo.place_block(topo.add_metahost(a), per_metahost, 1);
    topo.place_block(topo.add_metahost(b), per_metahost, 1);
    simmpi::ProgramBuilder pb(topo.num_ranks());
    for (Rank r = 0; r < topo.num_ranks(); ++r)
      pb.on(r).enter("main").barrier().exit();
    workloads::ExperimentConfig cfg;
    cfg.perfect_clocks = true;
    cfg.measurement.scheme = tracing::SyncScheme::None;
    const auto data = workloads::run_experiment(topo, pb.take(), cfg);

    const std::string name = "n" + std::to_string(topo.num_ranks());
    const auto arch = ExperimentArchive::create(
        topo, FileSystemLayout::shared(base_, 2), name);
    arch.write_traces(topo, data.traces);
    EXPECT_EQ(file_names(arch.dir_of(MetahostId{0})),
              (std::vector<std::string>{"experiment.defs", "manifest.0.json",
                                        "manifest.1.json", "traces.0.elg",
                                        "traces.1.elg"}))
        << topo.num_ranks() << " ranks";
    const auto loaded = arch.read_traces();
    for (int r = 0; r < loaded.num_ranks(); ++r)
      ASSERT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
                data.traces.ranks[static_cast<std::size_t>(r)]);
  }
}

TEST_F(ArchiveTest, LocalTraceAccessReadsOnlyLocalArchive) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  for (Rank r : {0, 8, 16, 31}) {
    const auto t = arch.read_local_trace(topo, r);
    EXPECT_EQ(t, data.traces.ranks[static_cast<std::size_t>(r)]);
  }
  // Definitions are visible from every metahost.
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const auto defs = arch.read_defs(MetahostId{m});
    EXPECT_EQ(defs.defs.metahosts, data.traces.defs.metahosts);
  }
}

TEST_F(ArchiveTest, ManifestsWrittenPerMetahost) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const std::string path =
        arch.dir_of(MetahostId{m}) + "/manifest." + std::to_string(m) +
        ".json";
    ASSERT_TRUE(fs::exists(path));
    const metascope::Json manifest = load_json_file(path);
    EXPECT_EQ(manifest.at("experiment").as_string(), "mt");
    EXPECT_EQ(manifest.at("metahost_id").as_int(), m);
    EXPECT_EQ(manifest.at("ranks").as_array().size(),
              topo.ranks_on(MetahostId{m}).size());
  }
}

TEST_F(ArchiveTest, ZeroEventRanksRoundTrip) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  auto data = workloads::run_experiment(topo, prog, cfg);
  // Ranks that recorded nothing (e.g. spawned but never instrumented)
  // must survive the archive round trip as empty traces.
  for (Rank r : {0, 5, 31}) {
    data.traces.ranks[static_cast<std::size_t>(r)].events.clear();
    data.traces.ranks[static_cast<std::size_t>(r)].coll_bytes.clear();
  }
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "z");
  arch.write_traces(topo, data.traces);
  const auto loaded = arch.read_traces();
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
  EXPECT_TRUE(loaded.ranks[0].events.empty());
}

TEST_F(ArchiveTest, MetahostWithoutRanksRoundTrips) {
  // Three metahosts, ranks placed on only the first two: the third still
  // gets a partial archive with defs + an empty manifest, and reading
  // the archive back skips it cleanly.
  simnet::Topology topo;
  simnet::MetahostSpec a;
  a.name = "A";
  a.num_nodes = 2;
  simnet::MetahostSpec b = a;
  b.name = "B";
  simnet::MetahostSpec c = a;
  c.name = "Idle";
  const auto ia = topo.add_metahost(a);
  const auto ib = topo.add_metahost(b);
  topo.add_metahost(c);
  topo.place_block(ia, 2, 1);
  topo.place_block(ib, 2, 1);

  simmpi::ProgramBuilder pb(topo.num_ranks());
  for (Rank r = 0; r < topo.num_ranks(); ++r)
    pb.on(r).enter("main").barrier().exit();
  workloads::ExperimentConfig cfg;
  cfg.perfect_clocks = true;
  cfg.measurement.scheme = tracing::SyncScheme::None;
  const auto data = workloads::run_experiment(topo, pb.take(), cfg);

  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "idle");
  arch.write_traces(topo, data.traces);
  const auto loaded = arch.read_traces();
  ASSERT_EQ(loaded.num_ranks(), data.traces.num_ranks());
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
  const std::string manifest_path =
      arch.dir_of(MetahostId{2}) + "/manifest.2.json";
  ASSERT_TRUE(fs::exists(manifest_path));
  const metascope::Json manifest = load_json_file(manifest_path);
  EXPECT_EQ(manifest.at("ranks").as_array().size(), 0u);
}

TEST_F(ArchiveTest, ParallelWriteAndReadMatchSerial) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  std::vector<ExperimentArchive> archs;
  for (const std::size_t workers : {1, 2, 8}) {
    const auto layout = FileSystemLayout::per_metahost(
        base_ + "/w" + std::to_string(workers), topo.num_metahosts());
    archs.push_back(ExperimentArchive::create(topo, layout, "w"));
    archs.back().write_traces(topo, data.traces, workers);
  }
  // Byte-identical containers regardless of worker count.
  for (int m = 0; m < topo.num_metahosts(); ++m) {
    const auto serial = read_file_bytes(archs[0].container_path(MetahostId{m}));
    for (std::size_t i = 1; i < archs.size(); ++i)
      EXPECT_EQ(serial,
                read_file_bytes(archs[i].container_path(MetahostId{m})))
          << "metahost " << m << ", archive " << i;
  }
  // And the parallel read reassembles the same collection.
  const auto loaded = archs.back().read_traces(8);
  for (int r = 0; r < loaded.num_ranks(); ++r)
    EXPECT_EQ(loaded.ranks[static_cast<std::size_t>(r)],
              data.traces.ranks[static_cast<std::size_t>(r)]);
}

TEST_F(ArchiveTest, ConcurrentLocalTraceReadsAreSafe) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "mt");
  arch.write_traces(topo, data.traces);
  // The parallel analyzer's access pattern: many threads pulling local
  // traces from the same archive object concurrently. Run under the
  // TSan preset via the "replay" label.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < 4; ++w) {
    readers.emplace_back([&, w] {
      for (int iter = 0; iter < 3; ++iter) {
        for (Rank r = w; r < topo.num_ranks(); r += 4) {
          const auto t = arch.read_local_trace(topo, r);
          if (!(t == data.traces.ranks[static_cast<std::size_t>(r)]))
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ArchiveTest, TruncatedTraceFileFailsWithClearError) {
  const auto topo = simnet::make_viola_experiment1();
  auto prog = workloads::build_metatrace();
  workloads::ExperimentConfig cfg;
  const auto data = workloads::run_experiment(topo, prog, cfg);
  const auto layout =
      FileSystemLayout::per_metahost(base_, topo.num_metahosts());
  const auto arch = ExperimentArchive::create(topo, layout, "cut");
  arch.write_traces(topo, data.traces);
  const std::string victim = arch.container_path(topo.metahost_of(4));
  auto bytes = container_edit::read_block(victim, 4);
  bytes.resize(bytes.size() / 2);
  container_edit::write_block(victim, 4, bytes);
  try {
    (void)arch.read_traces();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated trace file"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveTest, UnwritableRootAborts) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout = FileSystemLayout::custom(
      {"/proc/definitely/not/writable", base_ + "/b", base_ + "/c"});
  CreationStats stats;
  EXPECT_THROW(ExperimentArchive::create(topo, layout, "exp", &stats),
               Error);
  EXPECT_TRUE(stats.aborted);
}

TEST_F(ArchiveTest, LayoutValidation) {
  EXPECT_THROW(FileSystemLayout::shared(base_, 0), Error);
  EXPECT_THROW(FileSystemLayout::custom({}), Error);
  const auto layout = FileSystemLayout::shared(base_, 2);
  EXPECT_THROW((void)layout.root_of(MetahostId{5}), Error);
  const auto topo = simnet::make_viola_experiment1();  // 3 metahosts
  EXPECT_THROW(ExperimentArchive::create(topo, layout, "exp"), Error);
}

TEST_F(ArchiveTest, ExistingArchiveIsReused) {
  const auto topo = simnet::make_viola_experiment1();
  const auto layout = FileSystemLayout::shared(base_, 3);
  ExperimentArchive::create(topo, layout, "exp");
  CreationStats again;
  EXPECT_NO_THROW(ExperimentArchive::create(topo, layout, "exp", &again));
  EXPECT_EQ(again.directories_created, 0);
}

}  // namespace
}  // namespace metascope::archive
