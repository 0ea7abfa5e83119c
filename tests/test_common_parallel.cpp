#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace metascope {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{7}}) {
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    const auto st = parallel_for(
        n, workers, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(st.items, n);
    EXPECT_GE(st.workers, 1u);
    EXPECT_EQ(std::accumulate(st.items_per_worker.begin(),
                              st.items_per_worker.end(), std::size_t{0}),
              n);
  }
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder) {
  std::vector<std::size_t> order;
  const auto st =
      parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(st.workers, 1u);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  const auto st =
      parallel_for(0, 4, [&](std::size_t) { FAIL() << "body called"; });
  EXPECT_EQ(st.items, 0u);
}

TEST(ParallelFor, BodyExceptionPropagates) {
  EXPECT_THROW(parallel_for(16, 4,
                            [&](std::size_t i) {
                              if (i == 7) throw Error("boom");
                            }),
               Error);
  // Inline path too.
  EXPECT_THROW(parallel_for(16, 1,
                            [&](std::size_t i) {
                              if (i == 7) throw Error("boom");
                            }),
               Error);
}

TEST(ParallelFor, DisjointSlotWritesAreDeterministic) {
  const std::size_t n = 64;
  std::vector<std::vector<double>> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    std::vector<double> out(n, 0.0);
    parallel_for(n, workers, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += static_cast<double>(k) * 0.5;
      out[i] = acc;
    });
    runs.push_back(std::move(out));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(WorkerPool, ResolveWorkersClampsToTasksAndFloor) {
  EXPECT_EQ(resolve_workers(3, 8), 3u);
  EXPECT_EQ(resolve_workers(100, 4), 4u);
  EXPECT_GE(resolve_workers(100, 0), 1u);
  EXPECT_EQ(resolve_workers(0, 4), 1u);
}

// Item 11 of 16 is dealt to worker 3, a spawned thread: its exception
// must cross to the calling thread and keep its type and message.
TEST(WorkerPool, StepExceptionRethrownFromRun) {
  try {
    parallel_for(16, 4, [&](std::size_t t) {
      if (t == 11) throw Error(ErrorCode::Corrupt, "step failed");
    });
    ADD_FAILURE() << "no Error thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
    EXPECT_EQ(e.base_message(), "step failed");
  }
}

TEST(ParallelFor, LowestFailingItemSurfacesAtEveryWorkerCount) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{8}}) {
    std::vector<std::atomic<int>> ran(64);
    for (auto& r : ran) r.store(0);
    try {
      parallel_for(64, workers, [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 9 || i == 40 || i == 63)
          throw Error("item " + std::to_string(i));
      });
      ADD_FAILURE() << "no Error thrown at " << workers << " workers";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "item 9") << workers << " workers";
    }
    // Failures never cancel other items on the pool; the inline path
    // stops at the first (lowest) failure.
    if (workers > 1) {
      for (std::size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(ran[i].load(), 1) << "item " << i;
    }
  }
}

}  // namespace
}  // namespace metascope
