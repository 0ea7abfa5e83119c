#include "common/parallel.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

namespace metascope {

std::size_t resolve_workers(std::size_t num_tasks, std::size_t max_workers) {
  return std::min(
      num_tasks == 0 ? std::size_t{1} : num_tasks,
      max_workers != 0
          ? max_workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

ParallelForStats parallel_for(std::size_t n, std::size_t max_workers,
                              const std::function<void(std::size_t)>& body,
                              PoolObserver* obs) {
  ParallelForStats st;
  st.items = n;
  if (n == 0) return st;
  const std::size_t workers = resolve_workers(n, max_workers);
  const bool events = obs != nullptr && obs->wants_events();
  st.workers = workers;
  if (workers <= 1) {
    // Inline path fires the item events on the calling thread (no
    // worker attach — the caller keeps its own thread label). Items run
    // in order, so the first exception is the lowest failing index.
    for (std::size_t i = 0; i < n; ++i) {
      if (events) obs->on_task_begin(i);
      try {
        body(i);
      } catch (...) {
        if (events) obs->on_task_end(i);
        throw;
      }
      if (events) obs->on_task_end(i);
    }
    st.items_per_worker.assign(1, n);
    return st;
  }
  st.items_per_worker.assign(workers, 0);

  // Items are dealt round-robin; no item is ever added once workers
  // start, so a worker that finds every deque empty can exit.
  struct WorkerQueue {
    std::mutex m;
    std::deque<std::size_t> dq;
  };
  std::vector<WorkerQueue> queues(workers);
  for (std::size_t t = 0; t < n; ++t) queues[t % workers].dq.push_back(t);

  std::mutex m;  // guards the error slot and the merged tallies
  std::size_t err_task = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  auto take = [&](std::size_t wid, std::size_t& task, bool& stolen) {
    for (std::size_t k = 0; k < workers; ++k) {
      WorkerQueue& q = queues[(wid + k) % workers];
      std::lock_guard<std::mutex> lock(q.m);
      if (q.dq.empty()) continue;
      // Own work from the front; steal from the back, away from the
      // victim's next item.
      if (k == 0) {
        task = q.dq.front();
        q.dq.pop_front();
      } else {
        task = q.dq.back();
        q.dq.pop_back();
      }
      stolen = k != 0;
      return true;
    }
    return false;
  };

  auto worker = [&](std::size_t wid) {
    if (events && wid != 0) obs->on_worker_attach(wid);
    std::size_t done = 0;
    std::size_t steals = 0;
    std::size_t task = 0;
    bool stolen = false;
    while (take(wid, task, stolen)) {
      if (stolen) {
        ++steals;
        if (events) obs->on_task_steal(task);
      }
      if (events) obs->on_task_begin(task);
      try {
        body(task);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (task < err_task) {
          err_task = task;
          err = std::current_exception();
        }
      }
      if (events) obs->on_task_end(task);
      ++done;
    }
    std::lock_guard<std::mutex> lock(m);
    st.steals += steals;
    st.items_per_worker[wid] = done;
  };

  // The calling thread is worker 0: one thread fewer to spawn, and its
  // allocations stay in the main heap, which malloc_trim returns in full.
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
  return st;
}

}  // namespace metascope
