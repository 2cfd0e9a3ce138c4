#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "util/wallclock.hpp"

namespace balbench::util {

namespace {
std::atomic<PoolObserver*> g_pool_observer{nullptr};
// One counter for the whole process, so observers can key telemetry by
// batch id across any number of parallel_for calls.
std::atomic<std::uint64_t> g_batches{0};
}  // namespace

void set_pool_observer(PoolObserver* observer) {
  g_pool_observer.store(observer, std::memory_order_release);
}

PoolObserver* pool_observer() {
  return g_pool_observer.load(std::memory_order_acquire);
}

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_jobs(std::int64_t requested) {
  if (requested <= 0) return hardware_jobs();
  if (requested > kMaxJobs) return kMaxJobs;
  return static_cast<int>(requested);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const int workers = static_cast<int>(
      std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n));
  PoolObserver* const obs = pool_observer();
  const std::uint64_t batch =
      g_batches.fetch_add(1, std::memory_order_relaxed) + 1;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;  // guards error_index and error
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  // Claims are in index order, so the lowest failing index is always
  // among the claimed ones: every index below a claimed one was
  // claimed earlier and runs to the end.
  auto work = [&](int worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const double t0 = obs != nullptr ? wall_now() : 0.0;
      try {
        body(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      if (obs != nullptr) obs->on_task(batch, i, worker, t0, wall_now());
    }
  };

  if (obs != nullptr) obs->on_batch_begin(batch, n, workers, wall_now());
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(workers - 1));
  try {
    for (int w = 1; w < workers; ++w) helpers.emplace_back(work, w);
  } catch (...) {
    // A helper could not start: stop claiming, let the started helpers
    // finish what they hold, and report the failure to the caller.
    failed.store(true, std::memory_order_relaxed);
    for (auto& t : helpers) t.join();
    throw;
  }
  work(0);
  for (auto& t : helpers) t.join();
  if (obs != nullptr) obs->on_batch_end(batch, wall_now());
  if (error) std::rethrow_exception(error);
}

}  // namespace balbench::util
