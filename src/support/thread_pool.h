/// \file
/// Fixed-size worker pool with a shared task queue.
///
/// The batch driver fans analysis requests across this pool, and the
/// serving daemon runs its sessions and compute on two more; anything
/// else that needs coarse-grained parallelism (workload sweeps, future pass pipelines) should reuse it
/// instead of spawning ad-hoc threads. Tasks are plain
/// std::function<void()>; results travel through whatever the caller
/// captured (promises, pre-sized output slots).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mira {

/// Fixed pool of worker threads draining one FIFO task queue.
///
/// Nested-pool etiquette: a task running on pool A may submit to and
/// block on futures from pool B, but must never block on work queued to
/// its own pool — if every A-worker did so, the queued tasks could
/// never start. This is why the daemon's session readers, compute
/// workers and analyzer each own a separate pool.
class ThreadPool {
public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue: blocks until every submitted task has run.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueue a task. Safe from any thread, including worker threads
  /// (tasks may submit follow-up tasks). An exception escaping a task is
  /// contained at the pool boundary: the worker swallows it, bumps
  /// taskExceptions(), invokes the exception handler (if set), and keeps
  /// serving the queue — it never reaches the worker thread's top frame,
  /// which would std::terminate the whole process. Tasks that need the
  /// error itself must still transport it (promise, captured slot); the
  /// pool can only tell callers THAT a task threw, not what.
  void submit(std::function<void()> task);

  /// Callback run on the worker thread each time a task throws, after
  /// the internal counter is bumped (e.g. to feed a metrics registry).
  /// Must not throw. Not synchronized with submit: install it before the
  /// first task is submitted and leave it in place.
  void setExceptionHandler(std::function<void()> handler);

  /// Number of tasks whose exceptions the pool has contained.
  std::uint64_t taskExceptions() const {
    return exceptions_.load(std::memory_order_relaxed);
  }

  /// Block until the queue is empty and no task is executing. Only
  /// meaningful when this caller is the sole submitter; a task waiting
  /// for specific results should wait on its own future instead.
  void waitIdle();

  /// Number of worker threads (fixed at construction).
  std::size_t threadCount() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a sane fallback of 4.
  static std::size_t defaultThreadCount();

private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;   // workers wait for tasks / stop
  std::condition_variable idle_;   // waitIdle/destructor wait for drain
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::function<void()> onTaskException_; // see setExceptionHandler
  std::atomic<std::uint64_t> exceptions_{0};
  std::size_t running_ = 0; // tasks currently executing
  bool stop_ = false;
};

} // namespace mira
