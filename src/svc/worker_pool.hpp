// Fixed-size thread pool executing the service's mapping requests. Requests
// are independent of each other, so a plain FIFO queue + condition variable
// is the whole scheduler; results travel back through std::future so batch
// callers preserve request order regardless of completion order. A pool of
// zero threads degenerates to running tasks inline on the submitting thread,
// which keeps single-threaded tests and benchmarks deterministic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace lama::svc {

class WorkerPool {
 public:
  // `max_queue` bounds the number of tasks waiting for a worker (0 =
  // unbounded). When the bound is hit, try_submit refuses instead of
  // enqueueing — the service's backpressure valve (ERR busy). Tasks already
  // running do not count against the bound.
  explicit WorkerPool(std::size_t num_threads, std::size_t max_queue = 0);
  ~WorkerPool();  // drains the queue, then joins

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return threads_.size(); }
  [[nodiscard]] std::size_t max_queue() const { return max_queue_; }

  // Enqueues `fn` and returns a future for its result; exceptions propagate
  // through the future. With zero threads, runs `fn` before returning.
  template <typename F>
  std::future<std::invoke_result_t<F>> async(F fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    submit([task] { (*task)(); });
    return result;
  }

  // async() that honors the queue bound: returns an empty optional instead
  // of enqueueing when the queue is full (never refuses with zero threads —
  // inline execution has no queue to overflow).
  template <typename F>
  std::optional<std::future<std::invoke_result_t<F>>> try_async(F fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    if (!try_submit([task] { (*task)(); })) return std::nullopt;
    return result;
  }

  // Enqueues fire-and-forget work (inline when the pool has no threads).
  // Ignores the queue bound — shutdown-critical work must never be shed.
  void submit(std::function<void()> task);

  // submit() that refuses (returns false) when the queue is at max_queue.
  bool try_submit(std::function<void()> task);

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t max_queue_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace lama::svc
