#include "svc/worker_pool.hpp"

namespace lama::svc {

WorkerPool::WorkerPool(std::size_t num_threads, std::size_t max_queue)
    : max_queue_(max_queue) {
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool WorkerPool::try_submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (max_queue_ > 0 && queue_.size() >= max_queue_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain remaining work on shutdown so pending futures always resolve.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace lama::svc
