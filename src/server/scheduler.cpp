#include "server/scheduler.hpp"

#include <iterator>
#include <utility>

namespace stgcheck::server {

SessionScheduler::SessionScheduler(std::size_t threads) {
  const std::size_t n = threads < 1 ? 1 : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SessionScheduler::~SessionScheduler() { stop(); }

void SessionScheduler::submit(Job job) {
  bool idle = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    queue_.push_back(std::move(job));
    idle = wave_.empty();
  }
  // Mid-wave jobs wake nobody: the wave's last worker opens the next one.
  if (idle) work_cv_.notify_one();
}

void SessionScheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && wave_.empty(); });
}

void SessionScheduler::stop() {
  bool join_here = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    join_here = !join_claimed_;
    join_claimed_ = true;
  }
  work_cv_.notify_all();
  if (!join_here) return;
  for (std::thread& worker : workers_) worker.join();
}

void SessionScheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (wave_.empty() && !queue_.empty()) {  // the whole queue is one wave
      wave_.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      next_ = 0;
      work_cv_.notify_all();
    }
    if (next_ < wave_.size()) {
      Job job = std::move(wave_[next_++]);
      ++running_;
      lock.unlock();
      try {
        job();
      } catch (...) {
        // Jobs are contractually non-throwing (scheduler.hpp); swallowing
        // here keeps a violation from stalling the wave.
      }
      job = nullptr;  // release the job's captures outside the lock
      lock.lock();
      if (--running_ == 0 && next_ == wave_.size()) {
        wave_.clear();  // the wave is over; the loop top opens the next
        if (queue_.empty()) idle_cv_.notify_all();
      }
      continue;
    }
    if (stopping_ && queue_.empty()) return;  // nothing left to hand out
    work_cv_.wait(lock);
  }
}

}  // namespace stgcheck::server
