// The daemon's session scheduler: N concurrent check sessions on N
// persistent plain worker threads, in waves.
//
// Wave policy: when no wave is running, the whole queue becomes one wave;
// at most N jobs of a wave run at once, each worker taking the next job
// of the current wave under the scheduler mutex; and a job submitted
// mid-wave waits for the next wave, which opens only once the last job of
// the current one has returned. Idle workers sleep on a condition
// variable. One long session therefore holds back every request behind
// it.
//
// That granularity is not free. A plain 4-worker FIFO queue, measured
// against this scheduler on the perfbench daemon_mixed workload (4 session
// threads, 4 closed-loop clients, each request cycle one long mutex48 check
// plus 15 short ones; six alternating runs, seeds 501-506, 4-vCPU host),
// raised the median throughput from 3.14 to 8.77 checks/s and cut the
// median p90 latency from 4.58 s to 0.20 s -- but peak RSS rose from
// 223-296 MB to 439-459 MB on every run, because long mutex48 sessions
// then overlap. The waves are what bound the daemon's memory today: a
// queue that replaces them needs a memory-aware admission design first.
//
// The workers are started once and live as long as the scheduler, so
// every session of the daemon's life runs on the same N threads and the
// allocator's per-thread arenas are reused across waves.
//
// Kernel threads: the daemon's parallelism is whole sessions, one per
// worker. The server runs every in-daemon session with kernel threads = 1
// (server/check_server.cpp), so no session starts a kernel TaskPool under
// a scheduler worker: that would multiply the daemon's thread count by
// the kernel width and put a second scheduler under this one.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stgcheck::server {

class SessionScheduler {
 public:
  /// A job must not throw -- it reports its own failures (the server's
  /// jobs write error records/lines). Escaped exceptions are swallowed
  /// here as a last resort, so one job cannot stall its wave.
  using Job = std::function<void()>;

  /// `threads` = number of worker threads = max concurrently running
  /// jobs, clamped to >= 1.
  explicit SessionScheduler(std::size_t threads);
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a job for the next wave. Jobs submitted after stop() are
  /// silently dropped (the server only stops once connections are down).
  void submit(Job job);

  /// Blocks until the queue is empty and no wave is running.
  void drain();

  /// Stops accepting jobs, finishes everything already queued, and joins
  /// the workers. Idempotent; also called by the destructor.
  void stop();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a wave opened, or stopping
  std::condition_variable idle_cv_;  // drain(): queue empty and no wave
  std::deque<Job> queue_;            // jobs waiting for the next wave
  std::vector<Job> wave_;            // the running wave; empty = none
  std::size_t next_ = 0;             // next job of wave_ to hand out
  std::size_t running_ = 0;          // jobs of wave_ started, not returned
  bool stopping_ = false;
  bool join_claimed_ = false;  // exactly one stop() call joins the workers
  std::vector<std::thread> workers_;  // last member: started in the ctor
};

}  // namespace stgcheck::server
