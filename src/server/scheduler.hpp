// The daemon's session scheduler: N concurrent check sessions on top of
// the fork/join TaskPool (util/task_pool.hpp).
//
// TaskPool is a fork/join pool: run_root() is a blocking region whose
// caller becomes worker 0, and every forked task must be joined inside
// that region. A daemon needs the opposite shape -- fire-and-forget jobs
// arriving at any time -- so this class bridges the two with a dispatcher
// thread running wave-based scheduling: the dispatcher sleeps until jobs
// are queued, then drains the whole queue into one run_root() region,
// forking one task per job and joining them all before looking at the
// queue again. The pool's work stealing balances sessions across workers
// within a wave. Jobs submitted mid-wave wait for the next wave, so one
// long session holds back every request behind it.
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
// Kernel-thread interaction (the scheduler/quiescence rule, see
// docs/architecture.md): TaskPool's worker index is a plain thread_local
// shared by EVERY pool in the process, and bdd::Manager indexes its
// per-worker hot counters with it. A session running on scheduler worker
// k therefore writes its manager's hot_[k] -- safe, because each session
// owns its manager exclusively and k < Manager::kMaxThreads is enforced
// by clamping the scheduler width. What would NOT be safe is a session
// spinning up its own inner kernel pool (nested pools reuse worker
// indices, so an inner worker j would alias another outer session's
// hot_[j] if managers were shared, and deadlock-prone pool nesting
// besides) -- so the server forces every in-daemon session to kernel
// threads = 1: parallelism comes from running sessions concurrently, not
// from inside one session's kernel.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "util/task_pool.hpp"

namespace stgcheck::server {

class SessionScheduler {
 public:
  /// A job must not throw -- it reports its own failures (the server's
  /// jobs write error records/lines). Escaped exceptions are swallowed
  /// here as a last resort, never propagated across the pool.
  using Job = std::function<void()>;

  /// `threads` = max concurrently running jobs, clamped to >= 1. The
  /// dispatcher thread is worker 0 of each wave, so `threads` total
  /// threads compute; threads == 1 runs jobs inline on the dispatcher
  /// (TaskPool requires >= 2).
  explicit SessionScheduler(std::size_t threads);
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  std::size_t thread_count() const { return threads_; }

  /// Enqueues a job for the next wave. Jobs submitted after stop() are
  /// silently dropped (the server only stops once connections are down).
  void submit(Job job);

  /// Blocks until the queue is empty and no wave is running.
  void drain();

  /// Stops accepting jobs, finishes everything already queued, and joins
  /// the dispatcher. Idempotent; also called by the destructor.
  void stop();

 private:
  void dispatcher_loop();

  std::size_t threads_;
  std::unique_ptr<TaskPool> pool_;  // null when threads_ == 1
  std::mutex mu_;
  std::condition_variable wake_cv_;  // dispatcher: jobs queued or stopping
  std::condition_variable idle_cv_;  // drain(): queue empty and wave done
  std::deque<Job> queue_;
  std::size_t running_ = 0;  // jobs in the wave currently executing
  bool stopping_ = false;
  bool join_claimed_ = false;  // exactly one stop() call joins the dispatcher
  std::thread dispatcher_;  // last member: starts in the ctor body
};

}  // namespace stgcheck::server
