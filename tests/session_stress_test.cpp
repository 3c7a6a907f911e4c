// Concurrent-session stress: many CheckSessions racing on separate threads
// produce bit-identical results to one-at-a-time serial runs. This is the
// isolation guarantee the daemon rests on -- no mutable state is shared
// between sessions -- exercised both with raw threads and through the
// server's SessionScheduler. Runs under TSan in CI (unit label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "example_nets.hpp"
#include "server/scheduler.hpp"

namespace stgcheck::core {
namespace {

/// Everything we compare bit-for-bit between a serial and a racing run.
struct Fingerprint {
  std::string level;
  bool ok = false;
  std::size_t states = 0;
  std::size_t markings = 0;
  std::size_t passes = 0;
  std::size_t image_computations = 0;
  std::size_t final_reached_nodes = 0;
  std::size_t pass_records = 0;
  std::size_t record_count = 0;

  bool operator==(const Fingerprint& o) const {
    return level == o.level && ok == o.ok && states == o.states &&
           markings == o.markings && passes == o.passes &&
           image_computations == o.image_computations &&
           final_reached_nodes == o.final_reached_nodes &&
           pass_records == o.pass_records && record_count == o.record_count;
  }
};

Fingerprint run_one(int net_index) {
  CheckSession session(testutil::example_net(net_index));
  const ImplementabilityReport& report = session.run();
  Fingerprint fp;
  fp.level = to_string(report.level);
  fp.ok = report.level != ImplementabilityLevel::kNotImplementable;
  fp.states = report.traversal.stats.states;
  fp.markings = report.traversal.stats.markings;
  fp.passes = report.traversal.stats.passes;
  fp.image_computations = report.traversal.stats.image_computations;
  fp.final_reached_nodes = report.traversal.stats.final_reached_nodes;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind == EventKind::kPass) ++fp.pass_records;
  }
  fp.record_count = session.events().records().size();
  return fp;
}

std::vector<Fingerprint> serial_baseline() {
  std::vector<Fingerprint> out(testutil::kExampleNetCount);
  for (int i = 0; i < testutil::kExampleNetCount; ++i) out[i] = run_one(i);
  return out;
}

void expect_identical(const std::vector<Fingerprint>& racing,
                      const std::vector<Fingerprint>& serial) {
  ASSERT_EQ(racing.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(racing[i] == serial[i])
        << "net " << i << ": " << racing[i].level << "/" << racing[i].states
        << " states vs serial " << serial[i].level << "/" << serial[i].states;
  }
}

TEST(SessionStress, RacingThreadsMatchSerialBitForBit) {
  const std::vector<Fingerprint> serial = serial_baseline();

  constexpr std::size_t kThreads = 4;
  std::vector<Fingerprint> racing(serial.size());
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= testutil::kExampleNetCount) return;
        racing[static_cast<std::size_t>(i)] = run_one(i);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  expect_identical(racing, serial);
}

TEST(SessionStress, SchedulerWavesMatchSerialBitForBit) {
  const std::vector<Fingerprint> serial = serial_baseline();

  // The daemon's path: sessions as fire-and-forget jobs on the wave
  // scheduler, submitted from outside while waves run.
  server::SessionScheduler scheduler(4);
  std::vector<Fingerprint> racing(serial.size());
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    scheduler.submit(
        [&racing, i] { racing[static_cast<std::size_t>(i)] = run_one(i); });
  }
  scheduler.drain();

  expect_identical(racing, serial);
}

TEST(SessionStress, SchedulerHoldsMidWaveJobsForTheNextWave) {
  // The wave policy that bounds the daemon's memory: a job submitted
  // while a wave runs starts only after that wave's last job returned, and
  // no more than thread_count() jobs ever run at once.
  server::SessionScheduler scheduler(2);
  ASSERT_EQ(scheduler.thread_count(), 2u);

  std::mutex mu;
  std::condition_variable cv;
  bool holder_open = false;  // the latch of the one-job first wave
  bool wave_open = false;    // the latch of the second wave
  bool holder_started = false;
  bool holder_returned = false;
  std::size_t wave_started = 0;
  std::size_t wave_returned = 0;
  std::size_t late_ran = 0;
  std::size_t running = 0;
  std::size_t max_running = 0;
  std::vector<std::string> violations;
  const auto enter = [&] {
    max_running = std::max(max_running, ++running);
    cv.notify_all();
  };

  // A one-job first wave: once it runs, every later submission is
  // mid-wave, so the second wave holds exactly the jobs queued behind it.
  scheduler.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    enter();
    holder_started = true;
    cv.wait(lock, [&] { return holder_open; });
    --running;
    holder_returned = true;
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return holder_started; });
  }

  constexpr std::size_t kWave = 5;
  for (std::size_t i = 0; i < kWave; ++i) {
    scheduler.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (!holder_returned) {
        violations.push_back("wave job before the holder returned");
      }
      enter();
      ++wave_started;
      cv.wait(lock, [&] { return wave_open; });
      --running;
      ++wave_returned;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(wave_started, 0u);
    holder_open = true;
    cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return wave_started == scheduler.thread_count(); });
  }

  constexpr std::size_t kLate = 3;
  for (std::size_t i = 0; i < kLate; ++i) {
    scheduler.submit([&] {
      const std::lock_guard<std::mutex> lock(mu);
      if (wave_returned != kWave) {
        violations.push_back("late job before the wave's last job returned");
      }
      enter();
      ++late_ran;
      --running;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(wave_started, scheduler.thread_count());
    EXPECT_EQ(late_ran, 0u);
    wave_open = true;
    cv.notify_all();
  }
  scheduler.drain();

  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(violations, std::vector<std::string>{});
  EXPECT_EQ(wave_returned, kWave);
  EXPECT_EQ(late_ran, kLate);
  EXPECT_EQ(max_running, scheduler.thread_count());
}

TEST(SessionStress, SingleThreadSchedulerRunsEveryJob) {
  server::SessionScheduler scheduler(1);
  EXPECT_EQ(scheduler.thread_count(), 1u);
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    scheduler.submit([&done] { done.fetch_add(1); });
  }
  scheduler.drain();
  EXPECT_EQ(done.load(), 3);
  scheduler.stop();
  scheduler.stop();  // idempotent
}

TEST(SessionStress, RepeatedSessionsOnOneNetAreDeterministic) {
  // Same net, many concurrent sessions: every run must agree with itself.
  const Fingerprint one = run_one(16);  // vme_read: CSC conflicts
  constexpr std::size_t kRuns = 6;
  std::vector<Fingerprint> runs(kRuns);
  std::vector<std::thread> workers;
  workers.reserve(kRuns);
  for (std::size_t r = 0; r < kRuns; ++r) {
    workers.emplace_back([&runs, r] { runs[r] = run_one(16); });
  }
  for (std::thread& w : workers) w.join();
  for (const Fingerprint& fp : runs) EXPECT_TRUE(fp == one);
}

}  // namespace
}  // namespace stgcheck::core
