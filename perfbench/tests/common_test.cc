// Tests for the benchmark's statistics rules and per-thread CPU attribution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

TEST(Summarize, TailLeavesTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Dist d = summarize(v);
  EXPECT_EQ(d.n, 100u);
  EXPECT_DOUBLE_EQ(d.median, 50.5);
  // 100 samples: p99 would leave one beyond, so the tail is the 90th value.
  EXPECT_DOUBLE_EQ(d.tail, 90);
  EXPECT_DOUBLE_EQ(d.tail_q, 0.90);
}

TEST(Summarize, CapsAtP99WithEnoughSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 5000; ++i) v.push_back(i);
  const Dist d = summarize(v);
  EXPECT_DOUBLE_EQ(d.tail, 4950);  // 50 samples beyond: the 99th percentile
  EXPECT_DOUBLE_EQ(d.tail_q, 0.99);
}

TEST(Summarize, FewSamplesFallBackToMedian) {
  const Dist d = summarize({3, 1, 2});
  EXPECT_EQ(d.n, 3u);
  EXPECT_DOUBLE_EQ(d.median, 2);
  EXPECT_DOUBLE_EQ(d.tail, 2);
  EXPECT_DOUBLE_EQ(d.tail_q, 0.5);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(SummarizeChunks, ABurstMovesOnlyItsChunk) {
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(10 + i % 10);  // tail 19
  for (int i = 2000; i < 2400; ++i) v[i] = 1000;              // a burst in chunk 1
  EXPECT_GE(summarize(v).tail, 1000);  // 2% of all samples: the pooled p99 sees it
  const Dist d = summarize_chunks(v, 10);
  EXPECT_DOUBLE_EQ(d.tail, 19);
  EXPECT_DOUBLE_EQ(d.median, 14.5);
  EXPECT_EQ(d.n, 20000u);
  EXPECT_DOUBLE_EQ(d.tail_q, 0.99);
}

// A synthetic stall: the thread stops running for 60 ms between two bursts
// of work. Wall time counts the stall; the thread's CPU clock does not, and
// the process clock adds the work another thread did meanwhile.
TEST(CpuClock, AStallIsNotTheThreadsWork) {
  // Burns `ms` of the calling thread's own CPU time, however long that takes.
  const auto spin = [](int ms) {
    const std::int64_t end = thread_cpu_ns() + ms * 1'000'000LL;
    volatile std::uint64_t x = 0;
    while (thread_cpu_ns() < end) x = x + 1;
  };
  const std::int64_t w0 = now_ns(), t0 = thread_cpu_ns(), p0 = process_cpu_ns();
  spin(20);
  std::thread other([&] { spin(40); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  other.join();
  spin(20);
  const std::int64_t wall = now_ns() - w0, own = thread_cpu_ns() - t0,
                     all = process_cpu_ns() - p0;
  EXPECT_GE(own, 40'000'000);
  EXPECT_LT(own, 50'000'000);
  EXPECT_GE(wall, own + 60'000'000);  // the 60 ms sleep is not on the thread's clock
  EXPECT_GE(all - own, 40'000'000);   // the other thread's 40 ms of spinning
}

TEST(ThreadCpu, AttributesCpuToTheThreadThatBurnedIt) {
  const std::vector<int> before = thread_ids();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> spun{false};
  std::atomic<int> busy_tid{0};
  std::atomic<int> idle_tid{0};
  std::thread busy([&] {
    busy_tid = current_tid();
    ++ready;
    while (!go) std::this_thread::yield();
    // 120 ms of this thread's own CPU time, however long a busy host takes.
    const std::int64_t end = thread_cpu_ns() + 120'000'000;
    volatile std::uint64_t x = 0;
    while (thread_cpu_ns() < end) x = x + 1;
    spun = true;
    while (!stop) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::thread idle([&] {
    idle_tid = current_tid();
    ++ready;
    while (!stop) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  while (ready < 2) std::this_thread::yield();

  const std::vector<int> fresh = new_threads(before, thread_ids());
  ASSERT_EQ(fresh.size(), 2u);
  ThreadCpu busy0, idle0, busy1, idle1;
  ASSERT_TRUE(read_thread_cpu(busy_tid, &busy0));
  ASSERT_TRUE(read_thread_cpu(idle_tid, &idle0));
  go = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  while (!spun) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(read_thread_cpu(busy_tid, &busy1));
  ASSERT_TRUE(read_thread_cpu(idle_tid, &idle1));
  const ThreadCpu sum = sum_thread_cpu(fresh);
  stop = true;
  busy.join();
  idle.join();

  const ThreadCpu b = busy1 - busy0;
  const ThreadCpu i = idle1 - idle0;
  EXPECT_GE(b.cpu_ns, 120'000'000);  // 120 ms of spinning
  EXPECT_LT(i.cpu_ns, 20'000'000);   // sleeping, waking every 5 ms
  EXPECT_GT(i.ctx_switches, 10u);    // 40 or more sleeps, each a voluntary switch
  EXPECT_GE(sum.cpu_ns, busy1.cpu_ns);
  EXPECT_FALSE(read_thread_cpu(busy_tid, &busy1));  // joined: gone
}

TEST(SpanLog, RecordsParentsAndDurations) {
  SpanLog log(3);
  const std::uint32_t root = log.begin("root", 0, 7);
  const std::uint32_t child = log.begin("child", root, 7);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double child_s = log.end(child);
  log.end(root);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, root);
  EXPECT_EQ(log.spans()[1].request, 7u);
  EXPECT_EQ(root >> 24, 3u);
  EXPECT_GE(child_s, 2e-3);
  EXPECT_GE(span_durations_us(log.spans(), "root")[0], child_s * 1e6);
}

}  // namespace
}  // namespace perfbench
