#include <gtest/gtest.h>

#include <cstring>

#include "obs/metrics.h"
#include "sim/device.h"
#include "sim/machine.h"
#include "sim/memory.h"
#include "sim/parallel.h"
#include "sim/spill.h"

namespace bento::sim {
namespace {

volatile double benchmark_sink = 0;

TEST(MemoryPoolTest, TracksCurrentAndPeak) {
  MemoryPool pool("t", 0);
  ASSERT_TRUE(pool.Reserve(100).ok());
  ASSERT_TRUE(pool.Reserve(50).ok());
  EXPECT_EQ(pool.bytes_allocated(), 150u);
  EXPECT_EQ(pool.peak_bytes(), 150u);
  pool.Release(100);
  EXPECT_EQ(pool.bytes_allocated(), 50u);
  EXPECT_EQ(pool.peak_bytes(), 150u);
  pool.ResetPeak();
  EXPECT_EQ(pool.peak_bytes(), 50u);
}

TEST(MemoryPoolTest, BudgetEnforced) {
  MemoryPool pool("small", 128);
  ASSERT_TRUE(pool.Reserve(100).ok());
  Status st = pool.Reserve(100);
  EXPECT_TRUE(st.IsOutOfMemory());
  // Failed reservation must not leak into the accounting.
  EXPECT_EQ(pool.bytes_allocated(), 100u);
  pool.Release(100);
  EXPECT_TRUE(pool.Reserve(128).ok());
}

TEST(MemoryPoolTest, ScopeInstallsCurrent) {
  EXPECT_EQ(MemoryPool::Current(), MemoryPool::Default());
  MemoryPool pool("scoped", 0);
  {
    MemoryScope scope(&pool);
    EXPECT_EQ(MemoryPool::Current(), &pool);
    MemoryPool inner("inner", 0);
    {
      MemoryScope nested(&inner);
      EXPECT_EQ(MemoryPool::Current(), &inner);
    }
    EXPECT_EQ(MemoryPool::Current(), &pool);
  }
  EXPECT_EQ(MemoryPool::Current(), MemoryPool::Default());
}

TEST(MachineSpecTest, TableIvConfigs) {
  EXPECT_EQ(MachineSpec::Laptop().cores, 8);
  EXPECT_EQ(MachineSpec::Laptop().ram_bytes, 16ULL << 30);
  EXPECT_EQ(MachineSpec::Workstation().cores, 16);
  EXPECT_EQ(MachineSpec::Workstation().ram_bytes, 64ULL << 30);
  EXPECT_EQ(MachineSpec::Server().cores, 24);
  EXPECT_EQ(MachineSpec::Server().ram_bytes, 128ULL << 30);
  EXPECT_TRUE(MachineSpec::EvaluationHost().gpu.has_value());
}

TEST(MachineSpecTest, ScaledShrinksBudgets) {
  MachineSpec scaled = MachineSpec::EvaluationHost().Scaled(0.5);
  EXPECT_EQ(scaled.ram_bytes, 98ULL << 30);
  EXPECT_EQ(scaled.gpu->vram_bytes, 8ULL << 30);
  EXPECT_EQ(scaled.cores, 24);  // cores are not scaled
}

TEST(SessionTest, InstallsPoolAndRestores) {
  Session session(MachineSpec::Laptop());
  EXPECT_EQ(Session::Current(), &session);
  EXPECT_EQ(MemoryPool::Current(), session.host_pool());
  EXPECT_EQ(session.host_pool()->budget(), 16ULL << 30);
  EXPECT_EQ(session.device_pool(), nullptr);
  {
    Session inner(MachineSpec::Server());
    EXPECT_EQ(Session::Current(), &inner);
  }
  EXPECT_EQ(Session::Current(), &session);
}

TEST(MakespanTest, GreedyBalances) {
  // Four unit tasks on two workers: 2 time units.
  std::vector<double> tasks(4, 1.0);
  EXPECT_DOUBLE_EQ(SimulateMakespan(tasks, 2, SchedulePolicy::kGreedy), 2.0);
  EXPECT_DOUBLE_EQ(SimulateMakespan(tasks, 4, SchedulePolicy::kGreedy), 1.0);
  EXPECT_DOUBLE_EQ(SimulateMakespan(tasks, 1, SchedulePolicy::kGreedy), 4.0);
}

TEST(MakespanTest, GreedyHandlesSkew) {
  // Greedy list scheduling: long task overlaps the short ones.
  std::vector<double> tasks = {4.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(SimulateMakespan(tasks, 2, SchedulePolicy::kGreedy), 4.0);
}

TEST(MakespanTest, StaticBlocksPayForSkew) {
  // Static contiguous assignment puts the heavy block on one worker.
  std::vector<double> tasks = {3.0, 3.0, 0.1, 0.1};
  double greedy = SimulateMakespan(tasks, 2, SchedulePolicy::kGreedy);
  double stat = SimulateMakespan(tasks, 2, SchedulePolicy::kStaticBlocks);
  EXPECT_DOUBLE_EQ(greedy, 3.1);
  EXPECT_DOUBLE_EQ(stat, 6.0);
}

TEST(MakespanTest, DispatchOverheadSerializes) {
  std::vector<double> tasks(8, 0.0);
  double m =
      SimulateMakespan(tasks, 8, SchedulePolicy::kGreedy, /*dispatch=*/0.5);
  EXPECT_GE(m, 4.0);  // eight dispatches at 0.5s through one dispatcher
}

TEST(MakespanTest, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(SimulateMakespan({}, 4, SchedulePolicy::kGreedy), 0.0);
  EXPECT_DOUBLE_EQ(SimulateMakespan({2.0}, 0, SchedulePolicy::kGreedy), 2.0);
}

TEST(ParallelForTest, RunsAllTasksAndCreditsOverlap) {
  Session session(MachineSpec::Laptop());  // 8 cores
  std::vector<int> hits(16, 0);
  double before = session.credit_seconds();
  ASSERT_TRUE(ParallelFor(16, [&](int64_t i) {
                hits[static_cast<size_t>(i)] = 1;
                // Busy-wait a deterministic amount so overlap credit > 0.
                double x = 0;
                for (int k = 0; k < 20000; ++k) x += k;
                benchmark_sink = benchmark_sink + x;
                return Status::OK();
              }).ok());
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_GT(session.credit_seconds(), before);
}

TEST(ParallelForTest, FirstErrorAborts) {
  int ran = 0;
  Status st = ParallelFor(10, [&](int64_t i) {
    ++ran;
    if (i == 3) return Status::Invalid("stop");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsInvalid());
  EXPECT_EQ(ran, 4);
}

TEST(ParallelForTest, WorksWithoutSession) {
  int64_t sum = 0;
  ASSERT_TRUE(ParallelFor(5, [&](int64_t i) {
                sum += i;
                return Status::OK();
              }).ok());
  EXPECT_EQ(sum, 10);
}

/// One worker or one task overlaps nothing, so without a dispatch cost the
/// tasks run as a plain loop: no simulated task is counted and no credit is
/// granted. A dispatch cost keeps the simulated path and its penalty.
TEST(ParallelForTest, OneWorkerOrOneTaskRunsInline) {
  Session session(MachineSpec::Laptop());  // 8 cores
  obs::Counter* sim_tasks =
      obs::MetricsRegistry::Global().counter("sim.parallel_for.sim_tasks");
  const uint64_t before = sim_tasks->value();
  ParallelOptions one_worker;
  one_worker.max_workers = 1;
  int ran = 0;
  auto task = [&](int64_t) {
    ++ran;
    return Status::OK();
  };
  ASSERT_TRUE(ParallelFor(8, task, one_worker).ok());
  ASSERT_TRUE(ParallelFor(1, task).ok());
  EXPECT_EQ(ran, 9);
  EXPECT_EQ(sim_tasks->value(), before);
  EXPECT_EQ(session.credit_seconds(), 0.0);
  EXPECT_TRUE(ParallelFor(3, [](int64_t) { return Status::Invalid("stop"); },
                          one_worker)
                  .IsInvalid());

  ParallelOptions dispatched = one_worker;
  dispatched.per_task_dispatch_s = 0.25;
  ASSERT_TRUE(ParallelFor(4, task, dispatched).ok());
  EXPECT_EQ(sim_tasks->value(), before + 4);
  EXPECT_NEAR(session.credit_seconds(), -1.0, 0.05);
}

TEST(VirtualTimerTest, CreditsReduceElapsed) {
  Session session(MachineSpec::Laptop());
  VirtualTimer timer;
  session.AddTimeCredit(100.0);  // pretend 100s of work overlapped away
  EXPECT_DOUBLE_EQ(timer.Elapsed(), 0.0);  // clamped at zero
}

TEST(VirtualTimerTest, PenaltiesIncreaseElapsed) {
  Session session(MachineSpec::Laptop());
  VirtualTimer timer;
  ChargePenalty(2.0);
  EXPECT_GE(timer.Elapsed(), 2.0);
}

TEST(SplitRangeTest, CoversRangeExactly) {
  auto chunks = SplitRange(100, 3, 1);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks.front().first, 0);
  EXPECT_EQ(chunks.back().second, 100);
  int64_t total = 0;
  for (auto [b, e] : chunks) total += e - b;
  EXPECT_EQ(total, 100);
}

TEST(SplitRangeTest, RespectsMinChunkSize) {
  auto chunks = SplitRange(100, 16, 40);
  EXPECT_LE(chunks.size(), 3u);
  EXPECT_TRUE(SplitRange(0, 4, 1).empty());
}

TEST(DeviceTest, KernelSpeedupCreditsTime) {
  MachineSpec spec = MachineSpec::Laptop();
  spec.gpu = GpuSpec{};
  Session session(spec);
  VirtualTimer timer;
  const double wall_start = NowSeconds();
  ASSERT_TRUE(DeviceKernel(KernelClass::kVector, []() {
                double x = 0;
                for (int k = 0; k < 20000000; ++k) x += k;
                benchmark_sink = benchmark_sink + x;
                return Status::OK();
              }).ok());
  const double wall = NowSeconds() - wall_start;
  // Virtual (device) time must be far below the host wall time of the same
  // kernel: speedup_vector is 64x.
  EXPECT_LT(timer.Elapsed(), wall / 2);
}

TEST(DeviceTest, TransfersChargeTime) {
  MachineSpec spec = MachineSpec::Laptop();
  spec.gpu = GpuSpec{};
  Session session(spec);
  VirtualTimer timer;
  DeviceTransfer(12ULL << 30);  // 12 GiB over ~12 GiB/s ~= 1 s
  EXPECT_NEAR(timer.Elapsed(), 1.0, 0.2);
}

TEST(DeviceTest, VramWallReturnsOoM) {
  MachineSpec spec = MachineSpec::Laptop();
  GpuSpec gpu;
  gpu.vram_bytes = 1024;  // managed oversubscription doubles the hard wall
  spec.gpu = gpu;
  Session session(spec);
  EXPECT_EQ(session.device_pool()->budget(), 2048u);
  DeviceAllocation alloc;
  ASSERT_TRUE(alloc.Grow(2000).ok());
  EXPECT_TRUE(alloc.Grow(100).IsOutOfMemory());
  alloc.Reset();
  EXPECT_EQ(session.device_pool()->bytes_allocated(), 0u);
}

TEST(DeviceTest, NoOpWithoutGpuSession) {
  // Outside any GPU session the device helpers degenerate gracefully.
  EXPECT_TRUE(DeviceKernel(KernelClass::kVector, []() {
                return Status::OK();
              }).ok());
  DeviceTransfer(1 << 20);
  EXPECT_TRUE(DeviceReserve(1 << 20).ok());
  DeviceFree(1 << 20);
}

TEST(SpillFileTest, WriteReadRoundTrip) {
  auto spill = SpillFile::Create().ValueOrDie();
  const char a[] = "hello spill";
  const char b[] = "second block";
  uint64_t off_a = spill->Write(a, sizeof(a)).ValueOrDie();
  uint64_t off_b = spill->Write(b, sizeof(b)).ValueOrDie();
  EXPECT_EQ(off_a, 0u);
  EXPECT_EQ(off_b, sizeof(a));
  char buf[32];
  ASSERT_TRUE(spill->Read(off_b, sizeof(b), buf).ok());
  EXPECT_STREQ(buf, b);
  ASSERT_TRUE(spill->Read(off_a, sizeof(a), buf).ok());
  EXPECT_STREQ(buf, a);
  EXPECT_EQ(spill->bytes_written(), sizeof(a) + sizeof(b));
}

TEST(SpillFileTest, FileRemovedOnDestruction) {
  std::string path;
  {
    auto spill = SpillFile::Create().ValueOrDie();
    path = spill->path();
    ASSERT_TRUE(spill->Write("x", 1).ok());
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

}  // namespace
}  // namespace bento::sim
