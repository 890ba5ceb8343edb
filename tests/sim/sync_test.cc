#include "sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/task.h"

namespace dufs::sim {
namespace {

// `server`/`spans` live in the test body, which runs the sim to completion.
Task<void> UseServer(Simulation& sim, FifoServer& server, Duration service,  // dufs-lint: allow(coro-ref-param)
                     std::vector<std::pair<SimTime, SimTime>>& spans) {
  co_await server.Serve(service);
  spans.emplace_back(sim.now() - service, sim.now());
}

TEST(FifoServerTest, SerializesWhenCapacityOne) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  FifoServer server(sim, 1);
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (int i = 0; i < 4; ++i) sim.Spawn(UseServer(sim, server, 10, spans));
  sim.Run();
  ASSERT_EQ(spans.size(), 4u);
  // Non-overlapping, back-to-back: 0-10, 10-20, 20-30, 30-40.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].first, 10 * i);
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].second, 10 * (i + 1));
  }
}

TEST(FifoServerTest, CapacityTwoAllowsPairs) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  FifoServer server(sim, 2);
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (int i = 0; i < 4; ++i) sim.Spawn(UseServer(sim, server, 10, spans));
  sim.Run();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].first, 0);
  EXPECT_EQ(spans[1].first, 0);
  EXPECT_EQ(spans[2].first, 10);
  EXPECT_EQ(spans[3].first, 10);
  EXPECT_EQ(sim.now(), 20);
}

TEST(FifoServerTest, FifoFairness) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  FifoServer server(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn([](FifoServer& srv, int id, std::vector<int>& ord) -> Task<void> {
      co_await srv.Serve(1);
      ord.push_back(id);
    }(server, i, order));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FifoServerTest, NoServerLeakedUnderChurn) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  FifoServer server(sim, 2);
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (int i = 0; i < 50; ++i) {
    sim.Spawn(UseServer(sim, server, 1 + (i % 3), spans));
  }
  sim.Run();
  EXPECT_EQ(spans.size(), 50u);
  EXPECT_EQ(server.queue_length(), 0u);
  // At no sim time may more than 2 spans overlap.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int overlap = 0;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      if (spans[j].first <= spans[i].first && spans[i].first < spans[j].second) {
        ++overlap;
      }
    }
    EXPECT_LE(overlap, 2);
  }
}

// A job's start is fixed when it joins, so a queued job costs only its
// departure event: no wake-up is handed to it when the job ahead leaves.
TEST(FifoServerTest, QueuedJobsCostOneEventEach) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  FifoServer server(sim, 1);
  std::vector<std::pair<SimTime, SimTime>> spans;
  constexpr int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) sim.Spawn(UseServer(sim, server, 10, spans));
  EXPECT_EQ(sim.Run(), static_cast<std::uint64_t>(kJobs));
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(spans.back().second, 10 * kJobs);
}

TEST(FifoServerTest, QueueLengthCountsJobsNotStarted) {
  Simulation sim;
  FifoServer server(sim, 1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(server.Join(10), 10 * i);
  // The first job started at once; the other three wait.
  EXPECT_EQ(server.queue_length(), 3u);
  std::vector<std::size_t> seen;
  for (const SimTime t : {5, 10, 15, 20, 30}) {
    sim.ScheduleFn(t, [&] { seen.push_back(server.queue_length()); });
  }
  sim.Run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 2, 2, 1, 0}));
}

TEST(MailboxTest, DeliversInOrder) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.Spawn([](Mailbox<int>& m, std::vector<int>& g) -> Task<void> {
    while (auto item = co_await m.Recv()) g.push_back(*item);
  }(mb, got));
  sim.ScheduleFn(1, [&] { mb.Send(1); });
  sim.ScheduleFn(2, [&] {
    mb.Send(2);
    mb.Send(3);
  });
  sim.ScheduleFn(3, [&] { mb.Close(); });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(MailboxTest, RecvBlocksUntilSend) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  Mailbox<int> mb(sim);
  SimTime recv_time = -1;
  sim.Spawn([](Simulation& s, Mailbox<int>& m, SimTime& t) -> Task<void> {
    auto item = co_await m.Recv();
    EXPECT_TRUE(item.has_value());
    t = s.now();
  }(sim, mb, recv_time));
  sim.ScheduleFn(77, [&] { mb.Send(5); });
  sim.Run();
  EXPECT_EQ(recv_time, 77);
}

TEST(MailboxTest, CloseWakesWaiter) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  Mailbox<int> mb(sim);
  bool saw_close = false;
  sim.Spawn([](Mailbox<int>& m, bool& closed) -> Task<void> {
    auto item = co_await m.Recv();
    closed = !item.has_value();
  }(mb, saw_close));
  sim.ScheduleFn(5, [&] { mb.Close(); });
  sim.Run();
  EXPECT_TRUE(saw_close);
}

TEST(MailboxTest, SendAfterCloseIsDropped) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  Mailbox<int> mb(sim);
  mb.Close();
  mb.Send(1);
  EXPECT_EQ(mb.size(), 0u);
}

TEST(BarrierTest, ReleasesAllPartiesTogether) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  Barrier barrier(sim, 3);
  std::vector<SimTime> release_times;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](Simulation& s, Barrier& b, int id,
                 std::vector<SimTime>& out) -> Task<void> {
      co_await s.Delay(10 * (id + 1));  // arrive at 10, 20, 30
      co_await b.Arrive();
      out.push_back(s.now());
    }(sim, barrier, i, release_times));
  }
  sim.Run();
  ASSERT_EQ(release_times.size(), 3u);
  for (auto t : release_times) EXPECT_EQ(t, 30);
}

TEST(BarrierTest, Reusable) {
  Simulation sim;
  CurrentSimulationScope scope(&sim);
  Barrier barrier(sim, 2);
  std::vector<SimTime> times;
  for (int i = 0; i < 2; ++i) {
    sim.Spawn([](Simulation& s, Barrier& b, int id,
                 std::vector<SimTime>& out) -> Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await s.Delay(id == 0 ? 5 : 10);
        co_await b.Arrive();
        out.push_back(s.now());
      }
    }(sim, barrier, i, times));
  }
  sim.Run();
  ASSERT_EQ(times.size(), 6u);
  // Rounds complete at 10, 20, 30 (slowest party paces each round).
  std::vector<SimTime> expect = {10, 10, 20, 20, 30, 30};
  EXPECT_EQ(times, expect);
}

}  // namespace
}  // namespace dufs::sim
