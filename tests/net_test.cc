// Discrete-event queue and network fabric tests: determinism, bandwidth
// serialization, latency, crash/drop behaviour, traffic accounting.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "net/event_queue.h"
#include "net/network.h"

namespace porygon::net {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NestedScheduling) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.ScheduleAt(10, [&] {
    fired.push_back(q.now());
    q.ScheduleAfter(5, [&] { fired.push_back(q.now()); });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  SimTime fired = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAt(50, [&] { fired = q.now(); });  // In the past.
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 100);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.ScheduleAt(10, [&] { ++count; });
  q.ScheduleAt(20, [&] { ++count; });
  q.ScheduleAt(30, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

class NetFixture : public ::testing::Test {
 protected:
  NetFixture() : network_(&events_, Rng(42)) {
    network_.SetLatency(FromMillis(0.5), 0);
  }
  EventQueue events_;
  SimNetwork network_;
};

TEST_F(NetFixture, DeliversMessageWithLatencyAndBandwidth) {
  NodeId a = network_.AddNode({1e6, 1e6});  // 1 MB/s both ways.
  NodeId b = network_.AddNode({1e6, 1e6});
  SimTime delivered_at = -1;
  Bytes received;
  network_.SetHandler(b, [&](const Message& m) {
    delivered_at = events_.now();
    received = m.payload;
  });

  Message msg;
  msg.from = a;
  msg.to = b;
  msg.kind = 7;
  msg.payload = ToBytes("hello");
  msg.wire_size = 100000;  // 0.1 s uplink + 0.1 s downlink at 1 MB/s.
  network_.Send(msg);
  events_.RunUntilIdle();

  ASSERT_NE(delivered_at, -1);
  EXPECT_EQ(received, ToBytes("hello"));
  // 100 ms tx + 0.5 ms latency + 100 ms rx = 200.5 ms.
  EXPECT_EQ(delivered_at, FromMillis(200.5));
}

TEST_F(NetFixture, UplinkSerializesConsecutiveSends) {
  NodeId a = network_.AddNode({1e6, 1e9});
  NodeId b = network_.AddNode({1e9, 1e9});
  std::vector<SimTime> deliveries;
  network_.SetHandler(b, [&](const Message&) {
    deliveries.push_back(events_.now());
  });

  for (int i = 0; i < 3; ++i) {
    Message m;
    m.from = a;
    m.to = b;
    m.wire_size = 1000000;  // 1 s each on a 1 MB/s uplink.
    network_.Send(m);
  }
  events_.RunUntilIdle();

  ASSERT_EQ(deliveries.size(), 3u);
  // Sends queue behind each other on the shared uplink.
  EXPECT_GE(deliveries[1] - deliveries[0], FromSeconds(0.99));
  EXPECT_GE(deliveries[2] - deliveries[1], FromSeconds(0.99));
}

TEST_F(NetFixture, CrashedReceiverDropsTraffic) {
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  int received = 0;
  network_.SetHandler(b, [&](const Message&) { ++received; });
  network_.SetCrashed(b, true);

  Message m;
  m.from = a;
  m.to = b;
  m.payload = ToBytes("x");
  network_.Send(m);
  events_.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.messages_dropped(), 1u);

  network_.SetCrashed(b, false);
  network_.Send(Message{a, b, 0, ToBytes("y"), 0, {}});
  events_.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, DropFilterCensorsSelectedKinds) {
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  int received = 0;
  network_.SetHandler(b, [&](const Message&) { ++received; });
  network_.SetDropFilter([](const Message& m) { return m.kind == 13; });

  network_.Send(Message{a, b, 13, ToBytes("censored"), 0, {}});
  network_.Send(Message{a, b, 14, ToBytes("allowed"), 0, {}});
  events_.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, TrafficAccountingByKind) {
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  network_.SetHandler(b, [](const Message&) {});

  network_.Send(Message{a, b, 1, {}, 500, {}});
  network_.Send(Message{a, b, 2, {}, 300, {}});
  network_.Send(Message{a, b, 1, {}, 200, {}});
  events_.RunUntilIdle();

  EXPECT_EQ(network_.StatsFor(a).bytes_sent, 1000u);
  EXPECT_EQ(network_.StatsFor(a).sent_by_kind.at(1), 700u);
  EXPECT_EQ(network_.StatsFor(a).sent_by_kind.at(2), 300u);
  EXPECT_EQ(network_.StatsFor(b).bytes_received, 1000u);
}

}  // namespace
}  // namespace porygon::net
