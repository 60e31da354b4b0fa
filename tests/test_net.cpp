#include <gtest/gtest.h>

#include <thread>

#include "endpoint_waiter.hpp"
#include "net/network.hpp"

using namespace ace;
using namespace ace::net;
using namespace std::chrono_literals;
using testenv::AcceptInbox;
using testenv::DatagramInbox;
using testenv::FrameInbox;

namespace {
Frame frame_of(const char* s) { return util::to_bytes(s); }
}  // namespace

TEST(Network, ConnectSendRecv) {
  Network network;
  Reactor reactor;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());
  AcceptInbox accepts(reactor, **listener);

  auto client = a.connect({"b", 100});
  ASSERT_TRUE(client.ok());
  auto server = accepts.next();
  ASSERT_TRUE(server.has_value());
  FrameInbox server_rx(reactor, *server);
  FrameInbox client_rx(reactor, *client);

  ASSERT_TRUE(client->send(frame_of("hello")).ok());
  auto got = server_rx.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "hello");

  ASSERT_TRUE(server->send(frame_of("world")).ok());
  got = client_rx.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "world");
}

TEST(Network, ConnectionRefusedWithoutListener) {
  Network network;
  Host& a = network.add_host("a");
  network.add_host("b");
  auto conn = a.connect({"b", 9});
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, util::Errc::refused);
}

TEST(Network, UnknownHost) {
  Network network;
  Host& a = network.add_host("a");
  auto conn = a.connect({"ghost", 9});
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, util::Errc::not_found);
}

TEST(Network, DownHostRefusesConnections) {
  Network network;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());
  b.set_down(true);
  auto conn = a.connect({"b", 100});
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, util::Errc::unavailable);
  b.set_down(false);
  EXPECT_TRUE(a.connect({"b", 100}).ok());
}

TEST(Network, PortConflict) {
  Network network;
  Host& a = network.add_host("a");
  auto first = a.listen(5);  // must stay alive to hold the port
  ASSERT_TRUE(first.ok());
  auto second = a.listen(5);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, util::Errc::conflict);
}

TEST(Network, ListenerCloseFreesPort) {
  Network network;
  Host& a = network.add_host("a");
  {
    auto listener = a.listen(5);
    ASSERT_TRUE(listener.ok());
    (*listener)->close();
  }
  EXPECT_TRUE(a.listen(5).ok());
}

TEST(Network, CloseMakesPeerRecvFail) {
  Network network;
  Reactor reactor;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());
  AcceptInbox accepts(reactor, **listener);
  auto client = a.connect({"b", 100});
  ASSERT_TRUE(client.ok());
  auto server = accepts.next();
  ASSERT_TRUE(server.has_value());
  FrameInbox server_rx(reactor, *server);

  client->close();
  EXPECT_FALSE(server_rx.next().has_value());
  EXPECT_TRUE(server_rx.ended());
  EXPECT_FALSE(server->send(frame_of("x")).ok());
}

TEST(Network, LinkLatencyDelaysDelivery) {
  Network network;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  LinkPolicy slow;
  slow.latency = 20ms;
  network.set_link("a", "b", slow);
  Reactor reactor;

  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());
  AcceptInbox accepts(reactor, **listener);
  auto client = a.connect({"b", 100});
  ASSERT_TRUE(client.ok());
  auto server = accepts.next();
  ASSERT_TRUE(server.has_value());
  FrameInbox server_rx(reactor, *server);

  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client->send(frame_of("ping")).ok());
  auto got = server_rx.next();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(elapsed, 18ms);
}

TEST(Network, PartitionResetsConnection) {
  Network network;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());
  auto client = a.connect({"b", 100});
  ASSERT_TRUE(client.ok());

  network.set_partitioned("a", "b", true);
  auto status = client->send(frame_of("x"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Errc::io_error);
  EXPECT_TRUE(client->closed());

  // New connections are also refused while partitioned.
  auto again = a.connect({"b", 100});
  EXPECT_FALSE(again.ok());
  network.set_partitioned("a", "b", false);
  EXPECT_TRUE(a.connect({"b", 100}).ok());
}

TEST(Network, DatagramDelivery) {
  Network network;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  auto sa = a.open_datagram(200);
  auto sb = b.open_datagram(200);
  ASSERT_TRUE(sa.ok() && sb.ok());
  Reactor reactor;
  DatagramInbox sb_rx(reactor, **sb);

  ASSERT_TRUE((*sa)->send_to({"b", 200}, frame_of("dgram")).ok());
  auto got = sb_rx.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(got->payload), "dgram");
  EXPECT_EQ(got->from.host, "a");
}

TEST(Network, DatagramToMissingSocketSilentlyDropped) {
  Network network;
  Host& a = network.add_host("a");
  network.add_host("b");
  auto sa = a.open_datagram(200);
  ASSERT_TRUE(sa.ok());
  EXPECT_TRUE((*sa)->send_to({"b", 999}, frame_of("x")).ok());
  EXPECT_EQ(network.stats().datagrams_dropped, 1u);
}

TEST(Network, DatagramLossRate) {
  Network network(/*seed=*/99);
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  LinkPolicy lossy;
  lossy.datagram_loss = 0.5;
  network.set_link("a", "b", lossy);

  auto sa = a.open_datagram(200);
  auto sb = b.open_datagram(200);
  ASSERT_TRUE(sa.ok() && sb.ok());
  Reactor reactor;
  DatagramInbox sb_rx(reactor, **sb);

  constexpr int kSent = 400;
  for (int i = 0; i < kSent; ++i)
    ASSERT_TRUE((*sa)->send_to({"b", 200}, frame_of("x")).ok());
  int received = 0;
  while (sb_rx.next(20ms)) received++;
  // ~50% loss with generous tolerance.
  EXPECT_GT(received, kSent / 4);
  EXPECT_LT(received, 3 * kSent / 4);
  EXPECT_EQ(network.stats().datagrams_dropped + received,
            static_cast<std::uint64_t>(kSent));
}

TEST(Network, EphemeralDatagramPortsAreDistinct) {
  Network network;
  Host& a = network.add_host("a");
  auto s1 = a.open_datagram();
  auto s2 = a.open_datagram();
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE((*s1)->address().port, (*s2)->address().port);
}

TEST(Network, StatsCountFramesAndBytes) {
  Network network;
  Host& a = network.add_host("a");
  Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());
  auto client = a.connect({"b", 100});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->send(Frame(128, 0)).ok());
  auto stats = network.stats();
  EXPECT_EQ(stats.frames_sent, 1u);
  EXPECT_EQ(stats.bytes_sent, 128u);
  EXPECT_EQ(stats.connects, 1u);
}

TEST(Address, ParseAndFormat) {
  auto addr = Address::parse("hawk:1234");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->host, "hawk");
  EXPECT_EQ(addr->port, 1234);
  EXPECT_EQ(addr->to_string(), "hawk:1234");

  EXPECT_FALSE(Address::parse("no-port").has_value());
  EXPECT_FALSE(Address::parse("h:99999").has_value());
  EXPECT_FALSE(Address::parse("h:12x").has_value());
  EXPECT_FALSE(Address::parse("h:").has_value());
}

// Regression: ephemeral_port() must never hand out a port a listener or
// datagram socket currently holds — even after the allocator's counter
// wraps the whole 40000..65535 range and comes back around.
TEST(Network, EphemeralPortSkipsBoundPorts) {
  Network network;
  Host& a = network.add_host("a");
  auto l1 = a.listen(40000);
  auto l2 = a.listen(40002);
  auto d1 = a.open_datagram(40001);
  ASSERT_TRUE(l1.ok() && l2.ok() && d1.ok());

  // More draws than the ephemeral range is wide, forcing a full wrap.
  for (int i = 0; i < 26000; ++i) {
    std::uint16_t port = a.ephemeral_port();
    ASSERT_GE(port, 40000);
    ASSERT_NE(port, 40000);
    ASSERT_NE(port, 40001);
    ASSERT_NE(port, 40002);
  }

  // A freed port becomes allocatable again.
  (*l2)->close();
  bool seen_40002 = false;
  for (int i = 0; i < 26000 && !seen_40002; ++i)
    seen_40002 = a.ephemeral_port() == 40002;
  EXPECT_TRUE(seen_40002);
}

TEST(Network, LoopbackHasZeroLatency) {
  Network network;
  network.set_default_latency(50ms);
  auto policy = network.link("same", "same");
  EXPECT_EQ(policy.latency.count(), 0);
}

// A connect holds its listener only across the hand-off at the end of the
// link's setup delay. A listener closed and destroyed (as a stopping daemon
// does), or just destroyed, 10 ms into a 50 ms setup refuses the connect,
// and nothing is written to the freed listener.
TEST(Network, ConnectRacingListenerDestructionIsRefused) {
  for (const bool close_first : {true, false}) {
    SCOPED_TRACE(close_first ? "close, then destroy" : "destroy");
    Network network;
    Host& a = network.add_host("a");
    Host& b = network.add_host("b");
    LinkPolicy slow;
    slow.latency = 50ms;
    network.set_link("a", "b", slow);

    auto bound = b.listen(100);
    ASSERT_TRUE(bound.ok());
    std::shared_ptr<Listener> listener = std::move(bound.value());
    std::thread closer([&] {
      std::this_thread::sleep_for(10ms);
      if (close_first) listener->close();
      listener.reset();
    });
    auto conn = a.connect({"b", 100});
    closer.join();
    ASSERT_FALSE(conn.ok());
    EXPECT_EQ(conn.error().code, util::Errc::refused);
  }
}
