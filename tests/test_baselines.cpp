// Tests for the comparison baselines (paper Ch 8): RMI-style marshalling
// (vs the ACE command language), Jini-style multicast discovery (vs the
// fixed-address ASD), and the centralized-placement experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ace_test_env.hpp"
#include "baselines/centralized.hpp"
#include "baselines/jini.hpp"
#include "baselines/rmi.hpp"
#include "cmdlang/parser.hpp"

using namespace ace;
using namespace ace::baselines;
using namespace std::chrono_literals;

// --------------------------------------------------------------------- RMI

TEST(Rmi, MarshalUnmarshalRoundTrip) {
  RmiInvocation inv;
  inv.interface_name = "edu.ku.ittc.ace.PTZCamera";
  inv.method_name = "move";
  inv.arguments = {{"pan", RmiValue(30.5)},
                   {"tilt", RmiValue(std::int64_t{-3})},
                   {"mode", RmiValue("fast")}};
  RmiMarshaller out, in;
  auto decoded = in.unmarshal(out.marshal(inv));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), inv);
}

TEST(Rmi, NestedListsRoundTrip) {
  RmiInvocation inv;
  inv.interface_name = "Ifc";
  inv.method_name = "m";
  inv.arguments = {
      {"limits", RmiValue(RmiValueList{
                     RmiValue(RmiValueList{RmiValue(std::int64_t{-90}),
                                           RmiValue(std::int64_t{90})}),
                     RmiValue(RmiValueList{RmiValue(std::int64_t{-30}),
                                           RmiValue(std::int64_t{30})})})}};
  RmiMarshaller out, in;
  auto decoded = in.unmarshal(out.marshal(inv));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), inv);
}

TEST(Rmi, GarbageRejected) {
  RmiMarshaller m;
  EXPECT_FALSE(m.unmarshal(util::to_bytes("not a stream")).ok());
}

TEST(Rmi, DescriptorCachingShrinksLaterMessages) {
  RmiInvocation inv;
  inv.interface_name = "edu.ku.ittc.ace.Service";
  inv.method_name = "ping";
  inv.arguments = {{"x", RmiValue(std::int64_t{1})}};
  RmiMarshaller cold(false);
  RmiMarshaller warm(true);
  std::size_t cold1 = cold.marshal(inv).size();
  std::size_t cold2 = cold.marshal(inv).size();
  std::size_t warm1 = warm.marshal(inv).size();
  std::size_t warm2 = warm.marshal(inv).size();
  EXPECT_EQ(cold1, cold2);
  EXPECT_EQ(warm1, cold1);   // first message pays full descriptors
  EXPECT_LT(warm2, warm1);   // later messages use back-references
}

TEST(Rmi, WirePayloadLargerThanAceCommand) {
  // The paper's E1 claim in miniature: same logical call, both encodings.
  cmdlang::CmdLine ace_cmd("ptzMove");
  ace_cmd.arg("pan", 30.5);
  ace_cmd.arg("tilt", std::int64_t{-3});
  ace_cmd.arg("zoom", 2.0);
  std::size_t ace_bytes = ace_cmd.to_string().size();

  RmiInvocation inv;
  inv.interface_name = "edu.ku.ittc.ace.PTZCamera";
  inv.method_name = "ptzMove";
  inv.arguments = {{"pan", RmiValue(30.5)},
                   {"tilt", RmiValue(std::int64_t{-3})},
                   {"zoom", RmiValue(2.0)}};
  RmiMarshaller m;
  std::size_t rmi_bytes = m.marshal(inv).size();
  EXPECT_GT(rmi_bytes, 2 * ace_bytes);
}

TEST(Rmi, DispatcherRoutesInvocations) {
  RmiDispatcher dispatcher;
  dispatcher.register_method("Ifc", "add", [](const RmiInvocation& inv) {
    std::int64_t sum = 0;
    for (const auto& [name, v] : inv.arguments)
      sum += std::get<std::int64_t>(v.v);
    return RmiValue(sum);
  });
  RmiInvocation inv;
  inv.interface_name = "Ifc";
  inv.method_name = "add";
  inv.arguments = {{"a", RmiValue(std::int64_t{2})},
                   {"b", RmiValue(std::int64_t{3})}};
  auto r = dispatcher.dispatch(inv);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::get<std::int64_t>(r->v), 5);

  inv.method_name = "missing";
  EXPECT_FALSE(dispatcher.dispatch(inv).ok());
}

// -------------------------------------------------------------------- Jini

TEST(Jini, MulticastDiscoveryFindsLookupService) {
  testenv::AceTestEnv deployment;
  ASSERT_TRUE(deployment.start().ok());

  // A segment of 8 hosts; the lookup service lives on one of them.
  std::vector<std::string> segment;
  for (int i = 0; i < 8; ++i) {
    std::string name = "seg" + std::to_string(i);
    deployment.env.network().add_host(name);
    segment.push_back(name);
  }
  daemon::DaemonHost lookup_host(deployment.env, "seg5");
  daemon::DaemonConfig c;
  c.name = "jini-lookup";
  auto& lookup = lookup_host.add_daemon<JiniLookupDaemon>(c);
  ASSERT_TRUE(lookup.start().ok());

  auto& probe_host = deployment.env.network().add_host("prober");
  auto result = jini_discover(deployment.env, probe_host, segment, 2s);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->probes_sent, 8);  // one per segment host vs ACE's 0
  EXPECT_EQ(result->lookup_service, lookup.address());
}

TEST(Jini, JoinAndLookupByAttributes) {
  testenv::AceTestEnv deployment;
  ASSERT_TRUE(deployment.start().ok());
  daemon::DaemonHost host(deployment.env, "jini-host");
  daemon::DaemonConfig c;
  c.name = "jini-lookup";
  auto& lookup = host.add_daemon<JiniLookupDaemon>(c);
  ASSERT_TRUE(lookup.start().ok());
  auto client = deployment.make_client("client", "user/x");

  cmdlang::CmdLine join("jiniJoin");
  join.arg("name", cmdlang::Word{"printer1"});
  join.arg("host", "print-host");
  join.arg("port", 99);
  join.arg("attributes", "device/printer/laser");
  ASSERT_TRUE(client->call(lookup.address(), join, daemon::kCallOk).ok());

  cmdlang::CmdLine find("jiniLookup");
  find.arg("attributes", "device/printer/*");
  auto r = client->call(lookup.address(), find, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_vector("services")->elements.size(), 1u);
}

TEST(Jini, DiscoveryTimesOutWithoutLookupService) {
  testenv::AceTestEnv deployment;
  ASSERT_TRUE(deployment.start().ok());
  deployment.env.network().add_host("lonely");
  auto& prober = deployment.env.network().add_host("prober");
  auto result = jini_discover(deployment.env, prober, {"lonely"}, 200ms);
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------- placement baseline

TEST(Placement, DistributedBeatsCentralizedUnderWanLatency) {
  PlacementExperiment distributed(Placement::distributed, 2000us);
  PlacementExperiment centralized(Placement::centralized, 2000us);

  // Warm both connection paths once.
  ASSERT_TRUE(distributed.device_command_rtt().ok());
  ASSERT_TRUE(centralized.device_command_rtt().ok());

  // Medians of 9 round trips each, so that one scheduling stall cannot
  // decide the comparison.
  auto median_rtt = [](PlacementExperiment& placement) {
    std::vector<std::int64_t> rtts;
    for (int i = 0; i < 9; ++i) {
      auto rtt = placement.device_command_rtt();
      EXPECT_TRUE(rtt.ok());
      if (rtt.ok()) rtts.push_back(rtt->count());
    }
    std::sort(rtts.begin(), rtts.end());
    return rtts.empty() ? std::int64_t{0} : rtts[rtts.size() / 2];
  };
  const std::int64_t d = median_rtt(distributed);
  const std::int64_t c = median_rtt(centralized);
  // The centralized path pays the WAN latency both ways.
  EXPECT_LT(d, c);
  EXPECT_GT(c, 2000);
}
