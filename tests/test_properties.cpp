// Property- and model-based tests:
//  * persistent store vs a reference map under random operation sequences,
//  * framebuffer server/viewer convergence under random drawing operations,
//  * secure-channel round-trips over random payloads and sizes,
//  * ADPCM SNR across the voice band (parameterized sweep),
//  * glob self-match and KeyNote condition evaluator total-ness.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "media/audio.hpp"
#include "util/strings.hpp"

#include "ace_test_env.hpp"
#include "apps/framebuffer.hpp"
#include "endpoint_waiter.hpp"
#include "keynote/expr.hpp"
#include "media/codec.hpp"
#include "store/persistent_store.hpp"
#include "store/store_client.hpp"

using namespace ace;
using namespace std::chrono_literals;

// ----------------------------------------------------- store vs model map

class StoreModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(StoreModelProperty, RandomOpsMatchReferenceModel) {
  testenv::AceTestEnv deployment(200 + GetParam());
  ASSERT_TRUE(deployment.start().ok());
  daemon::DaemonHost host(deployment.env, "store-host");
  daemon::DaemonConfig c;
  c.name = "store";
  c.room = "machine-room";
  auto& replica = host.add_daemon<store::PersistentStoreDaemon>(c, 1);
  ASSERT_TRUE(replica.start().ok());
  auto client = deployment.make_client("model", "svc/model");
  store::StoreClient store(*client, {replica.address()});

  std::map<std::string, util::Bytes> model;
  util::Rng rng(GetParam() * 31 + 7);
  for (int op = 0; op < 120; ++op) {
    std::string key = "k" + std::to_string(rng.next_below(8));
    switch (rng.next_below(3)) {
      case 0: {  // put
        util::Bytes value(rng.next_below(64));
        for (auto& b : value) b = static_cast<std::uint8_t>(rng.next());
        ASSERT_TRUE(store.put(key, value).ok());
        model[key] = value;
        break;
      }
      case 1: {  // delete
        ASSERT_TRUE(store.remove(key).ok());
        model.erase(key);
        break;
      }
      default: {  // get must agree with the model
        auto got = store.get(key);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_FALSE(got.ok()) << key;
        } else {
          ASSERT_TRUE(got.ok()) << key;
          EXPECT_EQ(got.value(), it->second) << key;
        }
      }
    }
  }
  // Final sweep: every model key readable, counts agree.
  for (const auto& [key, value] : model) {
    auto got = store.get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value);
  }
  EXPECT_EQ(replica.object_count(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelProperty, ::testing::Range(0, 4));

// ------------------------------------------- framebuffer replication property

class FramebufferProperty : public ::testing::TestWithParam<int> {};

TEST_P(FramebufferProperty, ViewerConvergesUnderRandomDrawing) {
  apps::Framebuffer server(160, 120), viewer(160, 120);
  util::Rng rng(GetParam() * 97 + 5);
  // Initial sync.
  ASSERT_TRUE(viewer.apply_updates(server.encode_updates(true)));
  server.clear_dirty();

  for (int round = 0; round < 40; ++round) {
    int ops = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < ops; ++i) {
      switch (rng.next_below(3)) {
        case 0:
          server.set_pixel(static_cast<int>(rng.next_below(160)),
                           static_cast<int>(rng.next_below(120)),
                           static_cast<std::uint8_t>(rng.next()));
          break;
        case 1:
          server.fill_rect({static_cast<int>(rng.next_below(150)),
                            static_cast<int>(rng.next_below(110)),
                            static_cast<int>(1 + rng.next_below(40)),
                            static_cast<int>(1 + rng.next_below(30))},
                           static_cast<std::uint8_t>(rng.next()));
          break;
        default:
          server.draw_label(static_cast<int>(rng.next_below(120)),
                            static_cast<int>(rng.next_below(100)),
                            rng.next_name(4),
                            static_cast<std::uint8_t>(rng.next()));
      }
    }
    // One incremental update per round must fully resynchronize.
    util::Bytes delta = server.encode_updates(false);
    server.clear_dirty();
    ASSERT_TRUE(viewer.apply_updates(delta));
    ASSERT_EQ(viewer.content_hash(), server.content_hash())
        << "diverged at round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramebufferProperty, ::testing::Range(0, 5));

// --------------------------------------------- channel payload round trips

class ChannelPayloadProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChannelPayloadProperty, RandomPayloadsSurviveEncryptedChannel) {
  net::Network network;
  net::Reactor reactor;
  crypto::CertificateAuthority ca(9);
  auto listener = network.add_host("server").listen(100);
  ASSERT_TRUE(listener.ok());
  testenv::AcceptInbox accepts(reactor, **listener);
  auto conn = network.add_host("client").connect({"server", 100});
  ASSERT_TRUE(conn.ok());
  auto accepted = accepts.next();
  ASSERT_TRUE(accepted.has_value());

  auto server = testenv::Handshake::accept(reactor, std::move(*accepted),
                                           ca.issue("s"),
                                           ca.verification_key(), 1s);
  auto client_side =
      testenv::Handshake::connect(reactor, std::move(conn.value()),
                                  ca.issue("c"), ca.verification_key(), 1s)
          .result();
  auto server_side = server.result();
  ASSERT_TRUE(client_side.ok());
  ASSERT_TRUE(server_side.ok());
  testenv::FrameInbox server_rx(reactor, server_side.value());

  util::Rng rng(GetParam() * 13 + 3);
  for (int i = 0; i < 30; ++i) {
    // Sizes spanning empty to multi-block (ChaCha20 block = 64 bytes).
    std::size_t n = rng.next_below(513);
    util::Bytes payload(n);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(client_side->send(payload).ok());
    auto got = server_rx.next();
    ASSERT_TRUE(got.has_value()) << "size " << n;
    EXPECT_EQ(*got, payload) << "size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelPayloadProperty,
                         ::testing::Range(0, 4));

// ----------------------------------------------------- ADPCM SNR sweep

class AdpcmSnrSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdpcmSnrSweep, VoiceBandToneSnrAboveFloor) {
  double frequency = GetParam();
  auto pcm = media::sine_wave(frequency, 10000, 4000, 0);
  media::AdpcmState enc, dec;
  auto decoded =
      media::adpcm_decode(media::adpcm_encode(pcm, enc), pcm.size(), dec);
  double signal = 0, noise = 0;
  // Skip the attack transient while the predictor ramps up.
  for (std::size_t i = 400; i < pcm.size(); ++i) {
    signal += static_cast<double>(pcm[i]) * pcm[i];
    double e = static_cast<double>(pcm[i]) - decoded[i];
    noise += e * e;
  }
  double snr_db = 10.0 * std::log10(signal / (noise + 1e-9));
  EXPECT_GT(snr_db, 12.0) << frequency << " Hz";
}

INSTANTIATE_TEST_SUITE_P(VoiceBand, AdpcmSnrSweep,
                         ::testing::Values(120, 300, 440, 800, 1600, 3000));

// ------------------------------------------------------- misc properties

TEST(GlobProperty, LiteralStringsMatchThemselves) {
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    std::string s = rng.next_name(rng.next_below(24));
    EXPECT_TRUE(util::glob_match(s, s)) << s;
    EXPECT_TRUE(util::glob_match("*", s)) << s;
    EXPECT_TRUE(util::glob_match(s + "*", s)) << s;
  }
}

TEST(ConditionProperty, EvaluatorIsTotalOnRandomWellFormedExpressions) {
  // Compose random expressions from a generator that only emits valid
  // syntax: the evaluator must never error and must be deterministic.
  util::Rng rng(91);
  keynote::ActionEnv env{{"a", "1"}, {"b", "xyz"}, {"c", "2.5"}};
  const char* atoms[] = {"a == 1",      "b == \"xyz\"", "c > 2",
                         "a != b",      "missing == \"\"", "true",
                         "false",       "b ~= \"x*\"",  "c <= 2.5"};
  for (int i = 0; i < 200; ++i) {
    std::string expr = atoms[rng.next_below(std::size(atoms))];
    int clauses = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < clauses; ++k) {
      expr = "(" + expr + (rng.next_bool(0.5) ? ") && (" : ") || (") +
             atoms[rng.next_below(std::size(atoms))] + ")";
    }
    if (rng.next_bool(0.3)) expr = "!(" + expr + ")";
    auto first = keynote::ConditionEvaluator::eval(expr, env);
    ASSERT_TRUE(first.ok()) << expr;
    auto second = keynote::ConditionEvaluator::eval(expr, env);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value()) << expr;
  }
}

TEST(ParserProperty, ArbitraryBytesNeverCrashParser) {
  util::Rng rng(101);
  for (int i = 0; i < 500; ++i) {
    std::string garbage;
    std::size_t n = rng.next_below(80);
    for (std::size_t k = 0; k < n; ++k)
      garbage.push_back(static_cast<char>(rng.next_below(256)));
    // Must return cleanly (ok or parse_error), never crash or hang.
    auto r = cmdlang::Parser::parse(garbage);
    if (!r.ok()) EXPECT_EQ(r.error().code, util::Errc::parse_error);
  }
}
