// Property- and model-based tests:
//  * persistent store vs a reference map under random operation sequences,
//  * framebuffer server/viewer convergence under random drawing operations,
//  * secure-channel round-trips over random payloads and sizes,
//  * ADPCM SNR across the voice band (parameterized sweep),
//  * glob self-match and KeyNote condition evaluator total-ness,
//  * the command parser: exact number round trips, and mutated commands
//    that either fail cleanly or round-trip.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <map>
#include <string_view>

#include "media/audio.hpp"
#include "util/strings.hpp"

#include "ace_test_env.hpp"
#include "apps/framebuffer.hpp"
#include "cmdlang/parser.hpp"
#include "cmdlang_corpus.hpp"
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

// -------------------------------------------------- command-language numbers

namespace {

// Parses `c x=<text>;` and returns its one value.
cmdlang::Value reparse(const std::string& text) {
  auto cmd = cmdlang::Parser::parse("c x=" + text + ";");
  if (!cmd.ok()) {
    ADD_FAILURE() << text << ": " << cmd.error().to_string();
    return {};
  }
  return *cmd->find("x");
}

// One decimal place, like the pan/tilt/zoom values the camera commands
// carry.
double one_decimal(util::Rng& rng) {
  return static_cast<double>(rng.next_range(-20000, 20000)) / 10.0;
}

}  // namespace

TEST(ParserProperty, RealsReadBackBitIdentical) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::nextafter(DBL_MIN, 0.0),
                                -std::nextafter(DBL_MIN, 0.0),
                                DBL_MIN,
                                -DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX};
  util::Rng rng(211);
  while (values.size() < 10 + 100000) {
    double d = std::bit_cast<double>(rng.next());
    if (std::isfinite(d)) values.push_back(d);
  }
  for (int i = 0; i < 10000; ++i) values.push_back(one_decimal(rng));
  for (double d : values) {
    std::string text = cmdlang::Value(d).to_string();
    cmdlang::Value back = reparse(text);
    ASSERT_TRUE(back.is_real()) << text;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back.as_real()),
              std::bit_cast<std::uint64_t>(d))
        << text;
  }
}

TEST(ParserProperty, IntegersReadBackIdentical) {
  std::vector<std::int64_t> values = {std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max(),
                                      -1, 0, 1};
  util::Rng rng(223);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.next()));
    values.push_back(rng.next_range(-100000, 100000));
  }
  for (std::int64_t v : values) {
    std::string text = cmdlang::Value(v).to_string();
    cmdlang::Value back = reparse(text);
    ASSERT_TRUE(back.is_integer()) << text;
    ASSERT_EQ(back.as_integer(), v) << text;
  }
}

// --------------------------------------------- command parser under mutation

namespace {

// A name that lexes as one WORD: a letter, then word characters.
std::string random_word(util::Rng& rng) {
  return static_cast<char>('a' + rng.next_below(26)) +
         rng.next_name(rng.next_below(8));
}

cmdlang::Value random_scalar(util::Rng& rng, cmdlang::ValueType type) {
  switch (type) {
    case cmdlang::ValueType::integer:
      return static_cast<std::int64_t>(rng.next());
    case cmdlang::ValueType::real:
      for (;;) {
        double d = rng.next_bool(0.5) ? one_decimal(rng)
                                      : std::bit_cast<double>(rng.next());
        if (std::isfinite(d)) return d;
      }
    case cmdlang::ValueType::word:
      return cmdlang::Word{random_word(rng)};
    default: {
      // Any byte, quotes and backslashes included.
      std::string s(rng.next_below(24), '\0');
      for (char& c : s) c = static_cast<char>(rng.next_below(256));
      return s;
    }
  }
}

cmdlang::Vector random_vector(util::Rng& rng) {
  constexpr cmdlang::ValueType kScalars[] = {
      cmdlang::ValueType::integer, cmdlang::ValueType::real,
      cmdlang::ValueType::word, cmdlang::ValueType::string};
  cmdlang::Vector vec;
  vec.element_type = kScalars[rng.next_below(std::size(kScalars))];
  std::size_t n = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < n; ++i)
    vec.elements.push_back(random_scalar(rng, vec.element_type));
  return vec;
}

// A command with one argument of every value type, in random order, plus
// a few more of random types.
cmdlang::CmdLine random_command(util::Rng& rng) {
  std::vector<int> types = {0, 1, 2, 3, 4, 5};
  for (std::size_t extra = rng.next_below(4); extra > 0; --extra)
    types.push_back(static_cast<int>(rng.next_below(6)));
  for (std::size_t i = types.size(); i > 1; --i)
    std::swap(types[i - 1], types[rng.next_below(i)]);
  cmdlang::CmdLine cmd(random_word(rng));
  for (int type : types) {
    cmdlang::Value value;
    if (type < 4) {
      value = random_scalar(rng, static_cast<cmdlang::ValueType>(type));
    } else if (type == 4) {
      value = random_vector(rng);
    } else {
      cmdlang::Array arr;
      for (std::size_t n = 1 + rng.next_below(3); n > 0; --n)
        arr.vectors.push_back(random_vector(rng));
      value = std::move(arr);
    }
    cmd.arg(random_word(rng), std::move(value));
  }
  return cmd;
}

// One bit flip, truncation, grammar-byte insertion or splice with another
// corpus entry.
std::string mutate(util::Rng& rng, std::string s,
                   const std::vector<std::string>& corpus) {
  constexpr std::string_view kGrammar = "\" \\{},=;-+.e0123456789";
  switch (rng.next_below(4)) {
    case 0:
      if (!s.empty())
        s[rng.next_below(s.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      break;
    case 1:
      s.resize(rng.next_below(s.size() + 1));
      break;
    case 2:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                               rng.next_below(s.size() + 1)),
               kGrammar[rng.next_below(kGrammar.size())]);
      break;
    default: {
      const std::string& other = corpus[rng.next_below(corpus.size())];
      s = s.substr(0, rng.next_below(s.size() + 1)) +
          other.substr(rng.next_below(other.size() + 1));
      break;
    }
  }
  return s;
}

}  // namespace

// Parser::parse decodes untrusted bytes from the wire. Every mutation of a
// valid command must either fail with parse_error or parse to a command
// that serializes and parses back equal.
TEST(ParserProperty, MutatedCommandsFailCleanlyOrRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<std::string> corpus;
    for (const RoundTripCase& c : kRoundTripCorpus) corpus.push_back(c.text);
    for (int i = 0; i < 32; ++i) {
      cmdlang::CmdLine cmd = random_command(rng);
      corpus.push_back(cmd.to_string());
      auto back = cmdlang::Parser::parse(corpus.back());
      ASSERT_TRUE(back.ok()) << ::testing::PrintToString(corpus.back());
      ASSERT_EQ(back.value(), cmd) << ::testing::PrintToString(corpus.back());
    }
    for (int i = 0; i < 2000; ++i) {
      std::string input = corpus[rng.next_below(corpus.size())];
      for (std::size_t n = 1 + rng.next_below(3); n > 0; --n)
        input = mutate(rng, std::move(input), corpus);
      auto first = cmdlang::Parser::parse(input);
      if (!first.ok()) {
        ASSERT_EQ(first.error().code, util::Errc::parse_error)
            << ::testing::PrintToString(input);
        continue;
      }
      std::string text = first->to_string();
      auto second = cmdlang::Parser::parse(text);
      ASSERT_TRUE(second.ok()) << ::testing::PrintToString(input) << " -> "
                               << ::testing::PrintToString(text);
      ASSERT_EQ(first.value(), second.value())
          << ::testing::PrintToString(input) << " -> "
          << ::testing::PrintToString(text);
    }
  }
}
