#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "crypto/certificate.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/channel.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "endpoint_waiter.hpp"
#include "net/network.hpp"

using namespace ace;
using namespace ace::crypto;
using namespace std::chrono_literals;

namespace {
std::string hex(const Digest& d) {
  return util::hex_encode(util::Bytes(d.begin(), d.end()));
}
}  // namespace

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, KnownVectors) {
  // FIPS 180-2 test vectors.
  EXPECT_EQ(hex(sha256(std::string_view(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(sha256(std::string_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(sha256(std::string_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputMatchesMillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  Sha256 h;
  h.update(std::string_view("hello "));
  h.update(std::string_view("world"));
  EXPECT_EQ(hex(h.finish()), hex(sha256(std::string_view("hello world"))));
}

TEST(Sha256, ChunkedUpdatesMatchOneShot) {
  // update() compresses runs of whole blocks straight from its input and
  // buffers only the ragged ends; chunk sizes around the 64-byte block
  // cross every mix of partial block, whole-block run and tail.
  util::Bytes input(1024);
  util::Rng rng(19);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next());
  const std::string one_shot = hex(sha256(input));
  for (std::size_t chunk : {1, 55, 63, 64, 65, 128, 200}) {
    Sha256 h;
    for (std::size_t at = 0; at < input.size(); at += chunk)
      h.update(input.data() + at, std::min(chunk, input.size() - at));
    EXPECT_EQ(hex(h.finish()), one_shot) << "chunk=" << chunk;
  }
}

namespace {
// The CPU feature test Sha256 makes, asked again here, so that a dispatch
// that stops choosing the hardware compression fails a test.
bool cpu_has_sha_extensions() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}
}  // namespace

TEST(Sha256, HardwareCompressionMatchesPortable) {
#if defined(__x86_64__)
  if (!cpu_has_sha_extensions())
    GTEST_SKIP() << "this CPU lacks the SHA extensions (sha, sse4.1)";
  util::Rng rng(1901);
  util::Bytes data(8 * 64);
  for (int trial = 0; trial < 1000; ++trial) {
    std::array<std::uint32_t, 8> state{};
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
    const std::size_t blocks = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < blocks * 64; ++i)
      data[i] = static_cast<std::uint8_t>(rng.next());
    std::array<std::uint32_t, 8> portable = state, hardware = state;
    detail::sha256_compress_portable(portable.data(), data.data(), blocks);
    detail::sha256_compress_sha_ni(hardware.data(), data.data(), blocks);
    ASSERT_EQ(hardware, portable) << "trial " << trial << ", " << blocks
                                  << " blocks";
  }
#else
  GTEST_SKIP() << "the SHA-extension compression is built for x86-64 only";
#endif
}

TEST(Sha256, HardwareSelectedWhenCpuHasShaExtensions) {
#if defined(__x86_64__)
  if (cpu_has_sha_extensions()) {
    EXPECT_EQ(detail::sha256_compress(), &detail::sha256_compress_sha_ni);
    return;
  }
#endif
  EXPECT_EQ(detail::sha256_compress(), &detail::sha256_compress_portable);
}

TEST(Hmac, Rfc4231Vector) {
  // RFC 4231 test case 2.
  util::Bytes key = util::to_bytes("Jefe");
  util::Bytes msg = util::to_bytes("what do ya want for nothing?");
  EXPECT_EQ(hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test cases 6 and 7: a 131-byte key, longer than the 64-byte
  // block, so HMAC must hash it first; case 7's message spans 3 blocks.
  util::Bytes key(131, 0xaa);
  EXPECT_EQ(hex(hmac_sha256(
                key, util::to_bytes(
                         "Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(
      hex(hmac_sha256(
          key, util::to_bytes("This is a test using a larger than block-size "
                              "key and a larger than block-size data. The key "
                              "needs to be hashed before being used by the "
                              "HMAC algorithm."))),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// Message lengths around the padding boundaries: 55 bytes leave exactly
// room for the 0x80 byte and the length field; from 56 up to 63 the
// padding spills into a second block; 64, 119 and 120 repeat the cases one
// block later.
constexpr std::size_t kPaddingLengths[] = {55, 56, 57, 63, 64, 119, 120};

TEST(Sha256, PaddingBoundaries) {
  // Digests of 'a' * n from Python's hashlib.
  const std::map<std::size_t, std::string> expected = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (std::size_t n : kPaddingLengths)
    EXPECT_EQ(hex(sha256(std::string(n, 'a'))), expected.at(n)) << "n=" << n;
}

TEST(Hmac, KeyedStateMatchesOneShot) {
  // One HmacKey reused across messages, as a channel direction reuses its
  // key for every record: mac() must leave the keyed midstates untouched.
  util::Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const HmacKey keyed(key);
  for (std::size_t n : kPaddingLengths) {
    const util::Bytes msg(n, 'a');
    EXPECT_EQ(hex(keyed.mac(msg)), hex(hmac_sha256(key, msg))) << "n=" << n;
  }
}

TEST(Hkdf, ProducesRequestedLengthDeterministically) {
  util::Bytes salt = util::to_bytes("salt");
  util::Bytes ikm = util::to_bytes("input key material");
  auto k1 = hkdf(salt, ikm, "ctx", 96);
  auto k2 = hkdf(salt, ikm, "ctx", 96);
  EXPECT_EQ(k1.size(), 96u);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(hkdf(salt, ikm, "other", 96), k1);
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439Vector) {
  // RFC 8439 §2.4.2: key 00..1f, nonce 000000000000004a00000000, counter 1.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const ChaChaNonce nonce{0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::Bytes data = util::to_bytes(plaintext);
  chacha20_xor(key, nonce, 1, data);
  // All 114 bytes: one whole 64-byte keystream block, then a 50-byte tail
  // of the second.
  EXPECT_EQ(util::hex_encode(data),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  ChaChaKey key{};
  key[0] = 7;
  ChaChaNonce nonce = nonce_from_sequence(42, 0xabcd);
  util::Bytes data = util::to_bytes("round trip payload of some length");
  util::Bytes original = data;
  chacha20_xor(key, nonce, 1, data);
  EXPECT_NE(data, original);
  chacha20_xor(key, nonce, 1, data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, DifferentSequencesProduceDifferentStreams) {
  ChaChaKey key{};
  util::Bytes a = util::to_bytes("same plaintext");
  util::Bytes b = a;
  chacha20_xor(key, nonce_from_sequence(1, 0), 1, a);
  chacha20_xor(key, nonce_from_sequence(2, 0), 1, b);
  EXPECT_NE(a, b);
}

// --------------------------------------------------------------------- DH

TEST(Dh, SharedSecretAgreement) {
  util::Rng rng(5);
  DhKeyPair alice = dh_generate(rng);
  DhKeyPair bob = dh_generate(rng);
  EXPECT_EQ(dh_shared(alice.private_key, bob.public_key),
            dh_shared(bob.private_key, alice.public_key));
}

TEST(Dh, ModPowBasics) {
  EXPECT_EQ(mod_pow(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(mod_pow(5, 0, 97), 1u);
  EXPECT_EQ(mod_pow(7, 1, 97), 7u);
}

// ------------------------------------------------------------ certificates

TEST(Certificates, IssueAndVerify) {
  CertificateAuthority ca(1);
  Identity id = ca.issue("svc/test");
  EXPECT_EQ(id.certificate.subject, "svc/test");
  EXPECT_TRUE(CertificateAuthority::verify(id.certificate,
                                           ca.verification_key()));
}

TEST(Certificates, TamperedCertificateFailsVerification) {
  CertificateAuthority ca(1);
  Identity id = ca.issue("svc/test");
  id.certificate.subject = "svc/evil";  // forge the name
  EXPECT_FALSE(CertificateAuthority::verify(id.certificate,
                                            ca.verification_key()));
}

TEST(Certificates, WrongCaKeyFailsVerification) {
  CertificateAuthority ca(1), other(2);
  Identity id = ca.issue("svc/test");
  EXPECT_FALSE(CertificateAuthority::verify(id.certificate,
                                            other.verification_key()));
}

TEST(Certificates, SerializeParseRoundTrip) {
  CertificateAuthority ca(1);
  Identity id = ca.issue("svc/round-trip");
  auto parsed = Certificate::parse(id.certificate.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->subject, id.certificate.subject);
  EXPECT_EQ(parsed->static_public, id.certificate.static_public);
  EXPECT_EQ(parsed->tag, id.certificate.tag);
}

// Environment::issue_identity calls issue() from whichever thread makes a
// client, so several threads draw keys and serials from one CA at once.
TEST(CertificateAuthorityTest, ConcurrentIssueGivesDistinctSerials) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  CertificateAuthority ca(3);
  std::vector<std::vector<Identity>> issued(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&ca, &out = issued[t], t] {
        for (int i = 0; i < kPerThread; ++i)
          out.push_back(ca.issue("user/t" + std::to_string(t) + "-" +
                                 std::to_string(i)));
      });
  }
  std::set<std::uint64_t> serials;
  for (const auto& batch : issued) {
    for (const Identity& id : batch) {
      serials.insert(id.certificate.serial);
      EXPECT_TRUE(CertificateAuthority::verify(id.certificate,
                                               ca.verification_key()))
          << id.name();
    }
  }
  EXPECT_EQ(serials.size(), std::size_t{kThreads * kPerThread});
}

// ----------------------------------------------------------- SecureChannel

class ChannelTest : public ::testing::Test {
 protected:
  struct Pair {
    SecureChannel client;
    SecureChannel server;
  };

  // Establishes a channel pair over the simulated network.
  util::Result<Pair> make_pair(ChannelOptions options = {}) {
    auto listener = network_.add_host("server").listen(100);
    if (!listener.ok()) return listener.error();
    testenv::AcceptInbox accepts(reactor_, **listener);
    auto conn = network_.add_host("client").connect({"server", 100});
    if (!conn.ok()) return conn.error();
    auto accepted = accepts.next();
    if (!accepted) return util::Error{util::Errc::timeout, "no accept"};

    auto server = testenv::Handshake::accept(
        reactor_, std::move(*accepted), ca_.issue("svc/server"),
        ca_.verification_key(), 1s, options);
    auto client_side =
        testenv::Handshake::connect(reactor_, std::move(conn.value()),
                                    ca_.issue("user/client"),
                                    ca_.verification_key(), 1s, options)
            .result();
    auto server_side = server.result();
    if (!client_side.ok()) return client_side.error();
    if (!server_side.ok()) return server_side.error();
    return Pair{std::move(client_side.value()),
                std::move(server_side.value())};
  }

  // A channel pair with a man in the middle: the client dials "relay", and
  // the relay dials the server on `port`. The relay carries the four
  // handshake frames across untouched; after that the test moves client
  // records to the server by hand, so it can corrupt, replay or reorder
  // them on the way.
  struct Relayed {
    SecureChannel client;
    SecureChannel server;
    net::Connection to_server;  // the relay's end facing the server
    // What reaches the relay's end facing the client.
    std::unique_ptr<testenv::FrameInbox> from_client;
  };

  util::Result<Relayed> make_relayed_pair(std::uint16_t port) {
    auto server_listener = network_.add_host("server").listen(port);
    if (!server_listener.ok()) return server_listener.error();
    testenv::AcceptInbox server_accepts(reactor_, **server_listener);
    net::Host& relay = network_.add_host("relay");
    auto relay_listener = relay.listen(port);
    if (!relay_listener.ok()) return relay_listener.error();
    testenv::AcceptInbox relay_accepts(reactor_, **relay_listener);
    auto client_conn = network_.add_host("client").connect({"relay", port});
    if (!client_conn.ok()) return client_conn.error();
    auto client_end = relay_accepts.next();
    auto server_end = relay.connect({"server", port});
    if (!client_end || !server_end.ok())
      return util::Error{util::Errc::timeout, "relay not connected"};
    auto server_conn = server_accepts.next();
    if (!server_conn) return util::Error{util::Errc::timeout, "no accept"};

    Relayed pair;
    pair.to_server = server_end.value();
    pair.from_client =
        std::make_unique<testenv::FrameInbox>(reactor_, *client_end);
    testenv::FrameInbox from_server(reactor_, pair.to_server);
    auto server = testenv::Handshake::accept(
        reactor_, std::move(*server_conn), ca_.issue("svc/server"),
        ca_.verification_key(), 1s);
    auto client = testenv::Handshake::connect(
        reactor_, std::move(client_conn.value()), ca_.issue("user/client"),
        ca_.verification_key(), 1s);
    auto forward = [](testenv::FrameInbox& from, net::Connection& to,
                      int frames) {
      for (int i = 0; i < frames; ++i) {
        auto f = from.next();
        if (!f || !to.send(std::move(*f)).ok()) return;
      }
    };
    // Client hello; server hello and authenticator; client authenticator.
    forward(*pair.from_client, pair.to_server, 1);
    forward(from_server, *client_end, 2);
    forward(*pair.from_client, pair.to_server, 1);
    auto client_side = client.result();
    auto server_side = server.result();
    if (!client_side.ok()) return client_side.error();
    if (!server_side.ok()) return server_side.error();
    pair.client = std::move(client_side.value());
    pair.server = std::move(server_side.value());
    return pair;
  }

  net::Network network_;
  net::Reactor reactor_;  // after network_: stops before the queues die
  CertificateAuthority ca_{77};
};

TEST_F(ChannelTest, HandshakeAuthenticatesBothPeers) {
  auto pair = make_pair();
  ASSERT_TRUE(pair.ok()) << pair.error().to_string();
  EXPECT_EQ(pair->client.peer_name(), "svc/server");
  EXPECT_EQ(pair->server.peer_name(), "user/client");
}

TEST_F(ChannelTest, EncryptedRoundTrip) {
  auto pair = make_pair();
  ASSERT_TRUE(pair.ok());
  testenv::FrameInbox server_rx(reactor_, pair->server);
  testenv::FrameInbox client_rx(reactor_, pair->client);
  ASSERT_TRUE(pair->client.send(util::to_bytes("secret command")).ok());
  auto got = server_rx.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "secret command");

  ASSERT_TRUE(pair->server.send(util::to_bytes("reply")).ok());
  got = client_rx.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "reply");
}

TEST_F(ChannelTest, CiphertextDiffersFromPlaintext) {
  // Send through the secure channel and sniff the raw connection bytes by
  // re-doing the experiment at the frame level: encrypt mode must not leak
  // the plaintext in the record.
  auto pair = make_pair();
  ASSERT_TRUE(pair.ok());
  // White-box: a record is seq(8) + ciphertext + mac(16); ensure a second
  // identical payload yields a different record (sequence-keyed nonce).
  testenv::FrameInbox server_rx(reactor_, pair->server);
  ASSERT_TRUE(pair->client.send(util::to_bytes("same payload")).ok());
  ASSERT_TRUE(pair->client.send(util::to_bytes("same payload")).ok());
  auto r1 = server_rx.next();
  auto r2 = server_rx.next();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(*r1, *r2);  // decrypted payloads equal...
  // ...which exercises nonce-per-sequence decryption of distinct records.
}

TEST_F(ChannelTest, ManyMessagesKeepSequence) {
  auto pair = make_pair();
  ASSERT_TRUE(pair.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pair->client.send(util::to_bytes(std::to_string(i))).ok());
  }
  testenv::FrameInbox server_rx(reactor_, pair->server);
  for (int i = 0; i < 200; ++i) {
    auto got = server_rx.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(util::to_string(*got), std::to_string(i));
  }
}

TEST_F(ChannelTest, PlaintextModePassesThrough) {
  ChannelOptions options;
  options.encrypt = false;
  auto pair = make_pair(options);
  ASSERT_TRUE(pair.ok());
  testenv::FrameInbox server_rx(reactor_, pair->server);
  ASSERT_TRUE(pair->client.send(util::to_bytes("in the clear")).ok());
  auto got = server_rx.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "in the clear");
  EXPECT_EQ(pair->client.peer_name(), "");  // unauthenticated
}

TEST_F(ChannelTest, ForgedCertificateRejected) {
  auto listener = network_.add_host("server").listen(100);
  ASSERT_TRUE(listener.ok());
  testenv::AcceptInbox accepts(reactor_, **listener);
  auto conn = network_.add_host("client").connect({"server", 100});
  ASSERT_TRUE(conn.ok());
  auto accepted = accepts.next();
  ASSERT_TRUE(accepted.has_value());

  CertificateAuthority rogue_ca(123);  // not trusted by the server
  auto server = testenv::Handshake::accept(
      reactor_, std::move(*accepted), ca_.issue("svc/server"),
      ca_.verification_key(), 300ms);
  auto client_side =
      testenv::Handshake::connect(reactor_, std::move(conn.value()),
                                  rogue_ca.issue("user/mallory"),
                                  ca_.verification_key(), 300ms)
          .result();
  auto server_side = server.result();
  ASSERT_FALSE(server_side.ok());
  EXPECT_EQ(server_side.error().code, util::Errc::auth_error);
  // The server rejects before it sends its hello and closes the
  // connection, which ends the client's exchange.
  ASSERT_FALSE(client_side.ok());
  EXPECT_EQ(client_side.error().code, util::Errc::closed);
  EXPECT_EQ(client_side.error().message, "handshake: connection closed");
}

// A listener nobody accepts never answers the client hello: the handshake
// times out once, closes its connection and counts one failure.
TEST_F(ChannelTest, AsyncConnectTimesOutWithoutServerHello) {
  auto listener = network_.add_host("server").listen(100);  // never accepts
  ASSERT_TRUE(listener.ok());
  auto conn = network_.add_host("client").connect({"server", 100});
  ASSERT_TRUE(conn.ok());
  net::Connection handle = conn.value();  // shares the connection's state
  obs::MetricsRegistry metrics;
  ChannelOptions options;
  options.metrics = &metrics;

  auto client = testenv::Handshake::connect(
      reactor_, std::move(conn.value()), ca_.issue("user/client"),
      ca_.verification_key(), 200ms, options);
  auto result = client.result();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Errc::timeout);
  EXPECT_EQ(result.error().message, "handshake: no server hello");
  EXPECT_TRUE(handle.closed());
  EXPECT_EQ(metrics.counter("crypto.handshake_failures").value(), 1u);
  EXPECT_EQ(metrics.counter("crypto.handshakes").value(), 0u);
  std::this_thread::sleep_for(200ms);  // room for a second completion
  EXPECT_EQ(client.completions(), 1);
}

// A stopped reactor cannot arm the handshake's timer: the handshake fails
// at once, on the calling thread, and counts one failure.
TEST_F(ChannelTest, AsyncConnectOnStoppedReactorFailsOnCallingThread) {
  auto listener = network_.add_host("server").listen(100);
  ASSERT_TRUE(listener.ok());
  auto conn = network_.add_host("client").connect({"server", 100});
  ASSERT_TRUE(conn.ok());
  net::Connection handle = conn.value();
  obs::MetricsRegistry metrics;
  ChannelOptions options;
  options.metrics = &metrics;
  net::Reactor stopped;
  stopped.stop();

  int completions = 0;
  std::thread::id ran_on;
  std::optional<util::Error> error;
  SecureChannel::async_connect(
      stopped, std::move(conn.value()), ca_.issue("user/client"),
      ca_.verification_key(), 200ms, options,
      [&](util::Result<SecureChannel> ch) {
        ++completions;
        ran_on = std::this_thread::get_id();
        if (!ch.ok()) error = ch.error();
      });
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, util::Errc::unavailable);
  EXPECT_EQ(error->message, "handshake: reactor stopped");
  EXPECT_TRUE(handle.closed());
  EXPECT_EQ(metrics.counter("crypto.handshake_failures").value(), 1u);
}

// --------------------------------------------------- record-layer tampering

namespace {

// How the man in the middle attacks a stream of three records carrying
// "record 0", "record 1" and "record 2". A record is
// seq(8) | ciphertext | tag(16).
enum class Tamper { sequence_bit, ciphertext_bit, tag_bit, replay, reorder };

const char* tamper_name(Tamper t) {
  switch (t) {
    case Tamper::sequence_bit: return "sequence_bit";
    case Tamper::ciphertext_bit: return "ciphertext_bit";
    case Tamper::tag_bit: return "tag_bit";
    case Tamper::replay: return "replay";
    case Tamper::reorder: return "reorder";
  }
  return "?";
}

constexpr Tamper kTampers[] = {Tamper::sequence_bit, Tamper::ciphertext_bit,
                               Tamper::tag_bit, Tamper::replay,
                               Tamper::reorder};

// The bad frame that reaches the server right after record 0: record 1
// with one bit flipped, record 0 again (replay), or record 2 ahead of
// record 1 (reorder).
util::Bytes bad_frame(Tamper t, const std::vector<util::Bytes>& records) {
  util::Bytes bad = records[1];
  switch (t) {
    case Tamper::sequence_bit: bad[7] ^= 0x01; break;
    case Tamper::ciphertext_bit: bad[8 + 3] ^= 0x10; break;
    case Tamper::tag_bit: bad[bad.size() - 1] ^= 0x80; break;
    case Tamper::replay: bad = records[0]; break;
    case Tamper::reorder: bad = records[2]; break;
  }
  return bad;
}

}  // namespace

TEST_F(ChannelTest, OnFrameClosesChannelOnTamperedRecord) {
  std::uint16_t port = 400;
  for (Tamper t : kTampers) {
    SCOPED_TRACE(tamper_name(t));
    auto pair = make_relayed_pair(port++);
    ASSERT_TRUE(pair.ok()) << pair.error().to_string();
    std::vector<util::Bytes> records;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          pair->client.send(util::to_bytes("record " + std::to_string(i))).ok());
      auto record = pair->from_client->next();
      ASSERT_TRUE(record.has_value());
      records.push_back(std::move(*record));
    }

    // record 0, the bad frame, then the authentic records 1 and 2, all
    // queued before the pump starts. Like a TLS fatal alert, the bad frame
    // ends delivery at once: the records behind it never reach the handler.
    for (const util::Bytes& frame :
         {records[0], bad_frame(t, records), records[1], records[2]})
      ASSERT_TRUE(pair->to_server.send(frame).ok());

    testenv::FrameInbox server_rx(reactor_, pair->server);
    auto first = server_rx.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(util::to_string(*first), "record 0");
    EXPECT_FALSE(server_rx.next(2s).has_value());
    EXPECT_TRUE(server_rx.ended());
    EXPECT_TRUE(pair->server.closed());
  }
}
