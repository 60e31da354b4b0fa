#include <gtest/gtest.h>

#include <cctype>
#include <thread>

#include "util/bytes.hpp"
#include "util/queue.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace ace::util;
using namespace std::chrono_literals;

// ----------------------------------------------------------- MessageQueue

TEST(MessageQueue, FifoOrder) {
  MessageQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(MessageQueue, CloseDrainsPendingThenReturnsNullopt) {
  MessageQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MessageQueue, CloseWakesBlockedConsumer) {
  MessageQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(20ms);
  q.close();
  consumer.join();
}

TEST(MessageQueue, BoundedQueueRejectsWhenFull) {
  MessageQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_FALSE(q.push(3));
  q.pop();
  EXPECT_TRUE(q.push(3));
}

TEST(MessageQueue, ManyProducersManyConsumers) {
  MessageQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum += *v;
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  threads[kProducers].join();
  threads[kProducers + 1].join();
  EXPECT_EQ(sum.load(), kProducers * kPerProducer * (kPerProducer + 1) / 2);
}

// ------------------------------------------------------------------ Bytes

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello world");
  w.blob({1, 2, 3});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_EQ(r.str().value(), "hello world");
  EXPECT_EQ(r.blob().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, UnderflowPoisonsReader) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.u8().has_value());  // stays failed
}

TEST(Bytes, EmptyStringAndBlob) {
  ByteWriter w;
  w.str("");
  w.blob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str().value(), "");
  EXPECT_TRUE(r.blob().value().empty());
}

TEST(Bytes, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,        1,
                                 127,      128,  // 1-byte/2-byte boundary
                                 300,      16383,
                                 16384,    0xdeadbeef,
                                 (1ULL << 63),   std::uint64_t(-1)};
  for (std::uint64_t v : cases) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint().value(), v) << v;
    EXPECT_TRUE(r.at_end()) << v;
  }
}

TEST(Bytes, VarintEncodingIsCompact) {
  ByteWriter w;
  w.varint(5);  // the common wire call-id case
  EXPECT_EQ(w.bytes().size(), 1u);
  ByteWriter w2;
  w2.varint(128);
  EXPECT_EQ(w2.bytes().size(), 2u);
}

TEST(Bytes, VarintTruncatedAndOverlong) {
  // Truncated: continuation bit set but no next byte.
  Bytes truncated{0x80};
  ByteReader r(truncated);
  EXPECT_FALSE(r.varint().has_value());
  // Overlong: more than ten continuation bytes poisons the reader.
  Bytes overlong(11, 0x80);
  ByteReader r2(overlong);
  EXPECT_FALSE(r2.varint().has_value());
  EXPECT_TRUE(r2.failed());
}

TEST(Bytes, ToStringViewIsCopyFree) {
  Bytes b = to_bytes("view me");
  std::string_view v = to_string_view(b);
  EXPECT_EQ(v, "view me");
  EXPECT_EQ(static_cast<const void*>(v.data()),
            static_cast<const void*>(b.data()));
  EXPECT_TRUE(to_string_view(Bytes{}).empty());
}

TEST(Bytes, HexEncode) {
  EXPECT_EQ(hex_encode({0x00, 0xff, 0x0a}), "00ff0a");
  EXPECT_EQ(hex_encode({}), "");
}

TEST(Bytes, HexRoundTripAllByteValues) {
  Bytes all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<std::uint8_t>(i));
  const std::string hex = hex_encode(all);
  ASSERT_EQ(hex.size(), 512u);
  EXPECT_EQ(hex_decode(hex), all);
  // Both alphabets decode; encode emits lowercase.
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  EXPECT_EQ(hex_decode(upper), all);
}

TEST(Bytes, HexDecodeRejectsMalformedInput) {
  EXPECT_TRUE(hex_decode("").empty());
  EXPECT_TRUE(hex_decode("abc").empty());   // odd length
  EXPECT_TRUE(hex_decode("zz").empty());    // non-hex character
  EXPECT_TRUE(hex_decode("0g").empty());    // bad low nibble
  EXPECT_TRUE(hex_decode("g0").empty());    // bad high nibble
  EXPECT_TRUE(hex_decode("00 11").empty()); // embedded whitespace
}

// Microbench-as-test: the table-driven codecs must round-trip 1 MB of
// pseudo-random bytes intact. (Timing is reported by bench_store E20; here
// we only pin correctness at wire-realistic sizes.)
TEST(Bytes, HexRoundTripOneMegabyte) {
  Rng rng(0xbe5);
  Bytes blob;
  blob.reserve(1 << 20);
  for (int i = 0; i < (1 << 20); ++i)
    blob.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  const std::string hex = hex_encode(blob);
  ASSERT_EQ(hex.size(), blob.size() * 2);
  EXPECT_EQ(hex_decode(hex), blob);
}

// -------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.next_gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NameLengthAndCharset) {
  Rng rng(17);
  auto name = rng.next_name(12);
  EXPECT_EQ(name.size(), 12u);
  for (char c : name)
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'));
}

// ---------------------------------------------------------------- strings

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(Strings, JoinInvertsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nhi"), "hi");
  EXPECT_EQ(trim("   "), "");
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expect;
};

class GlobTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTest, Matches) {
  const GlobCase& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobTest,
    ::testing::Values(
        GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
        GlobCase{"abc", "abc", true}, GlobCase{"abc", "abd", false},
        GlobCase{"a*c", "abc", true}, GlobCase{"a*c", "ac", true},
        GlobCase{"a*c", "abdc", true}, GlobCase{"a*c", "abcd", false},
        GlobCase{"Service/*", "Service/Device/PTZ", true},
        GlobCase{"Service/Device/*", "Service/Monitor/HRM", false},
        GlobCase{"*HRM*", "Service/Monitor/HRM", true},
        GlobCase{"a?c", "abc", true}, GlobCase{"a?c", "ac", false},
        GlobCase{"**", "x", true}, GlobCase{"", "", true},
        GlobCase{"", "x", false},
        // Fast-path shapes: exact, "prefix*", "*suffix" — and near misses
        // that must still take the general matcher ('?' anywhere, interior
        // or multiple '*').
        GlobCase{"exact-name", "exact-name", true},
        GlobCase{"exact-name", "exact-name2", false},
        GlobCase{"exact-name", "exact-nam", false},
        GlobCase{"room-*", "room-db", true},
        GlobCase{"room-*", "room-", true},
        GlobCase{"room-*", "roomdb", false},
        GlobCase{"room-*", "room", false},
        GlobCase{"*-db", "room-db", true},
        GlobCase{"*-db", "-db", true},
        GlobCase{"*-db", "db", false},
        GlobCase{"*?", "", false}, GlobCase{"*?", "x", true},
        GlobCase{"?*", "", false}, GlobCase{"?*", "xy", true}));

// Each fast path in glob_match must agree with the general backtracking
// matcher (reproduced here as the reference) on every pattern/text pair.
TEST(Strings, GlobFastPathsMatchGeneralMatcher) {
  auto reference = [](std::string_view pattern, std::string_view text) {
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, mark = 0;
    while (t < text.size()) {
      if (p < pattern.size() &&
          (pattern[p] == '?' || pattern[p] == text[t])) {
        ++p;
        ++t;
      } else if (p < pattern.size() && pattern[p] == '*') {
        star = p++;
        mark = t;
      } else if (star != std::string_view::npos) {
        p = star + 1;
        t = ++mark;
      } else {
        return false;
      }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
  };
  const std::vector<std::string> patterns = {
      "*",        "abc",   "abc*", "*abc", "a*c",  "*a*", "a?c",
      "Service/*", "*/HRM", "",     "?",    "ab*",  "*ab", "room-db"};
  const std::vector<std::string> texts = {
      "",      "a",        "abc",         "abcd",    "xabc", "room-db",
      "ab",    "Service/", "Service/HRM", "a/HRM",   "ac",   "axc"};
  for (const auto& p : patterns)
    for (const auto& t : texts)
      EXPECT_EQ(glob_match(p, t), reference(p, t)) << p << " vs " << t;
}

// ------------------------------------------------------------------ Result

TEST(Result, ValueAndError) {
  Result<int> ok_value(7);
  EXPECT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 7);

  Result<int> err(Errc::not_found, "missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::not_found);
  EXPECT_EQ(err.error().to_string(), "not_found: missing");
  EXPECT_EQ(err.value_or(42), 42);
}

TEST(Result, StatusDefaultsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status bad(Errc::timeout, "late");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::timeout);
}
