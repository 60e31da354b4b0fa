#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>

#include "cmdlang/parser.hpp"
#include "cmdlang/semantics.hpp"
#include "cmdlang/value.hpp"
#include "cmdlang_corpus.hpp"

using namespace ace;
using namespace ace::cmdlang;

// -------------------------------------------------------------- serializer

TEST(Value, SerializeScalars) {
  EXPECT_EQ(Value(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(Value(std::int64_t{-7}).to_string(), "-7");
  EXPECT_EQ(Value(Word{"on"}).to_string(), "on");
  EXPECT_EQ(Value("hello world").to_string(), "\"hello world\"");
  EXPECT_EQ(Value("word_safe").to_string(), "\"word_safe\"");
  EXPECT_EQ(Value(2.5).to_string(), "2.5");
}

TEST(Value, RealAlwaysReparsesAsReal) {
  // 3.0 must not serialize as "3" (would come back INTEGER).
  std::string s = Value(3.0).to_string();
  auto cmd = Parser::parse("c x=" + s + ";");
  ASSERT_TRUE(cmd.ok());
  EXPECT_TRUE(cmd->find("x")->is_real());
}

TEST(Value, RealIsShortestRoundTripForm) {
  EXPECT_EQ(Value(-26.2).to_string(), "-26.2");
  EXPECT_EQ(Value(0.1).to_string(), "0.1");
  EXPECT_EQ(Value(1000.0).to_string(), "1000.0");
  EXPECT_EQ(Value(-0.0).to_string(), "-0.0");
  EXPECT_EQ(Value(1e21).to_string(), "1e+21");
  EXPECT_EQ(Value(5e-324).to_string(), "5e-324");
}

TEST(Value, StringEscaping) {
  Value v(std::string("say \"hi\" \\ back"));
  auto cmd = Parser::parse("c x=" + v.to_string() + ";");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->find("x")->as_string(), "say \"hi\" \\ back");
}

TEST(Value, HyphenatedWordQuotedAndAccepted) {
  Value v(Word{"machine-room"});
  std::string s = v.to_string();
  EXPECT_EQ(s, "\"machine-room\"");
  auto cmd = Parser::parse("c x=" + s + ";");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->get_text("x"), "machine-room");
}

TEST(CmdLine, SerializeMatchesPaperSyntax) {
  CmdLine cmd("ptzMove");
  cmd.arg("pan", 30.5);
  cmd.arg("tilt", std::int64_t{-3});
  cmd.arg("mode", Word{"fast"});
  EXPECT_EQ(cmd.to_string(), "ptzMove pan=30.5 tilt=-3 mode=fast;");
}

// get_strings reads the text elements of a vector argument in order, and
// nothing from a missing or non-vector one.
TEST(CmdLine, GetStringsReadsTextElementsOfAVector) {
  CmdLine cmd("lookup");
  cmd.arg("names", Vector{ValueType::string,
                          {Value("alpha"), Value(Word{"beta"}),
                           Value(std::int64_t{7}), Value("gamma")}});
  cmd.arg("count", std::int64_t{3});
  EXPECT_EQ(cmd.get_strings("names"),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_TRUE(cmd.get_strings("missing").empty());
  EXPECT_TRUE(cmd.get_strings("count").empty());
}

// ------------------------------------------------------------------ parser

class ParserRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ParserRoundTrip, ParseSerializeParseIsStable) {
  auto first = Parser::parse(GetParam().text);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  std::string serialized = first->to_string();
  auto second = Parser::parse(serialized);
  ASSERT_TRUE(second.ok()) << serialized;
  EXPECT_EQ(first.value(), second.value()) << serialized;
}

INSTANTIATE_TEST_SUITE_P(
    Commands, ParserRoundTrip, ::testing::ValuesIn(kRoundTripCorpus),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return info.param.name;
    });

TEST(Parser, TypedValues) {
  auto cmd = Parser::parse("c i=42 f=2.5 w=word s=\"str\" v={1,2} a={{1}};");
  ASSERT_TRUE(cmd.ok());
  EXPECT_TRUE(cmd->find("i")->is_integer());
  EXPECT_TRUE(cmd->find("f")->is_real());
  EXPECT_TRUE(cmd->find("w")->is_word());
  EXPECT_TRUE(cmd->find("s")->is_string());
  EXPECT_TRUE(cmd->find("v")->is_vector());
  EXPECT_TRUE(cmd->find("a")->is_array());
  EXPECT_EQ(cmd->get_integer("i"), 42);
  EXPECT_DOUBLE_EQ(cmd->get_real("f"), 2.5);
  EXPECT_EQ(cmd->get_text("w"), "word");
  EXPECT_EQ(cmd->get_text("s"), "str");
}

TEST(Parser, IntWidensToRealInVector) {
  auto cmd = Parser::parse("c v={1,2.5,3};");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->find("v")->as_vector().element_type, ValueType::real);
}

struct ErrorCase {
  const char* name;
  const char* text;
};

class ParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrors, Rejected) {
  auto cmd = Parser::parse(GetParam().text);
  EXPECT_FALSE(cmd.ok()) << GetParam().text;
  if (!cmd.ok()) EXPECT_EQ(cmd.error().code, util::Errc::parse_error);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ParserErrors,
    ::testing::Values(ErrorCase{"empty", ""},
                      ErrorCase{"no_semicolon", "cmd a=1"},
                      ErrorCase{"missing_equals", "cmd a 1;"},
                      ErrorCase{"missing_value", "cmd a=;"},
                      ErrorCase{"bad_number", "cmd a=3x;"},
                      ErrorCase{"unterminated_string", "cmd a=\"oops;"},
                      ErrorCase{"unterminated_vector", "cmd a={1,2;"},
                      ErrorCase{"mixed_vector", "cmd a={1,word};"},
                      ErrorCase{"value_only", "cmd =5;"},
                      ErrorCase{"stray_brace", "cmd a=}5;"},
                      ErrorCase{"number_name", "42 a=1;"},
                      ErrorCase{"real_overflow", "c x=1e999;"},
                      ErrorCase{"negative_real_overflow", "c x=-1e999;"},
                      ErrorCase{"integer_overflow",
                                "c x=99999999999999999999;"},
                      ErrorCase{"real_underflow", "c x=1e-400;"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      return info.param.name;
    });

TEST(Parser, OutOfRangeReportsTheNumbersOffset) {
  auto cmd = Parser::parse("c a=1 x=1e999;");
  ASSERT_FALSE(cmd.ok());
  EXPECT_NE(cmd.error().message.find("number out of range (at offset 8)"),
            std::string::npos)
      << cmd.error().message;
}

// Every in-range literal form reads as what the C library reads it as.
TEST(Parser, LiteralFormsMatchCLibrary) {
  const char* reals[] = {"5.",     "-.5",      "1E3",   "2.5e-2",
                         "-0.0",   "4.9e-324", "+.5",   "1e-310",
                         "1.7976931348623157e308"};
  for (const char* lit : reals) {
    auto cmd = Parser::parse(std::string("c x=") + lit + ";");
    ASSERT_TRUE(cmd.ok()) << lit << ": " << cmd.error().to_string();
    ASSERT_TRUE(cmd->find("x")->is_real()) << lit;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cmd->find("x")->as_real()),
              std::bit_cast<std::uint64_t>(std::strtod(lit, nullptr)))
        << lit;
  }
  const char* integers[] = {"+3", "007", "-0", "9223372036854775807",
                            "-9223372036854775808"};
  for (const char* lit : integers) {
    auto cmd = Parser::parse(std::string("c x=") + lit + ";");
    ASSERT_TRUE(cmd.ok()) << lit << ": " << cmd.error().to_string();
    ASSERT_TRUE(cmd->find("x")->is_integer()) << lit;
    EXPECT_EQ(cmd->find("x")->as_integer(), std::strtoll(lit, nullptr, 10))
        << lit;
  }
}

TEST(Parser, ParseAllSequence) {
  auto cmds = Parser::parse_all("ping; info; move x=1;");
  ASSERT_TRUE(cmds.ok());
  ASSERT_EQ(cmds->size(), 3u);
  EXPECT_EQ((*cmds)[0].name(), "ping");
  EXPECT_EQ((*cmds)[2].get_integer("x"), 1);
}

TEST(Parser, ErrorReportsOffset) {
  auto cmd = Parser::parse("cmd a=1 b=;");
  ASSERT_FALSE(cmd.ok());
  EXPECT_NE(cmd.error().message.find("offset"), std::string::npos);
}

// --------------------------------------------------------------- semantics

class SemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.add(CommandSpec("ptzMove", "move the camera")
                      .arg(real_arg("pan").range_real(-90, 90))
                      .arg(real_arg("tilt").range_real(-30, 30))
                      .arg(real_arg("zoom").optional_arg()));
    registry_.add(CommandSpec("setMode", "select a mode")
                      .arg(word_arg("mode").choices({"fast", "slow"})));
    registry_.add(CommandSpec("setCount", "set a count")
                      .arg(integer_arg("count").range(1, 10)));
    registry_.add(CommandSpec("free", "anything goes").extra_ok());
  }

  util::Status validate(const char* text) {
    auto cmd = Parser::parse(text);
    if (!cmd.ok()) return cmd.error();
    return registry_.validate(cmd.value());
  }

  SemanticRegistry registry_;
};

TEST_F(SemanticsTest, AcceptsValidCommand) {
  EXPECT_TRUE(validate("ptzMove pan=10 tilt=5;").ok());
  EXPECT_TRUE(validate("ptzMove pan=10.5 tilt=-5.25 zoom=2;").ok());
}

TEST_F(SemanticsTest, UnknownCommandRejected) {
  auto s = validate("teleport x=1;");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, util::Errc::semantic_error);
}

TEST_F(SemanticsTest, MissingRequiredArgRejected) {
  EXPECT_FALSE(validate("ptzMove pan=10;").ok());
}

TEST_F(SemanticsTest, OptionalArgMayBeOmitted) {
  EXPECT_TRUE(validate("ptzMove pan=0 tilt=0;").ok());
}

TEST_F(SemanticsTest, UnknownArgRejectedUnlessExtraOk) {
  EXPECT_FALSE(validate("ptzMove pan=0 tilt=0 warp=9;").ok());
  EXPECT_TRUE(validate("free anything=1 at=all;").ok());
}

TEST_F(SemanticsTest, TypeMismatchRejected) {
  EXPECT_FALSE(validate("ptzMove pan=fast tilt=0;").ok());
  EXPECT_FALSE(validate("setCount count=2.5;").ok());
}

TEST_F(SemanticsTest, IntegerAcceptedWhereRealExpected) {
  EXPECT_TRUE(validate("ptzMove pan=10 tilt=0;").ok());
}

TEST_F(SemanticsTest, RangeEnforced) {
  EXPECT_FALSE(validate("ptzMove pan=95 tilt=0;").ok());
  EXPECT_FALSE(validate("setCount count=0;").ok());
  EXPECT_FALSE(validate("setCount count=11;").ok());
  EXPECT_TRUE(validate("setCount count=10;").ok());
}

TEST_F(SemanticsTest, ChoicesEnforced) {
  EXPECT_TRUE(validate("setMode mode=fast;").ok());
  EXPECT_FALSE(validate("setMode mode=warp;").ok());
}

TEST(Semantics, VectorTypeChecks) {
  SemanticRegistry registry;
  registry.add(CommandSpec("c")
                   .arg(vector_arg("iv", ArgType::vector_integer))
                   .arg(vector_arg("wv", ArgType::vector_word).optional_arg()));
  auto ok = Parser::parse("c iv={1,2,3} wv={a,b};");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(registry.validate(ok.value()).ok());
  auto bad = Parser::parse("c iv={1.5,2.5};");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(registry.validate(bad.value()).ok());
}

// ----------------------------------------------------------------- replies

TEST(Replies, OkAndErrorHelpers) {
  EXPECT_TRUE(is_ok(make_ok()));
  CmdLine err = make_error(util::Errc::auth_error, "denied");
  EXPECT_TRUE(is_error(err));
  util::Error decoded = reply_error(err);
  EXPECT_EQ(decoded.code, util::Errc::auth_error);
  EXPECT_EQ(decoded.message, "denied");
}

TEST(Replies, ErrorSurvivesWire) {
  CmdLine err = make_error(util::Errc::not_found, "no such service");
  auto parsed = Parser::parse(err.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(reply_error(parsed.value()).code, util::Errc::not_found);
}
