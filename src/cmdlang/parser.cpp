#include "cmdlang/parser.hpp"

#include <algorithm>
#include <charconv>

namespace ace::cmdlang {

namespace {

enum class TokKind {
  word,     // bare identifier
  integer,  // 42, -7
  real,     // 3.14, -2e5
  string,   // "quoted"
  equals,
  comma,
  lbrace,
  rbrace,
  semicolon,
  end,
};

struct Token {
  TokKind kind;
  std::string text;   // words & strings
  std::int64_t ival = 0;
  double rval = 0.0;
  std::size_t pos = 0;
};

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// The C locale's white space.
bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : in_(input) {}

  // Reads the next token into t. Only the fields its kind uses are set.
  util::Status next(Token& t) {
    skip_space();
    t.pos = pos_;
    if (pos_ >= in_.size()) {
      t.kind = TokKind::end;
      return {};
    }
    char c = in_[pos_];
    switch (c) {
      case '=': ++pos_; t.kind = TokKind::equals; return {};
      case ',': ++pos_; t.kind = TokKind::comma; return {};
      case '{': ++pos_; t.kind = TokKind::lbrace; return {};
      case '}': ++pos_; t.kind = TokKind::rbrace; return {};
      case ';': ++pos_; t.kind = TokKind::semicolon; return {};
      case '"': return lex_string(t);
      default: break;
    }
    if (c == '-' || c == '+' || is_digit(c)) return lex_number(t);
    if (is_word_char(c)) return lex_word(t);
    return fail("unexpected character '" + std::string(1, c) + "'");
  }

  std::size_t position() const { return pos_; }

  // How many arguments to size a command for: the '=' before the next ';'.
  // A quoted '=' or ';' makes the guess high or low, which costs only a
  // reallocation or spare capacity, never a different parse. The cap
  // bounds the scan and the capacity a string full of '=' can ask for.
  std::size_t equals_ahead() const {
    constexpr std::size_t kCap = 16;
    std::string_view rest = in_.substr(pos_);
    rest = rest.substr(0, rest.find(';'));
    std::size_t n = 0;
    for (std::size_t at = rest.find('=');
         at != std::string_view::npos && n < kCap; at = rest.find('=', at + 1))
      ++n;
    return n;
  }

 private:
  util::Error fail(const std::string& message) const {
    return ParseError{pos_, message}.to_error();
  }

  void skip_space() {
    while (pos_ < in_.size() && is_space(in_[pos_])) ++pos_;
  }

  util::Status lex_string(Token& t) {
    t.kind = TokKind::string;
    ++pos_;  // opening quote
    // The text up to the closing quote or the first backslash is one slice
    // of the input; only an escape takes the rest a character at a time.
    std::size_t close = std::min(in_.find('"', pos_), in_.size());
    std::size_t run = in_.substr(pos_, close - pos_).find('\\');
    if (run == std::string_view::npos) run = close - pos_;
    t.text.assign(in_.substr(pos_, run));
    pos_ += run;
    while (pos_ < in_.size() && in_[pos_] != '"') {
      char c = in_[pos_];
      if (c == '\\') {
        if (pos_ + 1 >= in_.size()) return fail("dangling escape in string");
        t.text.push_back(in_[pos_ + 1]);
        pos_ += 2;
      } else {
        t.text.push_back(c);
        ++pos_;
      }
    }
    if (pos_ >= in_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return {};
  }

  util::Status lex_number(Token& t) {
    std::size_t start = pos_;
    if (in_[pos_] == '-' || in_[pos_] == '+') ++pos_;
    bool has_digits = false;
    bool is_real = false;
    while (pos_ < in_.size()) {
      char c = in_[pos_];
      if (is_digit(c)) {
        has_digits = true;
        ++pos_;
      } else if (c == '.') {
        if (is_real) break;
        is_real = true;
        ++pos_;
      } else if (c == 'e' || c == 'E') {
        // exponent: e[+-]?digits
        std::size_t save = pos_;
        ++pos_;
        if (pos_ < in_.size() && (in_[pos_] == '-' || in_[pos_] == '+'))
          ++pos_;
        if (pos_ < in_.size() && is_digit(in_[pos_])) {
          is_real = true;
          while (pos_ < in_.size() && is_digit(in_[pos_])) ++pos_;
        } else {
          pos_ = save;
        }
        break;
      } else {
        break;
      }
    }
    if (!has_digits) return fail("malformed number");
    // Reject '3abc' style tokens.
    if (pos_ < in_.size() && is_word_char(in_[pos_]))
      return fail("malformed number (trailing word characters)");
    // from_chars takes no '+', which the scan above allows once.
    const char* first = in_.data() + start + (in_[start] == '+');
    const char* last = in_.data() + pos_;
    t.kind = is_real ? TokKind::real : TokKind::integer;
    std::from_chars_result res = is_real ? std::from_chars(first, last, t.rval)
                                         : std::from_chars(first, last, t.ival);
    // Overflow, or a nonzero literal that underflows to zero.
    if (res.ec == std::errc::result_out_of_range)
      return ParseError{start, "number out of range"}.to_error();
    if (res.ec != std::errc{} || res.ptr != last)
      return ParseError{start, "malformed number"}.to_error();
    return {};
  }

  util::Status lex_word(Token& t) {
    t.kind = TokKind::word;
    std::size_t start = pos_;
    while (pos_ < in_.size() && is_word_char(in_[pos_])) ++pos_;
    t.text.assign(in_.substr(start, pos_ - start));
    return {};
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

class ParserImpl {
 public:
  explicit ParserImpl(std::string_view input) : lexer_(input) {}

  util::Result<CmdLine> parse_command() {
    if (auto s = advance(); !s.ok()) return s.error();
    if (current_.kind == TokKind::end)
      return fail("empty input, expected command name");
    if (current_.kind != TokKind::word)
      return fail("expected command name word");
    CmdLine cmd(std::move(current_.text));
    cmd.reserve(lexer_.equals_ahead());
    if (auto s = advance(); !s.ok()) return s.error();

    while (current_.kind != TokKind::semicolon) {
      if (current_.kind == TokKind::end)
        return fail("unterminated command, expected ';'");
      // Optional comma separators between arguments (paper grammar allows
      // both space and ',' separated ARGLISTs).
      if (current_.kind == TokKind::comma) {
        if (auto s = advance(); !s.ok()) return s.error();
        continue;
      }
      if (current_.kind != TokKind::word)
        return fail("expected argument name");
      std::string arg_name = std::move(current_.text);
      if (auto s = advance(); !s.ok()) return s.error();
      if (current_.kind != TokKind::equals)
        return fail("expected '=' after argument name '" + arg_name + "'");
      if (auto s = advance(); !s.ok()) return s.error();
      Value value;
      if (auto s = parse_value(value); !s.ok()) return s.error();
      cmd.arg(std::move(arg_name), std::move(value));
    }
    return cmd;
  }

  util::Result<std::vector<CmdLine>> parse_sequence() {
    std::vector<CmdLine> out;
    for (;;) {
      std::size_t before = lexer_.position();
      auto cmd = parse_command();
      if (!cmd.ok()) {
        // Distinguish clean end-of-input from a real error.
        if (out.empty() || lexer_.position() != before) {
          if (at_clean_end_) return out;
          return cmd.error();
        }
        return out;
      }
      out.push_back(std::move(cmd.value()));
      // Peek: if only whitespace remains we are done.
      Lexer probe = lexer_;
      Token t{};
      if (probe.next(t).ok() && t.kind == TokKind::end) return out;
    }
  }

 private:
  util::Error fail(const std::string& message) {
    if (current_.kind == TokKind::end) at_clean_end_ = true;
    return ParseError{current_.pos, message}.to_error();
  }

  util::Status advance() { return lexer_.next(current_); }

  util::Status parse_value(Value& out) {
    if (current_.kind == TokKind::lbrace) return parse_braced(out);
    return parse_scalar(out, "expected a value");
  }

  // Parses either a VECTOR {1,2,3} or an ARRAY {{1,2},{3}} — disambiguated
  // by whether the first element is itself braced.
  util::Status parse_braced(Value& out) {
    if (auto s = advance(); !s.ok()) return s.error();  // consume '{'
    if (current_.kind == TokKind::lbrace) {
      Array arr;
      for (;;) {
        auto vec = parse_vector_literal();
        if (!vec.ok()) return vec.error();
        arr.vectors.push_back(std::move(vec.value()));
        if (current_.kind == TokKind::comma) {
          if (auto s = advance(); !s.ok()) return s.error();
          continue;
        }
        break;
      }
      if (current_.kind != TokKind::rbrace)
        return fail("expected '}' closing array");
      if (auto s = advance(); !s.ok()) return s.error();
      out = std::move(arr);
      return {};
    }
    auto vec = parse_vector_elements();
    if (!vec.ok()) return vec.error();
    out = std::move(vec.value());
    return {};
  }

  // Assumes '{' already consumed; parses elements up to and including '}'.
  util::Result<Vector> parse_vector_elements() {
    Vector vec;
    bool first = true;
    while (current_.kind != TokKind::rbrace) {
      if (current_.kind == TokKind::end)
        return fail("unterminated vector, expected '}'");
      if (!first) {
        if (current_.kind != TokKind::comma)
          return fail("expected ',' between vector elements");
        if (auto s = advance(); !s.ok()) return s.error();
      }
      Value elem;
      if (auto s = parse_scalar(elem, "expected scalar vector element");
          !s.ok())
        return s.error();
      ValueType t = elem.type();
      if (first) {
        vec.element_type = t;
      } else if (t != vec.element_type) {
        // Paper: vectors are homogeneous. Permit int→float widening.
        if (vec.element_type == ValueType::real && t == ValueType::integer) {
          // ok, element widened below
        } else if (vec.element_type == ValueType::integer &&
                   t == ValueType::real) {
          vec.element_type = ValueType::real;
        } else {
          return fail("mixed element types in vector");
        }
      }
      vec.elements.push_back(std::move(elem));
      first = false;
    }
    if (auto s = advance(); !s.ok()) return s.error();  // consume '}'
    return vec;
  }

  // Parses a full '{...}' vector literal (for array members).
  util::Result<Vector> parse_vector_literal() {
    if (current_.kind != TokKind::lbrace)
      return fail("expected '{' starting vector");
    if (auto s = advance(); !s.ok()) return s.error();
    return parse_vector_elements();
  }

  util::Status parse_scalar(Value& out, const char* expected) {
    switch (current_.kind) {
      case TokKind::integer: out = current_.ival; break;
      case TokKind::real: out = current_.rval; break;
      case TokKind::word: out = Word{std::move(current_.text)}; break;
      case TokKind::string: out = std::move(current_.text); break;
      default: return fail(expected);
    }
    return advance();
  }

  Lexer lexer_;
  Token current_{};
  bool at_clean_end_ = false;
};

}  // namespace

util::Result<CmdLine> Parser::parse(std::string_view input) {
  ParserImpl impl(input);
  return impl.parse_command();
}

util::Result<std::vector<CmdLine>> Parser::parse_all(std::string_view input) {
  ParserImpl impl(input);
  return impl.parse_sequence();
}

}  // namespace ace::cmdlang
