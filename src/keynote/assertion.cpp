#include "keynote/assertion.hpp"

#include <cctype>

#include "crypto/sha256.hpp"
#include "util/strings.hpp"

namespace ace::keynote {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string LicenseeExpr::to_string() const {
  switch (kind) {
    case Kind::key:
      return quote(key);
    case Kind::all_of: {
      std::string out = "(";
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i) out += " && ";
        out += parts[i]->to_string();
      }
      return out + ")";
    }
    case Kind::any_of: {
      std::string out = "(";
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i) out += " || ";
        out += parts[i]->to_string();
      }
      return out + ")";
    }
    case Kind::threshold: {
      std::string out = std::to_string(threshold_k) + "-of(";
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i) out += ",";
        out += parts[i]->to_string();
      }
      return out + ")";
    }
  }
  return {};
}

LicenseePtr licensee_key(PrincipalKey key) {
  auto e = std::make_shared<LicenseeExpr>();
  e->kind = LicenseeExpr::Kind::key;
  e->key = std::move(key);
  return e;
}

LicenseePtr licensee_all(std::vector<LicenseePtr> parts) {
  auto e = std::make_shared<LicenseeExpr>();
  e->kind = LicenseeExpr::Kind::all_of;
  e->parts = std::move(parts);
  return e;
}

LicenseePtr licensee_any(std::vector<LicenseePtr> parts) {
  auto e = std::make_shared<LicenseeExpr>();
  e->kind = LicenseeExpr::Kind::any_of;
  e->parts = std::move(parts);
  return e;
}

LicenseePtr licensee_threshold(int k, std::vector<LicenseePtr> parts) {
  auto e = std::make_shared<LicenseeExpr>();
  e->kind = LicenseeExpr::Kind::threshold;
  e->threshold_k = k;
  e->parts = std::move(parts);
  return e;
}

namespace {

// Recursive-descent parser for licensee expressions.
class LicenseeParser {
 public:
  explicit LicenseeParser(const std::string& src) : src_(src) {}

  util::Result<LicenseePtr> parse() {
    auto e = parse_or();
    if (!e.ok()) return e;
    skip_space();
    if (pos_ != src_.size())
      return fail("trailing characters in licensee expression");
    return e;
  }

 private:
  util::Error fail(const std::string& m) const {
    return util::Error{util::Errc::parse_error,
                       "licensees: " + m + " (offset " + std::to_string(pos_) +
                           ")"};
  }

  void skip_space() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_])))
      ++pos_;
  }

  bool consume(const char* tok) {
    skip_space();
    std::size_t n = std::char_traits<char>::length(tok);
    if (src_.compare(pos_, n, tok) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  util::Result<LicenseePtr> parse_or() {
    auto lhs = parse_and();
    if (!lhs.ok()) return lhs;
    std::vector<LicenseePtr> parts{lhs.value()};
    while (consume("||")) {
      auto rhs = parse_and();
      if (!rhs.ok()) return rhs;
      parts.push_back(rhs.value());
    }
    if (parts.size() == 1) return parts[0];
    return licensee_any(std::move(parts));
  }

  util::Result<LicenseePtr> parse_and() {
    auto lhs = parse_primary();
    if (!lhs.ok()) return lhs;
    std::vector<LicenseePtr> parts{lhs.value()};
    while (consume("&&")) {
      auto rhs = parse_primary();
      if (!rhs.ok()) return rhs;
      parts.push_back(rhs.value());
    }
    if (parts.size() == 1) return parts[0];
    return licensee_all(std::move(parts));
  }

  util::Result<LicenseePtr> parse_primary() {
    skip_space();
    if (pos_ >= src_.size()) return fail("unexpected end");
    if (src_[pos_] == '(') {
      ++pos_;
      auto inner = parse_or();
      if (!inner.ok()) return inner;
      if (!consume(")")) return fail("expected ')'");
      return inner;
    }
    if (src_[pos_] == '"') return parse_key();
    if (std::isdigit(static_cast<unsigned char>(src_[pos_])))
      return parse_threshold();
    // Bare word key (convenience).
    std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_' || src_[pos_] == ':' || src_[pos_] == '-' ||
            src_[pos_] == '/' || src_[pos_] == '.' || src_[pos_] == '@'))
      ++pos_;
    if (pos_ == start) return fail("expected key, '(' or threshold");
    return licensee_key(src_.substr(start, pos_ - start));
  }

  util::Result<LicenseePtr> parse_key() {
    ++pos_;  // opening quote
    std::string key;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
        key.push_back(src_[pos_ + 1]);
        pos_ += 2;
      } else {
        key.push_back(src_[pos_++]);
      }
    }
    if (pos_ >= src_.size()) return fail("unterminated key");
    ++pos_;  // closing quote
    return licensee_key(std::move(key));
  }

  util::Result<LicenseePtr> parse_threshold() {
    int k = 0;
    while (pos_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[pos_])))
      k = k * 10 + (src_[pos_++] - '0');
    if (!consume("-of")) return fail("expected '-of' after threshold count");
    if (!consume("(")) return fail("expected '(' after '-of'");
    std::vector<LicenseePtr> parts;
    for (;;) {
      auto part = parse_or();
      if (!part.ok()) return part;
      parts.push_back(part.value());
      if (consume(",")) continue;
      break;
    }
    if (!consume(")")) return fail("expected ')' closing threshold");
    if (k <= 0 || static_cast<std::size_t>(k) > parts.size())
      return fail("threshold out of range");
    return licensee_threshold(k, std::move(parts));
  }

  const std::string& src_;
  std::size_t pos_ = 0;
};

}  // namespace

util::Result<LicenseePtr> parse_licensees(const std::string& source) {
  return LicenseeParser(source).parse();
}

std::string Assertion::body_text() const {
  std::string out = "keynote-version: 2\n";
  out += "authorizer: " + quote(authorizer) + "\n";
  out += "licensees: " + (licensees ? licensees->to_string() : "()") + "\n";
  if (!conditions.empty()) out += "conditions: " + conditions + "\n";
  if (!comment.empty()) out += "comment: " + comment + "\n";
  return out;
}

std::string Assertion::serialize() const {
  std::string out = body_text();
  if (!signature.empty())
    out += "signature: " + util::hex_encode(signature) + "\n";
  return out;
}

util::Result<Assertion> Assertion::parse(const std::string& text) {
  Assertion a;
  bool saw_authorizer = false;
  for (const std::string& raw_line : util::split(text, '\n')) {
    std::string line = util::trim(raw_line);
    if (line.empty()) continue;
    auto colon = line.find(':');
    if (colon == std::string::npos)
      return util::Error{util::Errc::parse_error,
                         "assertion: missing ':' in line '" + line + "'"};
    std::string field = util::to_lower(util::trim(line.substr(0, colon)));
    std::string value = util::trim(line.substr(colon + 1));
    if (field == "keynote-version") {
      // accepted, ignored
    } else if (field == "authorizer") {
      std::string v = value;
      if (v.size() >= 2 && v.front() == '"' && v.back() == '"')
        v = v.substr(1, v.size() - 2);
      a.authorizer = v;
      saw_authorizer = true;
    } else if (field == "licensees") {
      auto e = parse_licensees(value);
      if (!e.ok()) return e.error();
      a.licensees = e.value();
    } else if (field == "conditions") {
      a.conditions = value;
    } else if (field == "comment") {
      a.comment = value;
    } else if (field == "signature") {
      a.signature.clear();
      if (value.size() % 2 != 0)
        return util::Error{util::Errc::parse_error, "bad signature hex"};
      for (std::size_t i = 0; i < value.size(); i += 2) {
        auto nibble = [](char c) -> int {
          if (c >= '0' && c <= '9') return c - '0';
          if (c >= 'a' && c <= 'f') return c - 'a' + 10;
          if (c >= 'A' && c <= 'F') return c - 'A' + 10;
          return -1;
        };
        int hi = nibble(value[i]);
        int lo = nibble(value[i + 1]);
        if (hi < 0 || lo < 0)
          return util::Error{util::Errc::parse_error, "bad signature hex"};
        a.signature.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
      }
    } else {
      return util::Error{util::Errc::parse_error,
                         "assertion: unknown field '" + field + "'"};
    }
  }
  if (!saw_authorizer)
    return util::Error{util::Errc::parse_error, "assertion: no authorizer"};
  if (!a.licensees)
    return util::Error{util::Errc::parse_error, "assertion: no licensees"};
  return a;
}

void KeyStore::register_principal(const PrincipalKey& key,
                                  util::Bytes secret) {
  secrets_[key] = std::move(secret);
}

bool KeyStore::known(const PrincipalKey& key) const {
  return secrets_.contains(key);
}

util::Status KeyStore::sign(Assertion& assertion) const {
  auto it = secrets_.find(assertion.authorizer);
  if (it == secrets_.end())
    return {util::Errc::not_found,
            "no key for authorizer '" + assertion.authorizer + "'"};
  crypto::Digest tag =
      crypto::hmac_sha256(it->second, util::to_bytes(assertion.body_text()));
  assertion.signature.assign(tag.begin(), tag.end());
  return util::Status::ok_status();
}

bool KeyStore::verify(const Assertion& assertion) const {
  auto it = secrets_.find(assertion.authorizer);
  if (it == secrets_.end()) return false;
  crypto::Digest tag =
      crypto::hmac_sha256(it->second, util::to_bytes(assertion.body_text()));
  return assertion.signature.size() == tag.size() &&
         crypto::constant_time_equal(assertion.signature.data(), tag.data(),
                                     tag.size());
}

}  // namespace ace::keynote
