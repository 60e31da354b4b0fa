#include "cmdlang/value.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace ace::cmdlang {

const char* value_type_name(ValueType t) {
  switch (t) {
    case ValueType::integer: return "integer";
    case ValueType::real: return "float";
    case ValueType::word: return "word";
    case ValueType::string: return "string";
    case ValueType::vector: return "vector";
    case ValueType::array: return "array";
  }
  return "?";
}

bool operator==(const Vector& a, const Vector& b) {
  return a.element_type == b.element_type && a.elements == b.elements;
}

bool operator==(const Array& a, const Array& b) {
  return a.vectors == b.vectors;
}

bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }

bool operator==(const Argument& a, const Argument& b) {
  return a.name == b.name && a.value == b.value;
}

bool operator==(const CmdLine& a, const CmdLine& b) {
  return a.name_ == b.name_ && a.args_ == b.args_;
}

ValueType Value::type() const {
  if (is_integer()) return ValueType::integer;
  if (is_real()) return ValueType::real;
  if (is_word()) return ValueType::word;
  if (is_string()) return ValueType::string;
  if (is_vector()) return ValueType::vector;
  return ValueType::array;
}

double Value::as_real() const {
  if (is_integer()) return static_cast<double>(as_integer());
  return std::get<double>(v_);
}

const std::string& Value::as_text() const {
  if (is_word()) return as_word();
  return as_string();
}

namespace {

bool is_valid_word(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s)
    if (!is_word_char(c)) return false;
  // A bare word must not look like a number, or the parser would read it
  // back as one.
  return !(s[0] >= '0' && s[0] <= '9');
}

// Appends s in quotes, copying the runs between the characters it escapes.
void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t quote = s.find('"');
  std::size_t slash = s.find('\\');
  std::size_t done = 0;
  for (;;) {
    std::size_t esc = std::min(quote, slash);
    if (esc == std::string_view::npos) break;
    out.append(s.substr(done, esc - done));
    out += '\\';
    out += s[esc];
    done = esc + 1;
    if (esc == quote)
      quote = s.find('"', done);
    else
      slash = s.find('\\', done);
  }
  out.append(s.substr(done));
  out += '"';
}

void append_integer(std::string& out, std::int64_t v) {
  char buf[24];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

// The shortest text that reads back to the same double.
void append_real(std::string& out, double v) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string_view text(buf, static_cast<std::size_t>(res.ptr - buf));
  out.append(text);
  // Guarantee it reads back as FLOAT, not INTEGER: 1000.0 comes out as
  // "1000" and -0.0 as "-0".
  if (text.find_first_of(".eEnN") == std::string_view::npos) out += ".0";
}

void append_value(std::string& out, const Value& v);

void append_vector(std::string& out, const Vector& vec) {
  out += '{';
  for (std::size_t i = 0; i < vec.elements.size(); ++i) {
    if (i) out += ',';
    append_value(out, vec.elements[i]);
  }
  out += '}';
}

void append_value(std::string& out, const Value& v) {
  switch (v.type()) {
    case ValueType::integer:
      append_integer(out, v.as_integer());
      return;
    case ValueType::real:
      append_real(out, v.as_real());
      return;
    case ValueType::word: {
      // Words that violate the WORD production (e.g. "machine-room") are
      // emitted quoted; they round-trip as strings, which every word-typed
      // argument accepts.
      const std::string& w = v.as_word();
      if (is_valid_word(w))
        out += w;
      else
        append_quoted(out, w);
      return;
    }
    case ValueType::string:
      // Always quoted so the value round-trips as a STRING. (The paper's
      // grammar also admits bare words as strings on input.)
      append_quoted(out, v.as_string());
      return;
    case ValueType::vector:
      append_vector(out, v.as_vector());
      return;
    case ValueType::array: {
      const Array& arr = v.as_array();
      out += '{';
      for (std::size_t i = 0; i < arr.vectors.size(); ++i) {
        if (i) out += ',';
        append_vector(out, arr.vectors[i]);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string Value::to_string() const {
  std::string out;
  append_value(out, *this);
  return out;
}

CmdLine& CmdLine::arg(std::string name, Value value) {
  args_.emplace_back(std::move(name), std::move(value));
  return *this;
}

const Value* CmdLine::find(const std::string& name) const {
  for (const auto& a : args_)
    if (a.name == name) return &a.value;
  return nullptr;
}

std::int64_t CmdLine::get_integer(const std::string& name,
                                  std::int64_t fallback) const {
  const Value* v = find(name);
  if (!v || !v->is_integer()) return fallback;
  return v->as_integer();
}

double CmdLine::get_real(const std::string& name, double fallback) const {
  const Value* v = find(name);
  if (!v || (!v->is_real() && !v->is_integer())) return fallback;
  return v->as_real();
}

std::string CmdLine::get_text(const std::string& name,
                              const std::string& fallback) const {
  const Value* v = find(name);
  if (!v || (!v->is_word() && !v->is_string())) return fallback;
  return v->as_text();
}

std::optional<Vector> CmdLine::get_vector(const std::string& name) const {
  const Value* v = find(name);
  if (!v || !v->is_vector()) return std::nullopt;
  return v->as_vector();
}

std::vector<std::string> CmdLine::get_strings(const std::string& name) const {
  std::vector<std::string> out;
  const Value* v = find(name);
  if (!v || !v->is_vector()) return out;
  for (const Value& elem : v->as_vector().elements)
    if (elem.is_string() || elem.is_word()) out.push_back(elem.as_text());
  return out;
}

std::optional<Array> CmdLine::get_array(const std::string& name) const {
  const Value* v = find(name);
  if (!v || !v->is_array()) return std::nullopt;
  return v->as_array();
}

std::string CmdLine::to_string() const {
  std::string out = name_;
  for (const auto& a : args_) {
    out += ' ';
    out += a.name;
    out += '=';
    append_value(out, a.value);
  }
  out += ';';
  return out;
}

CmdLine make_ok() { return CmdLine("ok"); }

CmdLine make_error(util::Errc code, const std::string& message) {
  CmdLine c("error");
  c.arg("code", Word{util::errc_name(code)});
  c.arg("message", message);
  return c;
}

bool is_ok(const CmdLine& reply) { return reply.name() == "ok"; }
bool is_error(const CmdLine& reply) { return reply.name() == "error"; }

util::Error reply_error(const CmdLine& reply) {
  if (!is_error(reply))
    return util::Error{util::Errc::ok, ""};
  std::string code = reply.get_text("code");
  util::Errc errc = util::Errc::io_error;
  for (int i = 0; i <= static_cast<int>(util::Errc::io_error); ++i) {
    if (code == util::errc_name(static_cast<util::Errc>(i))) {
      errc = static_cast<util::Errc>(i);
      break;
    }
  }
  return util::Error{errc, reply.get_text("message")};
}

Vector int_vector(std::vector<std::int64_t> values) {
  Vector v;
  v.element_type = ValueType::integer;
  for (auto x : values) v.elements.emplace_back(x);
  return v;
}

Vector real_vector(std::vector<double> values) {
  Vector v;
  v.element_type = ValueType::real;
  for (auto x : values) v.elements.emplace_back(x);
  return v;
}

Vector string_vector(std::vector<std::string> values) {
  Vector v;
  v.element_type = ValueType::string;
  for (auto& x : values) v.elements.emplace_back(std::move(x));
  return v;
}

Vector word_vector(std::vector<std::string> values) {
  Vector v;
  v.element_type = ValueType::word;
  for (auto& x : values) v.elements.emplace_back(Word{std::move(x)});
  return v;
}

}  // namespace ace::cmdlang
