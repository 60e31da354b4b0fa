// The ACE command value model and ACECmdLine object (paper §2.2).
//
// "Every command that is to be issued to an ACE service is first built as an
//  ACECmdLine object. This object is then converted into a string ... and is
//  then transmitted over the network to the receiving side."
//
// Value types follow the paper's grammar: INTEGER, FLOAT, WORD, STRING,
// VECTOR (homogeneous list of scalars) and ARRAY (list of vectors).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.hpp"

namespace ace::cmdlang {

enum class ValueType {
  integer,
  real,
  word,
  string,
  vector,
  array,
};

const char* value_type_name(ValueType t);

// A character of the WORD production, [A-Za-z0-9_]. The parser lexes bare
// words with it, and the serializer writes a word bare only when every
// character passes it, so a bare word always re-lexes as one word.
constexpr bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

class Value;

// A homogeneous vector of scalar values, e.g. {1,2,3} or {"a","b"}.
struct Vector {
  ValueType element_type = ValueType::integer;
  std::vector<Value> elements;

  friend bool operator==(const Vector&, const Vector&);
};

// A list of vectors, e.g. {{1,2},{3,4}}.
struct Array {
  std::vector<Vector> vectors;

  friend bool operator==(const Array&, const Array&);
};

// Distinguishes bare words ("on", "hawk") from quoted strings.
struct Word {
  std::string text;
  friend bool operator==(const Word&, const Word&) = default;
};

class Value {
 public:
  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t v) : v_(v) {}                       // NOLINT(implicit)
  Value(int v) : v_(static_cast<std::int64_t>(v)) {}     // NOLINT(implicit)
  Value(double v) : v_(v) {}                             // NOLINT(implicit)
  Value(Word v) : v_(std::move(v)) {}                    // NOLINT(implicit)
  Value(std::string v) : v_(std::move(v)) {}             // NOLINT(implicit)
  Value(const char* v) : v_(std::string(v)) {}           // NOLINT(implicit)
  Value(Vector v) : v_(std::move(v)) {}                  // NOLINT(implicit)
  Value(Array v) : v_(std::move(v)) {}                   // NOLINT(implicit)

  ValueType type() const;

  bool is_integer() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_real() const { return std::holds_alternative<double>(v_); }
  bool is_word() const { return std::holds_alternative<Word>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_vector() const { return std::holds_alternative<Vector>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }

  std::int64_t as_integer() const { return std::get<std::int64_t>(v_); }
  // Accepts an integer where a real is expected (numeric widening).
  double as_real() const;
  const std::string& as_word() const { return std::get<Word>(v_).text; }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  // Word or string as text.
  const std::string& as_text() const;
  const Vector& as_vector() const { return std::get<Vector>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }

  // Serializes this value in ACE command-language syntax. A real is
  // written in the shortest form that reads back to the same bits.
  std::string to_string() const;

  friend bool operator==(const Value&, const Value&);

 private:
  std::variant<std::int64_t, double, Word, std::string, Vector, Array> v_;
};

struct Argument {
  std::string name;
  Value value;
  friend bool operator==(const Argument&, const Argument&);
};

// The ACECmdLine object.
class CmdLine {
 public:
  CmdLine() = default;
  explicit CmdLine(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  CmdLine& arg(std::string name, Value value);
  // Sizes the argument list for n arguments ahead of the arg() calls.
  void reserve(std::size_t n) { args_.reserve(n); }

  const std::vector<Argument>& args() const { return args_; }
  bool has(const std::string& name) const { return find(name) != nullptr; }
  const Value* find(const std::string& name) const;

  // Typed accessors; return fallback when the argument is missing or has a
  // different type.
  std::int64_t get_integer(const std::string& name,
                           std::int64_t fallback = 0) const;
  double get_real(const std::string& name, double fallback = 0.0) const;
  std::string get_text(const std::string& name,
                       const std::string& fallback = {}) const;
  std::optional<Vector> get_vector(const std::string& name) const;
  std::optional<Array> get_array(const std::string& name) const;
  // The string and word elements of a vector argument, in order; empty
  // when the argument is missing or not a vector. Reads the vector in
  // place, where get_vector() copies it.
  std::vector<std::string> get_strings(const std::string& name) const;

  // Serializes per the paper's grammar: `name arg=value arg=value;`
  std::string to_string() const;

  friend bool operator==(const CmdLine&, const CmdLine&);

 private:
  std::string name_;
  std::vector<Argument> args_;
};

// Reply conventions shared by all ACE daemons. A reply is itself an ACE
// command: `ok ...results...;` or `error code=<word> message=<string>;`
// ("return commands are used to reply on the status of the attempted
//  command such as successful or failed" — paper §2.2).
CmdLine make_ok();
CmdLine make_error(util::Errc code, const std::string& message);
bool is_ok(const CmdLine& reply);
bool is_error(const CmdLine& reply);
util::Error reply_error(const CmdLine& reply);

// Helpers for vector construction.
Vector int_vector(std::vector<std::int64_t> values);
Vector real_vector(std::vector<double> values);
Vector string_vector(std::vector<std::string> values);
Vector word_vector(std::vector<std::string> values);

}  // namespace ace::cmdlang
