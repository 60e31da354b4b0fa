// Per-daemon command semantics (paper §2.2/§2.3):
//
// "For each unique daemon implementation, a set of command and argument
//  semantics must be defined, within the basic language structure, and
//  tailored to fit the specific capabilities of that service daemon."
//
// The parser checks syntax; a SemanticRegistry checks the parsed CmdLine
// against the receiving daemon's declared commands and argument schemas.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cmdlang/value.hpp"
#include "util/result.hpp"

namespace ace::cmdlang {

enum class ArgType {
  integer,
  real,       // accepts integer (numeric widening)
  word,
  string,     // accepts word or quoted string
  text,       // word or string
  vector_integer,
  vector_real,
  vector_word,
  vector_string,
  array,
  any,
};

const char* arg_type_name(ArgType t);

struct ArgSpec {
  std::string name;
  ArgType type = ArgType::any;
  bool required = true;
  std::optional<std::int64_t> min_integer;
  std::optional<std::int64_t> max_integer;
  std::optional<double> min_real;
  std::optional<double> max_real;
  std::vector<std::string> one_of;  // allowed word/string values
  std::string help;

  // Fluent builders.
  ArgSpec& optional_arg() { required = false; return *this; }
  ArgSpec& range(std::int64_t lo, std::int64_t hi) {
    min_integer = lo; max_integer = hi; return *this;
  }
  ArgSpec& range_real(double lo, double hi) {
    min_real = lo; max_real = hi; return *this;
  }
  ArgSpec& choices(std::vector<std::string> values) {
    one_of = std::move(values); return *this;
  }
  ArgSpec& describe(std::string text) { help = std::move(text); return *this; }
};

struct CommandSpec {
  std::string name;
  std::vector<ArgSpec> args;
  bool allow_extra_args = false;
  // Concurrent commands have thread-safe handlers and may execute directly
  // on the receiving connection's strand instead of being serialized
  // through the daemon's control queue. Required for commands on
  // peer-to-peer hot paths (e.g. persistent-store replication) where
  // control-queue serialization would convoy the whole cluster.
  bool concurrent = false;
  // Nonblocking commands have handlers that never wait on another
  // thread's progress: no nested RPC, no group-commit or condition-variable
  // wait, no sleep, and only short data-structure locks never held across
  // one of those. The daemon may run them on the core worker that decoded
  // them when their lane is idle (docs/net.md §3).
  bool never_blocks = false;
  std::string help;

  CommandSpec() = default;
  CommandSpec(std::string n, std::string h = {})
      : name(std::move(n)), help(std::move(h)) {}

  CommandSpec& arg(ArgSpec spec) {
    args.push_back(std::move(spec));
    return *this;
  }
  CommandSpec& extra_ok() {
    allow_extra_args = true;
    return *this;
  }
  CommandSpec& concurrent_ok() {
    concurrent = true;
    return *this;
  }
  CommandSpec& nonblocking() {
    never_blocks = true;
    return *this;
  }
};

// Convenience ArgSpec constructors.
ArgSpec integer_arg(std::string name);
ArgSpec real_arg(std::string name);
ArgSpec word_arg(std::string name);
ArgSpec string_arg(std::string name);
ArgSpec text_arg(std::string name);
ArgSpec vector_arg(std::string name, ArgType type);
ArgSpec array_arg(std::string name);
ArgSpec any_arg(std::string name);

class SemanticRegistry {
 public:
  void add(CommandSpec spec);
  const CommandSpec* find(const std::string& name) const;
  std::vector<std::string> command_names() const;
  std::size_t size() const { return specs_.size(); }

  // Validates a parsed command against the registered semantics:
  // unknown command, missing required args, unknown args, type and range
  // violations all fail with Errc::semantic_error.
  util::Status validate(const CmdLine& cmd) const;

 private:
  static util::Status check_arg(const CommandSpec& spec, const ArgSpec& arg,
                                const Value& value);

  std::map<std::string, CommandSpec> specs_;
};

}  // namespace ace::cmdlang
