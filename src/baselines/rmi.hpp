// RMI-style remote invocation baseline.
//
// The paper claims (§2.2, §8.1) that the ACE command language "allows for a
// very lightweight form of communication ... much more lightweight than
// utilizing something like RMI", whose "bytecode transmissions ... may be
// large". To *measure* that claim (experiment E1) we reproduce the shape of
// Java RMI marshalling: a serialized invocation carries full class
// descriptors (class name, serialVersionUID, per-field type descriptors and
// names) ahead of the values, as the Java Object Serialization stream does
// on first transmission; an optional descriptor cache models an established
// connection where descriptors have already been sent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ace::baselines {

struct RmiValue;
using RmiValueList = std::vector<RmiValue>;

struct RmiValue {
  std::variant<std::int64_t, double, std::string, RmiValueList> v;

  RmiValue() : v(std::int64_t{0}) {}
  RmiValue(std::int64_t x) : v(x) {}                  // NOLINT(implicit)
  RmiValue(double x) : v(x) {}                        // NOLINT(implicit)
  RmiValue(std::string x) : v(std::move(x)) {}        // NOLINT(implicit)
  RmiValue(const char* x) : v(std::string(x)) {}      // NOLINT(implicit)
  RmiValue(RmiValueList x) : v(std::move(x)) {}       // NOLINT(implicit)

  friend bool operator==(const RmiValue&, const RmiValue&) = default;
};

// A remote method invocation: interface + method + named arguments (the
// argument objects carry their own class descriptors on the wire).
struct RmiInvocation {
  std::string interface_name;  // e.g. "edu.ku.ittc.ace.PTZCamera"
  std::string method_name;
  std::vector<std::pair<std::string, RmiValue>> arguments;

  friend bool operator==(const RmiInvocation&, const RmiInvocation&) = default;
};

class RmiMarshaller {
 public:
  // When `cache_descriptors` is true, class descriptors already sent on
  // this marshaller are replaced by back-references (Java's TC_REFERENCE),
  // modelling a warm connection.
  explicit RmiMarshaller(bool cache_descriptors = false)
      : cache_descriptors_(cache_descriptors) {}

  util::Bytes marshal(const RmiInvocation& invocation);
  util::Result<RmiInvocation> unmarshal(const util::Bytes& data);

 private:
  void write_value(util::ByteWriter& w, const std::string& field_name,
                   const RmiValue& value);
  std::optional<RmiValue> read_value(util::ByteReader& r,
                                     std::string* field_name);
  void write_class_descriptor(util::ByteWriter& w,
                              const std::string& class_name,
                              const std::vector<std::string>& field_types);

  bool cache_descriptors_;
  std::map<std::string, std::uint32_t> sent_descriptors_;
  std::map<std::uint32_t, std::string> seen_descriptors_;
  std::uint32_t next_handle_ = 0x7e0000;  // Java's baseWireHandle
};

// Remote dispatch endpoint: registry of interface.method -> handler.
class RmiDispatcher {
 public:
  using Handler = std::function<RmiValue(const RmiInvocation&)>;

  void register_method(const std::string& interface_name,
                       const std::string& method_name, Handler handler);
  util::Result<RmiValue> dispatch(const RmiInvocation& invocation) const;

 private:
  std::map<std::string, Handler> handlers_;
};

}  // namespace ace::baselines
