#include "daemon/environment.hpp"

namespace ace::daemon {

Environment::Environment(std::uint64_t seed)
    : network_(seed, &metrics_),
      ca_(seed ^ 0xacec0de),
      seed_rng_(seed ^ 0x5eed) {
  channel_options_.metrics = &metrics_;
}

void Environment::add_policy(keynote::Assertion policy) {
  policies_.push_back(std::move(policy));
  ++trust_epoch_;
}

util::Bytes Environment::register_principal(const std::string& key_id) {
  util::Bytes secret(32);
  for (auto& b : secret) b = static_cast<std::uint8_t>(seed_rng_.next());
  keys_.register_principal(key_id, secret);
  ++trust_epoch_;
  return secret;
}

}  // namespace ace::daemon
