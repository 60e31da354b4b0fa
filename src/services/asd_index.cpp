#include "services/asd_index.hpp"

#include <algorithm>
#include <mutex>

#include "util/strings.hpp"

namespace ace::services {

namespace {

bool has_wildcard(std::string_view pattern) {
  return pattern.find_first_of("*?") != std::string_view::npos;
}

bool is_match_all(std::string_view pattern) { return pattern == "*"; }

}  // namespace

void AsdIndex::set_gauge_locked() const {
  if (obs_.live_count)
    obs_.live_count->set(static_cast<std::int64_t>(registry_.size()));
}

void AsdIndex::index_add_locked(const AsdRegistration& r) {
  by_class_[r.service_class].insert(r.name);
  by_room_[r.room].insert(r.name);
}

void AsdIndex::index_remove_locked(const AsdRegistration& r) {
  auto drop = [&](std::unordered_map<std::string, Bucket>& index,
                  const std::string& key) {
    auto it = index.find(key);
    if (it == index.end()) return;
    it->second.erase(r.name);
    if (it->second.empty()) index.erase(it);
  };
  drop(by_class_, r.service_class);
  drop(by_room_, r.room);
}

void AsdIndex::push_heap_locked(const Entry& e) {
  expiry_heap_.push(HeapNode{e.reg.expires, e.generation, e.reg.name});
}

void AsdIndex::upsert(AsdRegistration r) {
  std::unique_lock lock(mu_);
  auto it = registry_.find(r.name);
  if (it != registry_.end()) {
    // Re-registration may move the entry between class/room buckets.
    index_remove_locked(it->second.reg);
    it->second.reg = std::move(r);
    it->second.generation = next_generation_++;
    index_add_locked(it->second.reg);
    push_heap_locked(it->second);
  } else {
    Entry e{std::move(r), next_generation_++};
    index_add_locked(e.reg);
    push_heap_locked(e);
    registry_.emplace(e.reg.name, std::move(e));
  }
  set_gauge_locked();
}

std::optional<std::chrono::milliseconds> AsdIndex::renew(
    const std::string& name, Clock::time_point now) {
  std::unique_lock lock(mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) return std::nullopt;
  it->second.reg.expires = now + it->second.reg.lease;
  it->second.generation = next_generation_++;
  push_heap_locked(it->second);
  return it->second.reg.lease;
}

bool AsdIndex::erase(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) return false;
  index_remove_locked(it->second.reg);
  registry_.erase(it);
  set_gauge_locked();
  return true;
}

bool AsdIndex::erase_expired(const std::string& name, Clock::time_point now) {
  std::unique_lock lock(mu_);
  auto it = registry_.find(name);
  if (it == registry_.end() || it->second.reg.expires > now) return false;
  index_remove_locked(it->second.reg);
  registry_.erase(it);
  set_gauge_locked();
  return true;
}

void AsdIndex::clear() {
  std::unique_lock lock(mu_);
  registry_.clear();
  by_class_.clear();
  by_room_.clear();
  expiry_heap_ = {};
  set_gauge_locked();
}

std::vector<AsdRegistration> AsdIndex::collect_expired(Clock::time_point now) {
  std::unique_lock lock(mu_);
  std::vector<AsdRegistration> due;
  while (!expiry_heap_.empty() && expiry_heap_.top().expires <= now) {
    HeapNode node = expiry_heap_.top();
    expiry_heap_.pop();
    auto it = registry_.find(node.name);
    // Lazy invalidation: skip nodes superseded by a renew/re-register (the
    // entry carries a newer generation with its own heap node) and nodes
    // for entries already removed.
    if (it == registry_.end() || it->second.generation != node.generation)
      continue;
    if (it->second.reg.expires > now) {  // defensive; generation should catch
      push_heap_locked(it->second);
      continue;
    }
    due.push_back(it->second.reg);
  }
  return due;
}

std::optional<AsdRegistration> AsdIndex::find(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) return std::nullopt;
  return it->second.reg;
}

std::size_t AsdIndex::size() const {
  std::shared_lock lock(mu_);
  return registry_.size();
}

void AsdIndex::append_if_match_locked(
    const Entry& e, std::string_view name_glob, std::string_view class_glob,
    std::string_view room_glob, Clock::time_point now,
    std::vector<AsdRegistration>& out) const {
  const AsdRegistration& r = e.reg;
  if (r.expires < now) return;
  if (!util::glob_match(name_glob, r.name)) return;
  if (!util::glob_match(class_glob, r.service_class)) return;
  if (!util::glob_match(room_glob, r.room)) return;
  out.push_back(r);
}

std::vector<AsdRegistration> AsdIndex::query(std::string_view name_glob,
                                             std::string_view class_glob,
                                             std::string_view room_glob,
                                             Clock::time_point now) const {
  std::vector<AsdRegistration> out;
  std::shared_lock lock(mu_);

  auto consider = [&](const std::string& name) {
    auto it = registry_.find(name);
    if (it != registry_.end())
      append_if_match_locked(it->second, name_glob, class_glob, room_glob, now,
                             out);
  };
  auto scan_all = [&] {
    if (obs_.query_scans) obs_.query_scans->inc();
    for (const auto& [name, e] : registry_)
      append_if_match_locked(e, name_glob, class_glob, room_glob, now, out);
  };
  auto hit = [&] {
    if (obs_.query_index_hits) obs_.query_index_hits->inc();
  };
  // Union of the buckets whose key matches `pattern` — the glob fallback:
  // it globs over distinct class/room *values*, not registrations.
  auto bucket_union = [&](const std::unordered_map<std::string, Bucket>& index,
                          std::string_view pattern) {
    hit();
    for (const auto& [key, bucket] : index) {
      if (!util::glob_match(pattern, key)) continue;
      for (const auto& name : bucket) consider(name);
    }
  };

  if (!use_index_) {
    scan_all();
  } else if (!has_wildcard(name_glob)) {
    // Exact name: a point lookup regardless of the other patterns.
    hit();
    consider(std::string(name_glob));
  } else if (!has_wildcard(class_glob) || !has_wildcard(room_glob)) {
    // At least one exact token: pick the smaller bucket and filter it.
    const Bucket* class_bucket =
        !has_wildcard(class_glob)
            ? [&]() -> const Bucket* {
                auto it = by_class_.find(std::string(class_glob));
                return it == by_class_.end() ? nullptr : &it->second;
              }()
            : nullptr;
    const Bucket* room_bucket =
        !has_wildcard(room_glob)
            ? [&]() -> const Bucket* {
                auto it = by_room_.find(std::string(room_glob));
                return it == by_room_.end() ? nullptr : &it->second;
              }()
            : nullptr;
    hit();
    const Bucket* chosen = nullptr;
    if (class_bucket && room_bucket)
      chosen = class_bucket->size() <= room_bucket->size() ? class_bucket
                                                           : room_bucket;
    else if (class_bucket)
      chosen = class_bucket;
    else if (room_bucket)
      chosen = room_bucket;
    // An exact token with no bucket means no live registration can match;
    // chosen stays null only when *every* exact token missed.
    if (!class_bucket && !has_wildcard(class_glob)) chosen = nullptr;
    if (!room_bucket && !has_wildcard(room_glob)) chosen = nullptr;
    if (chosen)
      for (const auto& name : *chosen) consider(name);
  } else if (!is_match_all(class_glob)) {
    bucket_union(by_class_, class_glob);
  } else if (!is_match_all(room_glob)) {
    bucket_union(by_room_, room_glob);
  } else {
    scan_all();
  }

  std::sort(out.begin(), out.end(),
            [](const AsdRegistration& a, const AsdRegistration& b) {
              return a.name < b.name;
            });
  return out;
}

bool AsdIndex::check_consistency() const {
  std::shared_lock lock(mu_);
  std::size_t class_members = 0, room_members = 0;
  for (const auto& [key, bucket] : by_class_) {
    if (bucket.empty()) return false;  // empty buckets must be pruned
    class_members += bucket.size();
    for (const auto& name : bucket) {
      auto it = registry_.find(name);
      if (it == registry_.end() || it->second.reg.service_class != key)
        return false;
    }
  }
  for (const auto& [key, bucket] : by_room_) {
    if (bucket.empty()) return false;
    room_members += bucket.size();
    for (const auto& name : bucket) {
      auto it = registry_.find(name);
      if (it == registry_.end() || it->second.reg.room != key) return false;
    }
  }
  // Bucket membership totals match the registry exactly (no orphans).
  if (class_members != registry_.size() || room_members != registry_.size())
    return false;
  for (const auto& [name, e] : registry_) {
    if (e.reg.name != name) return false;
    auto c = by_class_.find(e.reg.service_class);
    if (c == by_class_.end() || !c->second.contains(name)) return false;
    auto r = by_room_.find(e.reg.room);
    if (r == by_room_.end() || !r->second.contains(name)) return false;
  }
  if (obs_.live_count &&
      obs_.live_count->value() != static_cast<std::int64_t>(registry_.size()))
    return false;
  return true;
}

}  // namespace ace::services
