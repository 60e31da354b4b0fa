// AsdIndex — the read-optimized concurrent core of the ACE Service
// Directory (paper §2.4). The original AsdDaemon kept one std::map behind
// one std::mutex: every query was a full O(n) glob scan under the lock,
// every mutation recomputed the live-count gauge O(n), and the reaper
// rescanned the whole registry each interval. At building/campus scale
// (Ch 9) the directory is the rendezvous for *every* interaction, so this
// class restructures it around three ideas:
//
//  * secondary indexes: exact-token hash buckets over `service_class` and
//    `room`. A query whose class or room pattern is wildcard-free touches
//    one bucket; a pattern with wildcards falls back to globbing over the
//    *distinct* class/room values (typically orders of magnitude fewer
//    than registrations) and unioning their buckets. Only a query that
//    constrains nothing but the name pattern still scans the registry.
//    The `asd.query_index_hits` / `asd.query_scans` counters prove which
//    path served each query.
//
//  * snapshot reads: readers (lookup/query/count) take a std::shared_mutex
//    in shared mode, so concurrent readers never serialize behind each
//    other or behind the control thread — registrations are the only
//    writers. The AsdDaemon marks its directory commands concurrent_ok so
//    they run on the connection threads and actually exploit this.
//
//  * incremental liveness: the live count is the registry size, adjusted
//    on register/deregister/expiry (no rescans), and expiry is driven by a
//    min-heap keyed on the expiry deadline. Renewals lazily invalidate
//    superseded heap nodes via a per-entry generation counter, so the
//    reaper pops exactly the due entries in O(k log n) instead of sweeping
//    the map.
//
// All methods are internally synchronized; the class is safe to call from
// any daemon thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <queue>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"

namespace ace::services {

// One directory registration (the paper's ASD listing row).
struct AsdRegistration {
  std::string name;
  std::string host;
  std::uint16_t port = 0;
  std::string room;
  std::string service_class;
  std::chrono::milliseconds lease{0};
  std::chrono::steady_clock::time_point expires;
};

// Optional obs cells the index maintains; null pointers are skipped.
struct AsdIndexObs {
  obs::Counter* query_index_hits = nullptr;  // asd.query_index_hits
  obs::Counter* query_scans = nullptr;       // asd.query_scans
  obs::Gauge* live_count = nullptr;          // asd.live_count
};

class AsdIndex {
 public:
  using Clock = std::chrono::steady_clock;

  // use_index = false answers every query with a full-registry glob scan:
  // the linear reference the indexed path is tested and benchmarked
  // against. The directory daemon always indexes.
  explicit AsdIndex(bool use_index = true, AsdIndexObs obs = {})
      : use_index_(use_index), obs_(obs) {}

  // --- writers (exclusive lock) -------------------------------------------
  // Inserts or replaces a registration (re-registration moves the entry
  // between index buckets and supersedes its old expiry heap node).
  void upsert(AsdRegistration r);

  // Extends the lease from `now`; returns the granted lease, or nullopt if
  // the name is not registered (including already reaped).
  std::optional<std::chrono::milliseconds> renew(const std::string& name,
                                                 Clock::time_point now);

  // Removes a registration unconditionally (deregister). Returns whether
  // an entry was removed.
  bool erase(const std::string& name);

  // Removes a registration only if its lease has run out — the expiry
  // path. An entry renewed or re-registered between the reaper noticing it
  // and this call is left alone. Returns whether an entry was removed.
  bool erase_expired(const std::string& name, Clock::time_point now);

  void clear();

  // Pops every entry due at `now` off the expiry heap and returns copies.
  // Entries are *not* removed from the registry — the daemon routes each
  // through its `serviceExpired` command (which calls erase_expired) so
  // expiry keeps flowing through the notification machinery (§2.5).
  // Superseded heap nodes (renewals, re-registrations) are discarded here,
  // which is where the lazy invalidation is paid: O(k log n) for k pops.
  std::vector<AsdRegistration> collect_expired(Clock::time_point now);

  // --- readers (shared lock) ----------------------------------------------
  std::optional<AsdRegistration> find(const std::string& name) const;

  // Glob query over name/class/room. Results are name-sorted so the
  // indexed and linear paths return byte-identical replies.
  std::vector<AsdRegistration> query(std::string_view name_glob,
                                     std::string_view class_glob,
                                     std::string_view room_glob,
                                     Clock::time_point now) const;

  // Registrations present (expired-but-not-yet-reaped entries included;
  // the reaper pops them within one reap interval). O(1).
  std::size_t size() const;

  // Earliest pending expiry deadline (may be a superseded node — a wake
  // hint for the reaper, not a promise). nullopt when the heap is empty.
  std::optional<Clock::time_point> next_expiry() const;

  // Test hook: verifies index <-> registry agreement — every registration
  // sits in exactly its class/room bucket, every bucket member resolves to
  // a registration, and the live-count gauge matches the registry size.
  bool check_consistency() const;

 private:
  struct Entry {
    AsdRegistration reg;
    std::uint64_t generation = 0;  // bumped on upsert/renew
  };
  struct HeapNode {
    Clock::time_point expires;
    std::uint64_t generation = 0;
    std::string name;
    bool operator>(const HeapNode& o) const { return expires > o.expires; }
  };
  using Bucket = std::unordered_set<std::string>;

  void index_add_locked(const AsdRegistration& r);
  void index_remove_locked(const AsdRegistration& r);
  void push_heap_locked(const Entry& e);
  void set_gauge_locked() const;
  // Appends the entry if it is live at `now` and matches all three globs.
  void append_if_match_locked(const Entry& e, std::string_view name_glob,
                              std::string_view class_glob,
                              std::string_view room_glob, Clock::time_point now,
                              std::vector<AsdRegistration>& out) const;

  bool use_index_;
  AsdIndexObs obs_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> registry_;
  std::unordered_map<std::string, Bucket> by_class_;
  std::unordered_map<std::string, Bucket> by_room_;
  std::uint64_t next_generation_ = 1;
  std::priority_queue<HeapNode, std::vector<HeapNode>, std::greater<HeapNode>>
      expiry_heap_;
};

}  // namespace ace::services
