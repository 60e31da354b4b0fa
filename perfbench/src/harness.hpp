// Shared machinery of the perfbench harness: the fixed-size latency
// histogram, the span tracer, process/host probes, the infrastructure
// bring-up every workload shares, and the workload interface main.cpp
// drives. Everything here calls ACE only through its public headers.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/environment.hpp"
#include "daemon/host.hpp"
#include "keynote/assertion.hpp"
#include "keynote/checker.hpp"
#include "media/router.hpp"
#include "services/asd.hpp"
#include "services/auth_db.hpp"
#include "services/net_logger.hpp"
#include "services/room_db.hpp"
#include "store/persistent_store.hpp"
#include "store/store_client.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;
using namespace ace;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double median(std::vector<double> values);

// Latency histogram with 1/32-octave buckets from 1/16 us to ~1 s: fixed
// size (no per-sample growth, so the harness does not inflate rss_mb), and
// percentiles interpolate inside a bucket so they are not quantized to
// bucket bounds.
class LatencyHistogram {
 public:
  void record(double us);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  double percentile(double p) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kOctaves = 24;
  static constexpr double kMinUs = 1.0 / 16;
  static constexpr int kBuckets = kSub * kOctaves + 2;  // + under/overflow
  static double lower_bound(int bucket);

  std::array<std::uint32_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

// In-memory span store. Slots are reserved up front (untouched until
// used) and spans are written out only when the run ends.
struct SpanRecord {
  const char* name;
  std::int64_t start_ns;  // since the tracer's epoch
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint64_t op;
  std::uint32_t reps;  // calls timed together; per-call time = span / reps
};

class Tracer {
 public:
  void enable(std::size_t capacity);
  bool enabled() const { return capacity_ > 0; }

  // Reserves a span id; 0 when tracing is off or the store is full.
  std::uint32_t open();
  void close(std::uint32_t id, const char* name, Clock::time_point start,
             Clock::time_point end, std::uint32_t parent, std::uint64_t op,
             std::uint32_t reps = 1);
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent = 0,
                       std::uint64_t op = 0, std::uint32_t reps = 1) {
    const std::uint32_t id = open();
    close(id, name, start, end, parent, op, reps);
    return id;
  }

  // Per-call durations (us) of every span with this name. Call only once
  // no span is open.
  std::vector<double> per_call_us(std::string_view name) const;
  std::size_t used() const;
  std::uint64_t dropped() const { return dropped_.load(); }
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::unique_ptr<SpanRecord[]> slots_;
  std::size_t capacity_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Clock::time_point epoch_ = Clock::now();
};

// Times its own scope as one span (no-op when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent = 0,
             std::uint64_t op = 0, std::uint32_t reps = 1)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        op_(op),
        reps_(reps),
        id_(tracer.open()),
        start_(id_ ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (id_) tracer_.close(id_, name_, start_, Clock::now(), parent_, op_, reps_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint32_t parent_;
  std::uint64_t op_;
  std::uint32_t reps_;
  std::uint32_t id_;
  Clock::time_point start_;
};

// Process and host probes (Linux /proc and getrusage).
double process_cpu_us();  // user + sys of every thread so far
double rss_mib();
int process_threads();
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostCpu read_host_cpu();

// The infrastructure every workload shares: one host running the ASD,
// Room Database, Network Logger and Authorization Database (the services
// each daemon's Fig 9 start talks to), a POLICY root delegating to an
// admin key, and an admin client that grants credentials.
struct Infra {
  explicit Infra(std::uint64_t seed);
  ~Infra();

  util::Status start();
  // Signs a credential for `principal` under the admin key, stores it in
  // the Authorization Database, and keeps a copy for replaying the
  // daemon's KeyNote query.
  util::Status grant(const std::string& principal,
                     const std::string& conditions);
  std::unique_ptr<daemon::AceClient> make_client(const std::string& host,
                                                 const std::string& principal);
  // The compliance query ServiceDaemon::authorize builds for `cmd`.
  keynote::ComplianceQuery authorization_query(
      const daemon::ServiceDaemon& target, const std::string& principal,
      const std::string& command) const;

  daemon::Environment env;
  std::unique_ptr<daemon::DaemonHost> infra_host;
  std::unique_ptr<daemon::AceClient> admin;
  std::map<std::string, std::vector<keynote::Assertion>> credentials;
};

// Load-phase control shared by main.cpp and the workloads. `slice` is -1
// during warm-up, 0..slices-1 inside the measured window, and `slices`
// once the load must stop.
struct LoadControl {
  static constexpr int kMaxThreads = 2;
  static constexpr int kMaxSlices = 240;

  struct Cell {
    LatencyHistogram hist;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
  };

  std::atomic<int> slice{-1};
  int slices = 0;
  bool trace = false;
  Tracer* tracer = nullptr;
  Tracer disabled;  // never enabled: its spans are no-ops
  // cells[thread][slice + 1]; slot 0 collects warm-up.
  std::array<std::array<Cell, kMaxSlices + 1>, kMaxThreads> cells{};

  int current() const { return slice.load(std::memory_order_acquire); }
  bool stopping(int s) const { return s >= slices; }
  // Odd window slices are traced in a traced run; even ones run untraced
  // so the same process measures the tracing overhead.
  bool traced(int s) const { return trace && s >= 0 && (s % 2) == 1; }
  // Where the load records its spans in slice `s`.
  Tracer& tracer_for(int s) { return traced(s) ? *tracer : disabled; }
  void record(int thread, int s, double us, bool ok) {
    Cell& c = cells[thread][s + 1];
    c.hist.record(us);
    ++c.ops;
    if (!ok) ++c.failed;
  }
};

// Everything the traced run replays through the layers' public calls.
// A workload fills what its path has; main.cpp's replay covers the rest
// with small private fixtures so every layer metric is measured on every
// workload.
struct LayerInputs {
  daemon::ServiceDaemon* target = nullptr;  // the workload's command target
  daemon::AceClient* client = nullptr;      // harness client to `target`
  std::string principal;                    // caller identity at `target`
  std::string target_name;                  // ASD name of `target`
  double mean_frame_bytes = 0;              // crypto record size
  std::vector<cmdlang::CmdLine> requests;   // sampled op requests
  // True when the load's own spans around AceClient::call supply
  // daemon.call_us (cmd_rpc); otherwise the requests are replayed.
  bool calls_from_load = false;

  // Store plane: present on store_rw only.
  std::vector<store::PersistentStoreDaemon*> replicas;
  std::vector<std::string> keys;
  std::vector<util::Bytes> values;

  // Media plane: present on media_fanout only.
  const media::FrameRouter* router = nullptr;
  std::vector<util::SharedBytes> frames;
};

// Per-op counts the workload adds to the obs-counter deltas (main.cpp
// snapshots the deployment registry itself).
struct WindowCounts {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t disk_fsyncs = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t user_bytes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Brings the deployment up: everything before the first timed op.
  // `tracer` records daemon.start spans in a traced run.
  virtual util::Status setup(Tracer& tracer) = 0;
  virtual Infra& infra() = 0;
  virtual int threads() const = 0;
  // Closed-loop load on thread `t` until ctl reports stop.
  virtual void drive(int t, LoadControl& ctl) = 0;
  // Disk/user-byte counters at a window edge (store_rw only).
  virtual WindowCounts counts() { return {}; }
  // Output checks after the load: returns how many failed (each counts as
  // a failed op) and describes the first in `why`.
  virtual std::uint64_t verify(std::string& why) = 0;
  virtual LayerInputs layer_inputs() = 0;
  // Stops the workload's own daemons before the infrastructure goes.
  virtual void teardown() = 0;
};

std::unique_ptr<Workload> make_cmd_rpc(std::uint64_t seed);
std::unique_ptr<Workload> make_store_rw(std::uint64_t seed);
std::unique_ptr<Workload> make_media_fanout(std::uint64_t seed);

// Traced-run replay: times each layer's public calls on the inputs and
// returns the per-layer metric values by name (see layers.cpp).
std::map<std::string, double> replay_layers(Infra& infra, LayerInputs in,
                                            Tracer& tracer,
                                            std::uint64_t seed);

}  // namespace perf
