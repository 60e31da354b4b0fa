#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perf {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

// ------------------------------------------------------------ histogram

void LatencyHistogram::record(double us) {
  int bucket = 0;
  if (us >= kMinUs) {
    int exp = 0;
    const double mant = std::frexp(us / kMinUs, &exp);  // [0.5, 1) * 2^exp
    const int octave = exp - 1;
    if (octave >= kOctaves) {
      bucket = kBuckets - 1;
    } else {
      const int sub = std::min(
          kSub - 1, static_cast<int>((2 * mant - 1) * kSub));
      bucket = 1 + octave * kSub + sub;
    }
  }
  ++buckets_[static_cast<std::size_t>(bucket)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::lower_bound(int bucket) {
  if (bucket <= 0) return 0.0;
  const int octave = (bucket - 1) / kSub;
  const int sub = (bucket - 1) % kSub;
  return kMinUs * std::ldexp(1.0 + static_cast<double>(sub) / kSub, octave);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(p / 100.0, 0.0, 1.0) *
                      static_cast<double>(count_);
  double before = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const double n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (before + n >= rank) {
      const double lo = lower_bound(b);
      const double hi = b == kBuckets - 1 ? lo * 2 : lower_bound(b + 1);
      return lo + (hi - lo) * std::clamp((rank - before) / n, 0.0, 1.0);
    }
    before += n;
  }
  return lower_bound(kBuckets - 1);
}

// ---------------------------------------------------------------- tracer

void Tracer::enable(std::size_t capacity) {
  // Default-initialised: the pages stay untouched until spans land.
  slots_.reset(new SpanRecord[capacity]);
  capacity_ = capacity;
  epoch_ = Clock::now();
}

std::uint32_t Tracer::open() {
  if (capacity_ == 0) return 0;
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  slots_[idx].name = nullptr;
  return static_cast<std::uint32_t>(idx + 1);
}

void Tracer::close(std::uint32_t id, const char* name, Clock::time_point start,
                   Clock::time_point end, std::uint32_t parent,
                   std::uint64_t op, std::uint32_t reps) {
  if (id == 0) return;
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  slots_[id - 1] = SpanRecord{name, ns(start), ns(end), id, parent, op, reps};
}

std::size_t Tracer::used() const {
  return std::min(next_.load(), capacity_);
}

std::vector<double> Tracer::per_call_us(std::string_view name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < used(); ++i) {
    const SpanRecord& s = slots_[i];
    if (s.name == nullptr || name != s.name) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0 /
                  std::max<std::uint32_t>(1, s.reps));
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < used(); ++i) {
    const SpanRecord& s = slots_[i];
    if (s.name == nullptr) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"op\":%llu,\"reps\":%u}}",
                 first ? "" : ",\n", s.name,
                 static_cast<unsigned long long>(s.op), s.start_ns / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0, s.id, s.parent,
                 static_cast<unsigned long long>(s.op), s.reps);
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- probes

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

namespace {
long status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, n, key) == 0) return std::atol(line.c_str() + n);
  return 0;
}
}  // namespace

double rss_mib() { return static_cast<double>(status_field("VmRSS:")) / 1024.0; }

int process_threads() { return static_cast<int>(status_field("Threads:")); }

HostCpu read_host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostCpu out;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

// ----------------------------------------------------------------- infra

namespace {
constexpr const char* kAdminKey = "perf-admin-key";
}

Infra::Infra(std::uint64_t seed) : env(seed) {
  infra_host = std::make_unique<daemon::DaemonHost>(env, "infra");
  env.asd_address = {"infra", daemon::kAsdPort};
  env.room_db_address = {"infra", daemon::kRoomDbPort};
  env.net_logger_address = {"infra", daemon::kNetLoggerPort};
  env.auth_db_address = {"infra", daemon::kAuthDbPort};

  auto config = [](const char* name, std::uint16_t port) {
    daemon::DaemonConfig c;
    c.name = name;
    c.port = port;
    c.room = "machine-room";
    return c;
  };
  daemon::DaemonConfig asd = config("asd", daemon::kAsdPort);
  asd.register_with_room_db = false;  // boots before the Room DB
  infra_host->add_daemon<services::AsdDaemon>(asd, services::AsdOptions{});
  infra_host->add_daemon<services::RoomDbDaemon>(
      config("room-db", daemon::kRoomDbPort));
  infra_host->add_daemon<services::NetLoggerDaemon>(
      config("net-logger", daemon::kNetLoggerPort),
      services::NetLoggerOptions{});
  infra_host->add_daemon<services::AuthDbDaemon>(
      config("auth-db", daemon::kAuthDbPort));

  // Root of trust for every enforcing daemon: POLICY delegates to the
  // admin key, which signs each principal's credential.
  env.register_principal(kAdminKey);
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key(kAdminKey);
  env.add_policy(policy);
}

Infra::~Infra() {
  admin.reset();
  infra_host->stop_all();
}

util::Status Infra::start() {
  if (auto s = infra_host->start_all(); !s.ok()) return s;
  admin = make_client("perf-admin", "user/perf-admin");
  return util::Status::ok_status();
}

util::Status Infra::grant(const std::string& principal,
                          const std::string& conditions) {
  keynote::Assertion a;
  a.authorizer = kAdminKey;
  a.licensees = keynote::licensee_key(principal);
  a.conditions = conditions;
  if (auto s = env.keys().sign(a); !s.ok()) return s;
  cmdlang::CmdLine cmd("credAdd");
  cmd.arg("principal", principal);
  cmd.arg("assertion", a.serialize());
  auto reply = admin->call(env.auth_db_address, cmd, daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  credentials[principal].push_back(std::move(a));
  return util::Status::ok_status();
}

std::unique_ptr<daemon::AceClient> Infra::make_client(
    const std::string& host, const std::string& principal) {
  auto& h = env.network().add_host(host);
  return std::make_unique<daemon::AceClient>(env, h,
                                             env.issue_identity(principal));
}

keynote::ComplianceQuery Infra::authorization_query(
    const daemon::ServiceDaemon& target, const std::string& principal,
    const std::string& command) const {
  keynote::ComplianceQuery q;
  q.requester = principal;
  q.action = {
      {"app_domain", "ace"},
      {"service", target.config().name},
      {"service_class", target.config().service_class},
      {"room", target.config().room},
      {"command", command},
      {"principal", principal},
  };
  q.policies = env.policies();
  if (auto it = credentials.find(principal); it != credentials.end())
    q.credentials = it->second;
  return q;
}

}  // namespace perf
