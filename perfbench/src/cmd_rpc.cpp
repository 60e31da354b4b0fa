// cmd_rpc: the paper's authenticated command round trip (§2.2 Fig 5, §3
// Fig 10). One VCC4 PTZ camera daemon enforces KeyNote authorization with
// a warm credential cache; two callers, each with its own principal,
// client host and encrypted v2 channel, alternate `ptzMove` (seeded values
// inside the VCC4 envelope) and `ptzGet` in a closed loop. The path covers
// crypto, wire, cmdlang, keynote, the serialized control queue, reactor
// hops and client demux, and no store or media code.
#include <cmath>

#include "daemon/devices.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perf {
namespace {

using cmdlang::CmdLine;
using namespace std::chrono_literals;

constexpr int kCallers = 2;
constexpr std::size_t kRing = 4096;  // pre-built requests per caller
constexpr std::size_t kReplaySample = 200;

class CmdRpc final : public Workload {
 public:
  explicit CmdRpc(std::uint64_t seed) : infra_(seed), spec_(daemon::vcc4_spec()) {
    util::Rng rng(seed);
    auto in = [&](double lo, double hi) {
      // One decimal, as an operator would type it.
      return std::round((lo + (hi - lo) * rng.next_double()) * 10) / 10;
    };
    for (int c = 0; c < kCallers; ++c) {
      requests_[c].reserve(kRing);
      for (std::size_t i = 0; i < kRing; ++i) {
        if (i % 2 == 0) {
          CmdLine move("ptzMove");
          move.arg("pan", in(spec_.pan_min, spec_.pan_max));
          move.arg("tilt", in(spec_.tilt_min, spec_.tilt_max));
          move.arg("zoom", in(spec_.zoom_min, spec_.zoom_max));
          requests_[c].push_back(std::move(move));
        } else {
          requests_[c].push_back(CmdLine("ptzGet"));
        }
      }
    }
  }

  Infra& infra() override { return infra_; }
  int threads() const override { return kCallers; }

  util::Status setup(Tracer& tracer) override {
    if (auto s = infra_.start(); !s.ok()) return s;
    const std::string conditions =
        "app_domain == \"ace\" && service_class ~= \"Service/Device/PTZCamera/*\" "
        "&& (command ~= \"ptz*\" || command == \"deviceOn\")";
    for (int c = 0; c < kCallers; ++c)
      if (auto s = infra_.grant(principal(c), conditions); !s.ok()) return s;

    host_ = std::make_unique<daemon::DaemonHost>(infra_.env, "camera-host");
    daemon::DaemonConfig cfg;
    cfg.name = "camera";
    cfg.room = "hawk";
    cfg.enforce_authorization = true;
    // Longer than any run: the cache stays warm once each caller's first
    // call has fetched its credentials.
    cfg.credential_cache_ttl = 10min;
    camera_ = &host_->add_daemon<daemon::PtzCameraDaemon>(cfg, spec_);
    {
      ScopedSpan span(tracer, "daemon.start");
      if (auto s = camera_->start(); !s.ok()) return s;
    }
    addr_ = camera_->address();

    // Client handshakes, which also warm each principal's credential cache;
    // caller 0 powers the camera on.
    for (int c = 0; c < kCallers; ++c) {
      clients_[c] = infra_.make_client("client-" + std::to_string(c),
                                       principal(c));
      auto r = clients_[c]->call(addr_, CmdLine(c == 0 ? "deviceOn" : "ptzGet"),
                                 daemon::kCallOk);
      if (!r.ok()) return r.error();
    }
    return util::Status::ok_status();
  }

  void drive(int t, LoadControl& ctl) override {
    daemon::AceClient& client = *clients_[t];
    const std::vector<CmdLine>& ring = requests_[t];
    for (std::uint64_t i = 0;; ++i) {
      const int s = ctl.current();
      if (ctl.stopping(s)) return;
      const CmdLine& cmd = ring[i % ring.size()];
      const auto t0 = Clock::now();
      const util::Result<CmdLine> reply = [&] {
        ScopedSpan span(ctl.tracer_for(s), "daemon.call", 0,
                        (static_cast<std::uint64_t>(t) << 40) | i);
        return client.call(addr_, cmd);
      }();
      const auto t1 = Clock::now();
      ctl.record(t, s, us_between(t0, t1), reply.ok() && check(cmd, *reply));
    }
  }

  std::uint64_t verify(std::string& why) override {
    const std::uint64_t denied =
        infra_.env.metrics().counter("daemon.auth.denied").value();
    if (denied > 0) why = "daemon.auth.denied = " + std::to_string(denied);
    return denied;
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.target = camera_;
    in.client = clients_[0].get();
    in.principal = principal(0);
    in.target_name = "camera";
    in.calls_from_load = true;
    const std::size_t stride = kRing / (kReplaySample / kCallers);
    for (std::size_t i = 0; i < kRing; i += stride)
      for (int c = 0; c < kCallers; ++c)
        in.requests.push_back(requests_[c][i + static_cast<std::size_t>(c)]);
    return in;
  }

  void teardown() override {
    for (auto& c : clients_) c.reset();
    if (host_) host_->stop_all();
  }

 private:
  static std::string principal(int c) { return "user/perf" + std::to_string(c); }

  // ptzMove answers a bare `ok`; ptzGet answers seven fields whose
  // position must lie inside the VCC4 envelope.
  bool check(const CmdLine& cmd, const CmdLine& reply) const {
    if (!cmdlang::is_ok(reply)) return false;
    if (cmd.name() != "ptzGet") return true;
    auto inside = [&](const char* arg, double lo, double hi) {
      const cmdlang::Value* v = reply.find(arg);
      return v && (v->is_real() || v->is_integer()) && v->as_real() >= lo &&
             v->as_real() <= hi;
    };
    return reply.args().size() == 7 &&
           inside("pan", spec_.pan_min, spec_.pan_max) &&
           inside("tilt", spec_.tilt_min, spec_.tilt_max) &&
           inside("zoom", spec_.zoom_min, spec_.zoom_max);
  }

  Infra infra_;
  daemon::PtzModelSpec spec_;
  std::vector<CmdLine> requests_[kCallers];
  std::unique_ptr<daemon::DaemonHost> host_;
  daemon::PtzCameraDaemon* camera_ = nullptr;
  net::Address addr_;
  std::unique_ptr<daemon::AceClient> clients_[kCallers];
};

}  // namespace

std::unique_ptr<Workload> make_cmd_rpc(std::uint64_t seed) {
  return std::make_unique<CmdRpc>(seed);
}

}  // namespace perf
