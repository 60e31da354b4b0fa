// The device branch of the ACE service daemon hierarchy (paper §2.3 Fig 6):
//
//   Service -> Device -> PTZCamera -> {VCC3, VCC4}
//                     -> Projector -> {Epson7350}
//
// "child nodes inherit methods, characteristics, and actions from the
//  parent nodes" — expressed here with C++ inheritance: DeviceDaemon adds
// power control to the base Service commands; PtzCameraDaemon adds
// pan/tilt/zoom; model subclasses only adjust their motion-envelope specs.
// Devices are simulated hardware: each daemon drives a small state machine
// standing in for the serial-controlled unit the paper's JNI wrappers spoke
// to (see DESIGN.md substitutions).
#pragma once

#include <mutex>

#include "daemon/daemon.hpp"

namespace ace::daemon {

// Adds deviceOn / deviceOff / deviceStatus to the base Service commands.
// Every command of this hierarchy is nonblocking: its handler only takes
// device_mu_.
class DeviceDaemon : public ServiceDaemon {
 public:
  DeviceDaemon(Environment& env, DaemonHost& host, DaemonConfig config);

  bool powered() const;

 protected:
  // Subclass hook invoked on power transitions. deviceOn and deviceOff are
  // nonblocking, so it may run on a reactor core worker: it must never
  // wait on another thread (CommandSpec::nonblocking).
  virtual void on_power(bool on) { (void)on; }

  // Guards all simulated device state in this hierarchy.
  mutable std::mutex device_mu_;
  bool powered_ = false;
};

// Motion and optics envelope of a concrete camera model.
struct PtzModelSpec {
  std::string model;        // "VCC3" / "VCC4"
  double pan_min = -90.0;   // degrees
  double pan_max = 90.0;
  double tilt_min = -30.0;
  double tilt_max = 30.0;
  double zoom_min = 1.0;
  double zoom_max = 10.0;
  double degrees_per_second = 90.0;  // slew rate (affects move latency)
  std::vector<std::int64_t> frame_rates{5, 15, 30};
  std::vector<std::string> resolutions{"320x240", "640x480"};
};

// PTZ camera (§1.2's control GUI drives exactly these parameters: x/y/z
// position, resolution, frame rate, zoom, on/off).
class PtzCameraDaemon : public DeviceDaemon {
 public:
  PtzCameraDaemon(Environment& env, DaemonHost& host, DaemonConfig config,
                  PtzModelSpec spec);

  struct PtzState {
    double pan = 0.0;
    double tilt = 0.0;
    double zoom = 1.0;
    std::int64_t frame_rate = 15;
    std::string resolution = "640x480";
  };
  PtzState ptz_state() const;
  const PtzModelSpec& model() const { return spec_; }

  // True while the simulated head is still slewing to its last target
  // (the model's degrees_per_second bounds how fast it moves; ptzGet
  // reports moving=yes until the ETA passes).
  bool moving() const;

 private:
  // Called with device_mu_ held: start a slew to (pan, tilt).
  void begin_slew_locked(double pan, double tilt);

  PtzModelSpec spec_;
  PtzState state_;
  std::chrono::steady_clock::time_point slew_done_{};
};

// Canon VCC3: narrower envelope, slower slew.
PtzModelSpec vcc3_spec();
// Canon VCC4: wider envelope, faster slew, higher zoom.
PtzModelSpec vcc4_spec();

struct ProjectorModelSpec {
  std::string model;  // "Epson7350"
  std::vector<std::string> inputs{"vga", "video", "network"};
  int max_brightness = 100;
};

class ProjectorDaemon : public DeviceDaemon {
 public:
  ProjectorDaemon(Environment& env, DaemonHost& host, DaemonConfig config,
                  ProjectorModelSpec spec);

  struct ProjectorState {
    std::string input = "vga";
    int brightness = 80;
    std::string source_service;  // e.g. workspace or camera being displayed
    bool picture_in_picture = false;
    std::string pip_source;
  };
  ProjectorState projector_state() const;

 private:
  ProjectorModelSpec spec_;
  ProjectorState state_;
};

ProjectorModelSpec epson7350_spec();

}  // namespace ace::daemon
