#include "daemon/devices.hpp"

#include <algorithm>
#include <cmath>

namespace ace::daemon {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::Word;

namespace {
DaemonConfig device_defaults(DaemonConfig config) {
  if (config.service_class.empty()) config.service_class = "Service/Device";
  return config;
}
DaemonConfig camera_defaults(DaemonConfig config, const PtzModelSpec& spec) {
  if (config.service_class.empty())
    config.service_class = "Service/Device/PTZCamera/" + spec.model;
  return config;
}
DaemonConfig projector_defaults(DaemonConfig config,
                                const ProjectorModelSpec& spec) {
  if (config.service_class.empty())
    config.service_class = "Service/Device/Projector/" + spec.model;
  return config;
}
}  // namespace

DeviceDaemon::DeviceDaemon(Environment& env, DaemonHost& host,
                           DaemonConfig config)
    : ServiceDaemon(env, host, device_defaults(std::move(config))) {
  register_command(
      CommandSpec("deviceOn", "power the device on").nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        {
          std::scoped_lock lock(device_mu_);
          powered_ = true;
        }
        on_power(true);
        return cmdlang::make_ok();
      });
  register_command(
      CommandSpec("deviceOff", "power the device off").nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        {
          std::scoped_lock lock(device_mu_);
          powered_ = false;
        }
        on_power(false);
        return cmdlang::make_ok();
      });
  register_command(
      CommandSpec("deviceStatus", "report power state").nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::scoped_lock lock(device_mu_);
        reply.arg("powered", Word{powered_ ? "on" : "off"});
        return reply;
      });
}

bool DeviceDaemon::powered() const {
  std::scoped_lock lock(device_mu_);
  return powered_;
}

// ----------------------------------------------------------------- PTZ camera

PtzCameraDaemon::PtzCameraDaemon(Environment& env, DaemonHost& host,
                                 DaemonConfig config, PtzModelSpec spec)
    : DeviceDaemon(env, host, camera_defaults(std::move(config), spec)),
      spec_(std::move(spec)) {
  using cmdlang::integer_arg;
  using cmdlang::real_arg;
  using cmdlang::string_arg;

  register_command(
      CommandSpec("ptzMove", "slew the camera to pan/tilt/zoom")
          .arg(real_arg("pan").range_real(spec_.pan_min, spec_.pan_max))
          .arg(real_arg("tilt").range_real(spec_.tilt_min, spec_.tilt_max))
          .arg(real_arg("zoom")
                   .range_real(spec_.zoom_min, spec_.zoom_max)
                   .optional_arg())
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        if (!powered_)
          return cmdlang::make_error(util::Errc::invalid, "camera is off");
        begin_slew_locked(cmd.get_real("pan"), cmd.get_real("tilt"));
        if (cmd.has("zoom")) state_.zoom = cmd.get_real("zoom");
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("ptzGet", "report current pan/tilt/zoom").nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::scoped_lock lock(device_mu_);
        reply.arg("pan", state_.pan);
        reply.arg("tilt", state_.tilt);
        reply.arg("zoom", state_.zoom);
        reply.arg("frame_rate", state_.frame_rate);
        reply.arg("resolution", state_.resolution);
        reply.arg("model", Word{spec_.model});
        reply.arg("moving",
                  Word{std::chrono::steady_clock::now() < slew_done_
                           ? "yes"
                           : "no"});
        return reply;
      });

  register_command(
      CommandSpec("ptzSetCapture", "set capture resolution and frame rate")
          .arg(integer_arg("frame_rate").optional_arg())
          .arg(string_arg("resolution").optional_arg())
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        if (cmd.has("frame_rate")) {
          std::int64_t rate = cmd.get_integer("frame_rate");
          if (std::find(spec_.frame_rates.begin(), spec_.frame_rates.end(),
                        rate) == spec_.frame_rates.end())
            return cmdlang::make_error(util::Errc::invalid,
                                       "unsupported frame rate");
          state_.frame_rate = rate;
        }
        if (cmd.has("resolution")) {
          std::string res = cmd.get_text("resolution");
          if (std::find(spec_.resolutions.begin(), spec_.resolutions.end(),
                        res) == spec_.resolutions.end())
            return cmdlang::make_error(util::Errc::invalid,
                                       "unsupported resolution");
          state_.resolution = res;
        }
        return cmdlang::make_ok();
      });

  // Scenario 2 support: point the camera at a named feature of the room
  // (e.g. the door when someone is identified there).
  register_command(
      CommandSpec("ptzPointAt", "point at a named room location")
          .arg(real_arg("x"))
          .arg(real_arg("y"))
          .arg(real_arg("z").optional_arg())
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        if (!powered_)
          return cmdlang::make_error(util::Errc::invalid, "camera is off");
        // Simple geometric model: camera at origin facing +y.
        double x = cmd.get_real("x");
        double y = cmd.get_real("y");
        double pan = std::atan2(x, y) * 180.0 / 3.14159265358979323846;
        pan = std::clamp(pan, spec_.pan_min, spec_.pan_max);
        begin_slew_locked(pan, 0.0);
        return cmdlang::make_ok();
      });
}

void PtzCameraDaemon::begin_slew_locked(double pan, double tilt) {
  // The head slews at the model's rate; completion time is bounded by the
  // larger of the two axis movements.
  double degrees = std::max(std::abs(pan - state_.pan),
                            std::abs(tilt - state_.tilt));
  auto duration = std::chrono::duration<double>(
      degrees / std::max(spec_.degrees_per_second, 1.0));
  slew_done_ = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   duration);
  state_.pan = pan;
  state_.tilt = tilt;
}

bool PtzCameraDaemon::moving() const {
  std::scoped_lock lock(device_mu_);
  return std::chrono::steady_clock::now() < slew_done_;
}

PtzCameraDaemon::PtzState PtzCameraDaemon::ptz_state() const {
  std::scoped_lock lock(device_mu_);
  return state_;
}

PtzModelSpec vcc3_spec() {
  PtzModelSpec s;
  s.model = "VCC3";
  s.pan_min = -90.0;
  s.pan_max = 90.0;
  s.tilt_min = -25.0;
  s.tilt_max = 25.0;
  s.zoom_max = 10.0;
  s.degrees_per_second = 70.0;
  s.frame_rates = {5, 15, 30};
  s.resolutions = {"320x240", "640x480"};
  return s;
}

PtzModelSpec vcc4_spec() {
  PtzModelSpec s;
  s.model = "VCC4";
  s.pan_min = -100.0;
  s.pan_max = 100.0;
  s.tilt_min = -30.0;
  s.tilt_max = 90.0;
  s.zoom_max = 16.0;
  s.degrees_per_second = 300.0;
  s.frame_rates = {5, 15, 30};
  s.resolutions = {"320x240", "640x480", "704x480"};
  return s;
}

// ------------------------------------------------------------------ projector

ProjectorDaemon::ProjectorDaemon(Environment& env, DaemonHost& host,
                                 DaemonConfig config, ProjectorModelSpec spec)
    : DeviceDaemon(env, host, projector_defaults(std::move(config), spec)),
      spec_(std::move(spec)) {
  using cmdlang::integer_arg;
  using cmdlang::string_arg;
  using cmdlang::word_arg;

  register_command(
      CommandSpec("projSetInput", "select the input source")
          .arg(word_arg("input").choices(spec_.inputs))
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        if (!powered_)
          return cmdlang::make_error(util::Errc::invalid, "projector is off");
        state_.input = cmd.get_text("input");
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("projSetBrightness", "set lamp brightness")
          .arg(integer_arg("brightness").range(0, spec_.max_brightness))
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        state_.brightness = static_cast<int>(cmd.get_integer("brightness"));
        return cmdlang::make_ok();
      });

  // Scenario 5: "He uses it to turn the projector on and to output the
  // workspace to the screen ... he selects the camera output to stream to
  // the projector as a picture in picture output."
  register_command(
      CommandSpec("projDisplay", "display a service's output")
          .arg(string_arg("source"))
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        if (!powered_)
          return cmdlang::make_error(util::Errc::invalid, "projector is off");
        state_.source_service = cmd.get_text("source");
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("projPictureInPicture", "overlay a second source")
          .arg(string_arg("source"))
          .arg(word_arg("enable").choices({"on", "off"}))
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(device_mu_);
        if (!powered_)
          return cmdlang::make_error(util::Errc::invalid, "projector is off");
        state_.picture_in_picture = cmd.get_text("enable") == "on";
        state_.pip_source =
            state_.picture_in_picture ? cmd.get_text("source") : "";
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("projGet", "report projector state").nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::scoped_lock lock(device_mu_);
        reply.arg("model", Word{spec_.model});
        reply.arg("input", state_.input);
        reply.arg("brightness", static_cast<std::int64_t>(state_.brightness));
        reply.arg("source", state_.source_service);
        reply.arg("pip", Word{state_.picture_in_picture ? "on" : "off"});
        reply.arg("pip_source", state_.pip_source);
        return reply;
      });
}

ProjectorDaemon::ProjectorState ProjectorDaemon::projector_state() const {
  std::scoped_lock lock(device_mu_);
  return state_;
}

ProjectorModelSpec epson7350_spec() {
  ProjectorModelSpec s;
  s.model = "Epson7350";
  s.inputs = {"vga", "video", "network"};
  s.max_brightness = 100;
  return s;
}

}  // namespace ace::daemon
