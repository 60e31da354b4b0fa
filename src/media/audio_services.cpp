#include "media/audio_services.hpp"

namespace ace::media {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::string_arg;
using cmdlang::Word;
using daemon::CallerInfo;

AudioElementDaemon::AudioElementDaemon(daemon::Environment& env,
                                       daemon::DaemonHost& host,
                                       daemon::DaemonConfig config)
    : RoutedMediaDaemon(env, host, std::move(config)) {
  // The element's ingest behavior is itself a routed stage: an O(1) header
  // parse over the shared wire buffer, then the subclass hook. Installed on
  // the catch-all route; tagged routes inherit it unless they override
  // stages explicitly.
  router().register_stage(
      "audio",
      [this](std::string_view, const util::SharedBytes& payload)
          -> std::optional<util::SharedBytes> {
        auto view = AudioFrameView::parse(payload.view());
        if (!view) return std::nullopt;
        return on_frame_view(*view, payload);
      });
  (void)router().set_stages(kCatchAllTag, {"audio"});

  register_command(
      CommandSpec("audioAddSink",
                  "forward output frames to `dest` (catch-all route alias)")
          .arg(string_arg("dest")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto addr = net::Address::parse(cmd.get_text("dest"));
        if (!addr)
          return cmdlang::make_error(util::Errc::invalid,
                                     "dest must be host:port");
        add_sink(*addr);
        return cmdlang::make_ok();
      });
  register_command(
      CommandSpec("audioRemoveSink", "stop forwarding to `dest`")
          .arg(string_arg("dest")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto addr = net::Address::parse(cmd.get_text("dest"));
        if (!addr)
          return cmdlang::make_error(util::Errc::invalid,
                                     "dest must be host:port");
        (void)router().remove_sink(kCatchAllTag, *addr);
        return cmdlang::make_ok();
      });
  register_command(
      CommandSpec("audioListSinks", "list forwarding destinations"),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::vector<std::string> out;
        for (const auto& s : sinks()) out.push_back(s.to_string());
        reply.arg("sinks", cmdlang::string_vector(std::move(out)));
        return reply;
      });
}

void AudioElementDaemon::add_sink(const net::Address& sink) {
  router().add_sink(kCatchAllTag, sink);
}

std::vector<net::Address> AudioElementDaemon::sinks() const {
  auto route = router().lookup(kCatchAllTag);
  return route ? route->sinks : std::vector<net::Address>{};
}

void AudioElementDaemon::emit_frame(std::string_view stream,
                                    std::uint32_t sequence,
                                    std::span<const std::int16_t> samples) {
  emit(serialize_frame(stream, sequence, samples));
}

// ---------------------------------------------------------------- capture

AudioCaptureDaemon::AudioCaptureDaemon(daemon::Environment& env,
                                       daemon::DaemonHost& host,
                                       daemon::DaemonConfig config,
                                       std::string stream_tag)
    : AudioElementDaemon(env, host, std::move(config)),
      stream_tag_(std::move(stream_tag)) {
  using cmdlang::integer_arg;
  using cmdlang::real_arg;
  register_command(
      CommandSpec("captureGenerate",
                  "synthesize and emit `frames` frames of a test tone")
          .arg(integer_arg("frames").range(1, 10000))
          .arg(real_arg("frequency").optional_arg())
          .arg(real_arg("amplitude").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::int64_t frames = cmd.get_integer("frames");
        double freq = cmd.get_real("frequency", 440.0);
        double amp = cmd.get_real("amplitude", 8000.0);
        std::size_t phase = 0;
        for (std::int64_t i = 0; i < frames; ++i) {
          capture_push(sine_wave(freq, amp, kFrameSamples, phase));
          phase += kFrameSamples;
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("frames", frames);
        return reply;
      });
}

void AudioCaptureDaemon::capture_push(
    const std::vector<std::int16_t>& samples) {
  std::scoped_lock lock(mu_);
  std::size_t offset = 0;
  std::vector<std::int16_t> frame(kFrameSamples);
  while (offset < samples.size()) {
    std::size_t take = std::min(kFrameSamples, samples.size() - offset);
    std::copy(samples.begin() + offset, samples.begin() + offset + take,
              frame.begin());
    std::fill(frame.begin() + take, frame.end(), 0);  // zero-pad tail frame
    offset += take;
    emit_frame(stream_tag_, sequence_++, frame);
  }
}

// ------------------------------------------------------------------- mixer

AudioMixerDaemon::AudioMixerDaemon(daemon::Environment& env,
                                   daemon::DaemonHost& host,
                                   daemon::DaemonConfig config,
                                   std::string output_tag)
    : AudioElementDaemon(env, host, std::move(config)),
      output_tag_(std::move(output_tag)) {
  register_command(
      CommandSpec("mixerAddInput", "declare an input stream tag")
          .arg(string_arg("stream")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(mu_);
        std::string tag = cmd.get_text("stream");
        if (std::find(inputs_.begin(), inputs_.end(), tag) == inputs_.end())
          inputs_.push_back(tag);
        return cmdlang::make_ok();
      });
}

std::optional<util::SharedBytes> AudioMixerDaemon::on_frame_view(
    const AudioFrameView& view, const util::SharedBytes& payload) {
  std::scoped_lock lock(mu_);
  if (std::find(inputs_.begin(), inputs_.end(), view.stream) == inputs_.end())
    return std::nullopt;  // undeclared stream
  auto& slot = pending_[view.sequence];
  slot[std::string(view.stream)] = payload;  // retain the shared wire buffer
  if (slot.size() != inputs_.size()) return std::nullopt;  // still gathering
  // Codec boundary: decode every contributing frame once, straight from the
  // retained wire bytes, and serialize the mix once.
  std::vector<std::int16_t> mixed;
  double gain = 1.0 / static_cast<double>(inputs_.size());
  for (const auto& [tag, buf] : slot) {
    if (auto v = AudioFrameView::parse(buf.view()))
      mix_view_into(mixed, *v, gain);
  }
  pending_.erase(view.sequence);
  // Bound memory on lossy streams.
  while (pending_.size() > 64) pending_.erase(pending_.begin());
  return serialize_frame(output_tag_, out_sequence_++, mixed);
}

// --------------------------------------------------------- echo cancellation

EchoCancellationDaemon::EchoCancellationDaemon(
    daemon::Environment& env, daemon::DaemonHost& host,
    daemon::DaemonConfig config, std::string reference_tag,
    std::string input_tag, std::string output_tag)
    : AudioElementDaemon(env, host, std::move(config)),
      reference_tag_(std::move(reference_tag)),
      input_tag_(std::move(input_tag)),
      output_tag_(std::move(output_tag)) {
  register_command(CommandSpec("ecStats", "report echo-cancellation ERLE"),
                   [this](const CmdLine&, const CallerInfo&) {
                     CmdLine reply = cmdlang::make_ok();
                     reply.arg("erle_db", erle_db());
                     return reply;
                   });
}

double EchoCancellationDaemon::erle_db() const {
  std::scoped_lock lock(mu_);
  return canceller_.erle_db();
}

std::optional<util::SharedBytes> EchoCancellationDaemon::on_frame_view(
    const AudioFrameView& view, const util::SharedBytes& payload) {
  std::scoped_lock lock(mu_);
  if (view.stream == reference_tag_) {
    pending_reference_[view.sequence] = payload;
  } else if (view.stream == input_tag_) {
    pending_input_[view.sequence] = payload;
  } else {
    return std::nullopt;
  }
  std::optional<util::SharedBytes> ready;
  // Process every sequence for which both halves have arrived, in order.
  while (!pending_input_.empty()) {
    auto in_it = pending_input_.begin();
    auto ref_it = pending_reference_.find(in_it->first);
    if (ref_it == pending_reference_.end()) break;
    auto ref = AudioFrameView::parse(ref_it->second.view());
    auto in = AudioFrameView::parse(in_it->second.view());
    if (ref && in) {
      // Codec boundary: the adaptive filter needs decoded samples.
      std::vector<std::int16_t> out =
          canceller_.process(ref->samples(), in->samples());
      ready = serialize_frame(output_tag_, in_it->first, out);
    }
    pending_reference_.erase(ref_it);
    pending_input_.erase(in_it);
    break;  // forward one per incoming frame; loop resumes on next arrival
  }
  while (pending_reference_.size() > 64)
    pending_reference_.erase(pending_reference_.begin());
  while (pending_input_.size() > 64)
    pending_input_.erase(pending_input_.begin());
  return ready;
}

// -------------------------------------------------------------------- play

AudioPlayDaemon::AudioPlayDaemon(daemon::Environment& env,
                                 daemon::DaemonHost& host,
                                 daemon::DaemonConfig config)
    : AudioElementDaemon(env, host, std::move(config)) {
  register_command(CommandSpec("playStats", "report playback statistics"),
                   [this](const CmdLine&, const CallerInfo&) {
                     CmdLine reply = cmdlang::make_ok();
                     std::vector<std::int16_t> window = played();
                     std::scoped_lock lock(mu_);
                     reply.arg("frames",
                               static_cast<std::int64_t>(frames_));
                     reply.arg("level_db", rms_db(window));
                     return reply;
                   });
}

std::optional<util::SharedBytes> AudioPlayDaemon::on_frame_view(
    const AudioFrameView& view, const util::SharedBytes& payload) {
  {
    std::scoped_lock lock(mu_);
    // Retain a view of the wire buffer — no sample is copied until someone
    // asks for played(). Evict beyond the window.
    ring_.push_back(payload);
    ring_samples_ += view.sample_count;
    while (ring_samples_ > window_samples_ && ring_.size() > 1) {
      auto front = AudioFrameView::parse(ring_.front().view());
      ring_samples_ -= front ? front->sample_count : 0;
      ring_.pop_front();
    }
    frames_++;
    last_payload_ = payload;
  }
  return payload;  // a speaker can still feed monitors (e.g. echo reference)
}

std::vector<std::int16_t> AudioPlayDaemon::played() const {
  std::scoped_lock lock(mu_);
  std::vector<std::int16_t> out;
  out.reserve(ring_samples_);
  for (const util::SharedBytes& buf : ring_)
    if (auto v = AudioFrameView::parse(buf.view())) v->append_samples(out);
  return out;
}

std::uint64_t AudioPlayDaemon::frames_played() const {
  std::scoped_lock lock(mu_);
  return frames_;
}

void AudioPlayDaemon::set_window(std::size_t samples) {
  std::scoped_lock lock(mu_);
  window_samples_ = samples;
  while (ring_samples_ > window_samples_ && ring_.size() > 1) {
    auto front = AudioFrameView::parse(ring_.front().view());
    ring_samples_ -= front ? front->sample_count : 0;
    ring_.pop_front();
  }
}

util::SharedBytes AudioPlayDaemon::last_payload() const {
  std::scoped_lock lock(mu_);
  return last_payload_;
}

// ----------------------------------------------------------------- recorder

AudioRecorderDaemon::AudioRecorderDaemon(daemon::Environment& env,
                                         daemon::DaemonHost& host,
                                         daemon::DaemonConfig config)
    : AudioElementDaemon(env, host, std::move(config)) {
  register_command(
      CommandSpec("recStats", "report recording statistics")
          .arg(string_arg("stream")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::scoped_lock lock(mu_);
        auto it = recordings_.find(cmd.get_text("stream"));
        std::int64_t n = it == recordings_.end()
                             ? 0
                             : static_cast<std::int64_t>(it->second.samples);
        reply.arg("samples", n);
        return reply;
      });
}

std::optional<util::SharedBytes> AudioRecorderDaemon::on_frame_view(
    const AudioFrameView& view, const util::SharedBytes& payload) {
  std::scoped_lock lock(mu_);
  Ring& rec = recordings_[std::string(view.stream)];
  rec.frames.push_back(payload);  // shared view; decode happens on readout
  rec.samples += view.sample_count;
  while (rec.samples > window_samples_ && rec.frames.size() > 1) {
    auto front = AudioFrameView::parse(rec.frames.front().view());
    rec.samples -= front ? front->sample_count : 0;
    rec.frames.pop_front();
  }
  return std::nullopt;  // recorders are terminal
}

std::vector<std::int16_t> AudioRecorderDaemon::recorded(
    const std::string& stream) const {
  std::scoped_lock lock(mu_);
  auto it = recordings_.find(stream);
  if (it == recordings_.end()) return {};
  std::vector<std::int16_t> out;
  out.reserve(it->second.samples);
  for (const util::SharedBytes& buf : it->second.frames)
    if (auto v = AudioFrameView::parse(buf.view())) v->append_samples(out);
  return out;
}

void AudioRecorderDaemon::set_window(std::size_t samples) {
  std::scoped_lock lock(mu_);
  window_samples_ = samples;
  for (auto& [tag, rec] : recordings_) {
    while (rec.samples > window_samples_ && rec.frames.size() > 1) {
      auto front = AudioFrameView::parse(rec.frames.front().view());
      rec.samples -= front ? front->sample_count : 0;
      rec.frames.pop_front();
    }
  }
}

// ----------------------------------------------------------- text-to-speech

TextToSpeechDaemon::TextToSpeechDaemon(daemon::Environment& env,
                                       daemon::DaemonHost& host,
                                       daemon::DaemonConfig config,
                                       std::string stream_tag)
    : AudioElementDaemon(env, host, std::move(config)),
      stream_tag_(std::move(stream_tag)) {
  register_command(
      CommandSpec("say", "synthesize `text` into the output stream")
          .arg(string_arg("text")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::vector<std::int16_t> audio = dtmf_encode(cmd.get_text("text"));
        std::scoped_lock lock(mu_);
        std::size_t offset = 0;
        std::int64_t frames = 0;
        std::vector<std::int16_t> frame(kFrameSamples);
        while (offset < audio.size()) {
          std::size_t take = std::min(kFrameSamples, audio.size() - offset);
          std::copy(audio.begin() + offset, audio.begin() + offset + take,
                    frame.begin());
          std::fill(frame.begin() + take, frame.end(), 0);
          offset += take;
          emit_frame(stream_tag_, sequence_++, frame);
          frames++;
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("frames", frames);
        return reply;
      });
}

// -------------------------------------------------------- speech-to-command

SpeechToCommandDaemon::SpeechToCommandDaemon(daemon::Environment& env,
                                             daemon::DaemonHost& host,
                                             daemon::DaemonConfig config)
    : AudioElementDaemon(env, host, std::move(config)) {
  register_command(
      CommandSpec("stcSetTarget",
                  "service that decoded voice commands are executed on")
          .arg(string_arg("service")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto addr = net::Address::parse(cmd.get_text("service"));
        if (!addr)
          return cmdlang::make_error(util::Errc::invalid,
                                     "service must be host:port");
        std::scoped_lock lock(mu_);
        target_ = *addr;
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("stcFlush",
                  "decode the accumulated audio of `stream` as a command")
          .arg(string_arg("stream")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::vector<std::int16_t> audio;
        net::Address target;
        {
          std::scoped_lock lock(mu_);
          auto it = buffers_.find(cmd.get_text("stream"));
          if (it == buffers_.end() || it->second.empty())
            return cmdlang::make_error(util::Errc::not_found,
                                       "no audio buffered for stream");
          // Trim trailing zero padding introduced by frame alignment.
          audio = std::move(it->second);
          buffers_.erase(it);
          while (!audio.empty() && audio.back() == 0) audio.pop_back();
          std::size_t stride = kDtmfSymbolSamples + kDtmfGapSamples;
          audio.resize(((audio.size() + stride - 1) / stride) * stride, 0);
          target = target_;
        }
        auto text = dtmf_decode(audio);
        if (!text)
          return cmdlang::make_error(util::Errc::parse_error,
                                     "could not decode tone sequence");
        auto parsed = cmdlang::Parser::parse(*text);
        if (!parsed.ok())
          return cmdlang::make_error(util::Errc::parse_error,
                                     "decoded text is not a command: " +
                                         parsed.error().message);
        CmdLine event("voiceCommand");
        event.arg("text", *text);
        emit_notification(event);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("decoded", parsed->to_string());
        if (!target.host.empty()) {
          auto result = control_client().call(target, parsed.value());
          reply.arg("executed", Word{result.ok() ? "yes" : "no"});
        }
        return reply;
      });
}

std::optional<util::SharedBytes> SpeechToCommandDaemon::on_frame_view(
    const AudioFrameView& view, const util::SharedBytes& payload) {
  (void)payload;
  std::scoped_lock lock(mu_);
  view.append_samples(buffers_[std::string(view.stream)]);
  return std::nullopt;  // terminal: audio is buffered until stcFlush
}

}  // namespace ace::media
