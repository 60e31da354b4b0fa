// The Fig 15 audio pipeline services (paper §4.15): Audio Capture, Audio
// Mixer, Echo Cancellation, Audio Play, Audio Recorder, Text-to-Speech and
// Speech-to-Command — each a RoutedMediaDaemon streaming AudioFrames over
// its data channel, composable into the paper's two-site conferencing graph
// together with the Distribution service (src/services/streaming.hpp).
//
// Data-plane discipline (docs/media.md): observe stages (play metering,
// recording) work on AudioFrameView — an O(1) header decode over the shared
// wire buffer — and pass the buffer through untouched; transform stages
// (mixer, echo cancellation) decode samples once and re-serialize once, and
// the result fans out to every sink as views of a single SharedBytes.
//
// Text-to-Speech / Speech-to-Command substitution (DESIGN.md): synthesized
// "speech" is a DTMF tone sequence; the recognizer runs real Goertzel
// detection and parses the recovered text as an ACE command.
#pragma once

#include <deque>
#include <map>
#include <mutex>

#include "media/audio.hpp"
#include "media/dsp.hpp"
#include "media/router.hpp"

namespace ace::media {

// Retention window for play/recorder sample history (60 s @ 8 kHz). Bounds
// what used to be unbounded growth; see set_window().
inline constexpr std::size_t kDefaultWindowSamples = 60 * kSampleRate;

// Shared base for the Fig 15 elements: installs an "audio" ingest stage on
// the catch-all route that parses the frame header in place (no sample is
// touched) and hands the view to on_frame_view(). The audioAddSink command
// family is kept as an alias for catch-all route edits.
class AudioElementDaemon : public RoutedMediaDaemon {
 public:
  AudioElementDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config);

  // Programmatic sink management (mirrors the audioAddSink command):
  // catch-all route sinks, merged into every tagged route's fan-out.
  void add_sink(const net::Address& sink);

  std::vector<net::Address> sinks() const;

 protected:
  // Subclass hook: one audio frame arrived. `payload` is the shared wire
  // buffer the view borrows from. Return semantics are the stage contract
  // (router.hpp): same payload = observe, new buffer = transform, nullopt =
  // consumed. Default consumes.
  virtual std::optional<util::SharedBytes> on_frame_view(
      const AudioFrameView& view, const util::SharedBytes& payload) {
    (void)view;
    (void)payload;
    return std::nullopt;
  }

  // Serializes once and routes the frame by its tag (plus catch-all sinks).
  void emit_frame(std::string_view stream, std::uint32_t sequence,
                  std::span<const std::int16_t> samples);
};

// Digitizes a (synthetic) microphone signal into the pipeline (§4.15 item 7).
class AudioCaptureDaemon : public AudioElementDaemon {
 public:
  AudioCaptureDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config, std::string stream_tag);

  // Pushes raw samples as one or more frames into the pipeline.
  void capture_push(const std::vector<std::int16_t>& samples);

  const std::string& stream_tag() const { return stream_tag_; }

 private:
  std::string stream_tag_;
  std::uint32_t sequence_ = 0;
  std::mutex mu_;
};

// Combines multiple audio streams into one (§4.15 item 1). Inputs are
// declared with mixerAddInput; frames are aligned by sequence number and
// mixed — straight from the retained wire buffers — once every input has
// contributed.
class AudioMixerDaemon : public AudioElementDaemon {
 public:
  AudioMixerDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                   daemon::DaemonConfig config, std::string output_tag);

 protected:
  std::optional<util::SharedBytes> on_frame_view(
      const AudioFrameView& view, const util::SharedBytes& payload) override;

 private:
  std::string output_tag_;
  std::mutex mu_;
  std::vector<std::string> inputs_;
  // sequence → input tag → retained wire buffer (views stay parseable).
  std::map<std::uint32_t, std::map<std::string, util::SharedBytes>> pending_;
  std::uint32_t out_sequence_ = 0;
};

// Removes the far-end echo from the microphone stream (§4.15 item 3).
class EchoCancellationDaemon : public AudioElementDaemon {
 public:
  EchoCancellationDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                         daemon::DaemonConfig config,
                         std::string reference_tag, std::string input_tag,
                         std::string output_tag);

  double erle_db() const;

 protected:
  std::optional<util::SharedBytes> on_frame_view(
      const AudioFrameView& view, const util::SharedBytes& payload) override;

 private:
  std::string reference_tag_, input_tag_, output_tag_;
  mutable std::mutex mu_;
  EchoCanceller canceller_;
  std::map<std::uint32_t, util::SharedBytes> pending_reference_;
  std::map<std::uint32_t, util::SharedBytes> pending_input_;
};

// Terminal sink standing in for a speaker (§4.15 item 6). Keeps a bounded
// ring of played frames — shared views of the wire buffers, decoded only
// when played() is called.
class AudioPlayDaemon : public AudioElementDaemon {
 public:
  AudioPlayDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                  daemon::DaemonConfig config);

  std::vector<std::int16_t> played() const;
  std::uint64_t frames_played() const;

  // Retention window in samples; older frames are evicted.
  void set_window(std::size_t samples);

  // The most recent frame's wire buffer (zero-copy invariant tests).
  util::SharedBytes last_payload() const;

 protected:
  std::optional<util::SharedBytes> on_frame_view(
      const AudioFrameView& view, const util::SharedBytes& payload) override;

 private:
  mutable std::mutex mu_;
  std::deque<util::SharedBytes> ring_;
  std::size_t ring_samples_ = 0;
  std::size_t window_samples_ = kDefaultWindowSamples;
  std::uint64_t frames_ = 0;
  util::SharedBytes last_payload_;
};

// Records everything it receives, per stream, within a bounded window
// (§4.15 item 5).
class AudioRecorderDaemon : public AudioElementDaemon {
 public:
  AudioRecorderDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                      daemon::DaemonConfig config);

  std::vector<std::int16_t> recorded(const std::string& stream) const;

  // Per-stream retention window in samples; older frames are evicted.
  void set_window(std::size_t samples);

 protected:
  std::optional<util::SharedBytes> on_frame_view(
      const AudioFrameView& view, const util::SharedBytes& payload) override;

 private:
  struct Ring {
    std::deque<util::SharedBytes> frames;
    std::size_t samples = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Ring> recordings_;
  std::size_t window_samples_ = kDefaultWindowSamples;
};

// Converts text into an audible signal (§4.15 item 2).
class TextToSpeechDaemon : public AudioElementDaemon {
 public:
  TextToSpeechDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config, std::string stream_tag);

 private:
  std::string stream_tag_;
  std::uint32_t sequence_ = 0;
  std::mutex mu_;
};

// Analyses the audio for voice commands and converts them into ACE service
// commands (§4.15 item 8). Decoded commands are executed against the
// configured target service; every decode also fires a `voiceCommand`
// notification.
class SpeechToCommandDaemon : public AudioElementDaemon {
 public:
  SpeechToCommandDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                        daemon::DaemonConfig config);

 protected:
  std::optional<util::SharedBytes> on_frame_view(
      const AudioFrameView& view, const util::SharedBytes& payload) override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::int16_t>> buffers_;
  net::Address target_;
};

}  // namespace ace::media
