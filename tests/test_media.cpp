// Tests for the media substrate and the §4.15 audio pipeline services:
// ADPCM and RLE-video codecs, DTMF/Goertzel voice-command path, NLMS echo
// cancellation, and the capture->mix->play daemon graph.
#include <gtest/gtest.h>

#include <cmath>

#include "ace_test_env.hpp"
#include "daemon/devices.hpp"
#include "media/audio.hpp"
#include "media/audio_services.hpp"
#include "media/codec.hpp"
#include "media/dsp.hpp"
#include "services/streaming.hpp"

using namespace ace;
using namespace ace::media;
using namespace std::chrono_literals;
using cmdlang::CmdLine;

// ------------------------------------------------------------- audio frame

TEST(AudioFrame, SerializeParseRoundTrip) {
  AudioFrame f;
  f.stream = "mic-hawk";
  f.sequence = 42;
  f.samples = sine_wave(440, 10000, kFrameSamples, 0);
  auto parsed = AudioFrame::parse(f.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stream, f.stream);
  EXPECT_EQ(parsed->sequence, f.sequence);
  EXPECT_EQ(parsed->samples, f.samples);
}

TEST(AudioFrame, ParseRejectsTruncated) {
  AudioFrame f;
  f.stream = "x";
  f.samples.assign(kFrameSamples, 100);
  auto wire = f.serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(AudioFrame::parse(wire).has_value());
}

TEST(AudioHelpers, MixSaturates) {
  std::vector<std::int16_t> acc(4, 30000);
  std::vector<std::int16_t> add(4, 30000);
  mix_into(acc, add, 1.0);
  for (auto s : acc) EXPECT_EQ(s, 32767);
}

TEST(AudioHelpers, RmsDbOfSilenceIsFloor) {
  std::vector<std::int16_t> silence(100, 0);
  EXPECT_DOUBLE_EQ(rms_db(silence), -120.0);
  EXPECT_GT(rms_db(sine_wave(440, 20000, 800, 0)), -10.0);
}

// ------------------------------------------------------------------- ADPCM

TEST(Adpcm, CompressesFourToOne) {
  auto pcm = sine_wave(440, 12000, 1600, 0);
  AdpcmState enc;
  auto encoded = adpcm_encode(pcm, enc);
  EXPECT_EQ(encoded.size(), pcm.size() / 2);  // 4 bits per 16-bit sample
}

TEST(Adpcm, ReconstructionSnrIsUsable) {
  auto pcm = sine_wave(440, 12000, 8000, 0);
  AdpcmState enc, dec;
  auto decoded = adpcm_decode(adpcm_encode(pcm, enc), pcm.size(), dec);
  ASSERT_EQ(decoded.size(), pcm.size());
  double signal = 0, noise = 0;
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    signal += static_cast<double>(pcm[i]) * pcm[i];
    double e = static_cast<double>(pcm[i]) - decoded[i];
    noise += e * e;
  }
  double snr_db = 10.0 * std::log10(signal / (noise + 1e-9));
  EXPECT_GT(snr_db, 20.0);  // telephony-grade
}

TEST(Adpcm, StreamingStateMatchesOneShot) {
  auto pcm = sine_wave(300, 9000, 960, 0);
  AdpcmState enc1, dec1;
  auto one_shot = adpcm_decode(adpcm_encode(pcm, enc1), pcm.size(), dec1);

  AdpcmState enc2, dec2;
  std::vector<std::int16_t> chunked;
  for (std::size_t off = 0; off < pcm.size(); off += kFrameSamples) {
    std::vector<std::int16_t> chunk(pcm.begin() + off,
                                    pcm.begin() + off + kFrameSamples);
    auto part = adpcm_decode(adpcm_encode(chunk, enc2), chunk.size(), dec2);
    chunked.insert(chunked.end(), part.begin(), part.end());
  }
  EXPECT_EQ(one_shot, chunked);  // state carries across frame boundaries
}

// --------------------------------------------------------------- RLE video

TEST(RleVideo, IntraFrameRoundTrip) {
  VideoFrame f = synthetic_frame(64, 48, 0);
  auto encoded = rle_video_encode(f, nullptr);
  auto decoded = rle_video_decode(encoded, nullptr);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pixels, f.pixels);
}

TEST(RleVideo, InterFrameRoundTripAndCompression) {
  VideoFrame f0 = synthetic_frame(64, 48, 0);
  VideoFrame f1 = synthetic_frame(64, 48, 1);
  auto intra = rle_video_encode(f1, nullptr);
  auto inter = rle_video_encode(f1, &f0);
  // Static background delta-codes to zero runs: inter beats intra.
  EXPECT_LT(inter.size(), intra.size());
  auto decoded = rle_video_decode(inter, &f0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pixels, f1.pixels);
}

TEST(RleVideo, DecodeRejectsGarbage) {
  util::Bytes garbage{1, 2, 3};
  EXPECT_FALSE(rle_video_decode(garbage, nullptr).has_value());
}

// ------------------------------------------------------------ DTMF/Goertzel

TEST(Dtmf, EncodeDecodeRoundTrip) {
  for (const char* text :
       {"a", "deviceOn;", "ptzMove pan=10 tilt=5;", "hello world 123"}) {
    auto audio = dtmf_encode(text);
    auto decoded = dtmf_decode(audio);
    ASSERT_TRUE(decoded.has_value()) << text;
    EXPECT_EQ(*decoded, text);
  }
}

TEST(Dtmf, DecodeSurvivesAdditiveNoise) {
  auto audio = dtmf_encode("projSetInput input=vga;");
  util::Rng rng(3);
  for (auto& s : audio) {
    double noisy = s + rng.next_gaussian() * 300.0;
    s = static_cast<std::int16_t>(std::clamp(noisy, -32767.0, 32767.0));
  }
  auto decoded = dtmf_decode(audio);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, "projSetInput input=vga;");
}

TEST(Dtmf, GarbageAudioRejected) {
  auto noise = sine_wave(523, 9000, 6 * (kDtmfSymbolSamples + kDtmfGapSamples),
                         0);
  EXPECT_FALSE(dtmf_decode(noise).has_value());
}

TEST(Goertzel, DetectsTargetFrequency) {
  auto tone = sine_wave(770, 10000, 400, 0);
  double at_target = goertzel_power(tone, 0, 200, 770, kSampleRate);
  double off_target = goertzel_power(tone, 0, 200, 1336, kSampleRate);
  EXPECT_GT(at_target, 100.0 * off_target);
}

// -------------------------------------------------------------------- NLMS

TEST(EchoCanceller, ConvergesOnDelayedEcho) {
  EchoCanceller ec(64, 0.6);
  util::Rng rng(17);
  constexpr std::size_t kDelay = 23;
  constexpr double kEchoGain = 0.6;
  std::vector<std::int16_t> far(8000);
  for (auto& s : far)
    s = static_cast<std::int16_t>(rng.next_gaussian() * 6000.0);

  // Mic hears only the delayed, attenuated far-end (no near speech).
  std::vector<std::int16_t> mic(far.size(), 0);
  for (std::size_t i = kDelay; i < far.size(); ++i)
    mic[i] = static_cast<std::int16_t>(kEchoGain * far[i - kDelay]);

  // Feed in frames; after convergence the residual should be tiny.
  for (std::size_t off = 0; off + kFrameSamples <= far.size();
       off += kFrameSamples) {
    std::vector<std::int16_t> fr(far.begin() + off,
                                 far.begin() + off + kFrameSamples);
    std::vector<std::int16_t> mr(mic.begin() + off,
                                 mic.begin() + off + kFrameSamples);
    ec.process(fr, mr);
  }
  EXPECT_GT(ec.erle_db(), 10.0);

  // Steady state: a fresh block is almost fully cancelled.
  std::vector<std::int16_t> fr(far.begin(), far.begin() + kFrameSamples);
  std::vector<std::int16_t> mr(mic.begin(), mic.begin() + kFrameSamples);
  auto out = ec.process(fr, mr);
  EXPECT_LT(rms(out), rms(mr) * 0.7);
}

TEST(EchoCanceller, PreservesNearEndSpeech) {
  EchoCanceller ec(64, 0.5);
  util::Rng rng(19);
  std::vector<std::int16_t> far(4000), near(4000);
  for (auto& s : far)
    s = static_cast<std::int16_t>(rng.next_gaussian() * 5000.0);
  auto speech = sine_wave(250, 6000, near.size(), 0);
  std::vector<std::int16_t> mic(near.size());
  for (std::size_t i = 0; i < mic.size(); ++i) {
    double echo = i >= 10 ? 0.5 * far[i - 10] : 0.0;
    mic[i] = static_cast<std::int16_t>(
        std::clamp(echo + speech[i], -32767.0, 32767.0));
  }
  std::vector<std::int16_t> out_all;
  for (std::size_t off = 0; off + kFrameSamples <= mic.size();
       off += kFrameSamples) {
    std::vector<std::int16_t> fr(far.begin() + off,
                                 far.begin() + off + kFrameSamples);
    std::vector<std::int16_t> mr(mic.begin() + off,
                                 mic.begin() + off + kFrameSamples);
    auto out = ec.process(fr, mr);
    out_all.insert(out_all.end(), out.begin(), out.end());
  }
  // The near-end tone must survive: residual power is dominated by it.
  std::vector<std::int16_t> tail(out_all.end() - 800, out_all.end());
  double tone_power = goertzel_power(tail, 0, 800, 250, kSampleRate);
  double other_power = goertzel_power(tail, 0, 800, 900, kSampleRate);
  EXPECT_GT(tone_power, 5.0 * other_power);
}

// --------------------------------------------------------- pipeline daemons

class AudioPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    host_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "av-box");
    client_ = deployment_->make_client("laptop", "user/tester");
  }

  daemon::DaemonConfig config(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "hawk";
    return c;
  }

  template <typename T>
  static bool wait_until(T predicate, std::chrono::milliseconds timeout) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(10ms);
    }
    return predicate();
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::DaemonHost> host_;
  std::unique_ptr<daemon::AceClient> client_;
};

TEST_F(AudioPipelineTest, CaptureStreamsToPlay) {
  auto& capture = host_->add_daemon<media::AudioCaptureDaemon>(
      config("cap"), "mic1");
  auto& play = host_->add_daemon<media::AudioPlayDaemon>(config("spk"));
  ASSERT_TRUE(capture.start().ok());
  ASSERT_TRUE(play.start().ok());
  capture.add_sink(play.data_address());

  CmdLine gen("captureGenerate");
  gen.arg("frames", 10);
  gen.arg("frequency", 440.0);
  ASSERT_TRUE(client_->call(capture.address(), gen, daemon::kCallOk).ok());

  ASSERT_TRUE(wait_until([&] { return play.frames_played() >= 10; }, 2s));
  EXPECT_GT(rms(play.played()), 1000.0);
}

TEST_F(AudioPipelineTest, MixerCombinesDeclaredInputs) {
  auto& cap_a = host_->add_daemon<media::AudioCaptureDaemon>(
      config("cap-a"), "micA");
  auto& cap_b = host_->add_daemon<media::AudioCaptureDaemon>(
      config("cap-b"), "micB");
  auto& mixer = host_->add_daemon<media::AudioMixerDaemon>(
      config("mix"), "mixed");
  auto& recorder =
      host_->add_daemon<media::AudioRecorderDaemon>(config("rec"));
  ASSERT_TRUE(cap_a.start().ok());
  ASSERT_TRUE(cap_b.start().ok());
  ASSERT_TRUE(mixer.start().ok());
  ASSERT_TRUE(recorder.start().ok());

  cap_a.add_sink(mixer.data_address());
  cap_b.add_sink(mixer.data_address());
  mixer.add_sink(recorder.data_address());
  for (const char* tag : {"micA", "micB"}) {
    CmdLine add("mixerAddInput");
    add.arg("stream", tag);
    ASSERT_TRUE(client_->call(mixer.address(), add, daemon::kCallOk).ok());
  }

  cap_a.capture_push(sine_wave(440, 8000, 5 * kFrameSamples, 0));
  cap_b.capture_push(sine_wave(880, 8000, 5 * kFrameSamples, 0));

  ASSERT_TRUE(wait_until(
      [&] { return recorder.recorded("mixed").size() >= 5 * kFrameSamples; },
      2s));
  auto mixed = recorder.recorded("mixed");
  // Both tones present in the mix.
  double p440 = goertzel_power(mixed, 0, 400, 440, kSampleRate);
  double p880 = goertzel_power(mixed, 0, 400, 880, kSampleRate);
  double p660 = goertzel_power(mixed, 0, 400, 660, kSampleRate);
  EXPECT_GT(p440, 10.0 * p660);
  EXPECT_GT(p880, 10.0 * p660);
}

TEST_F(AudioPipelineTest, SpeechToCommandExecutesDecodedCommand) {
  // Fig 15's right edge: text-to-speech -> (audio) -> speech-to-command ->
  // ACE command execution on a target service.
  auto& tts = host_->add_daemon<media::TextToSpeechDaemon>(
      config("tts"), "voice");
  auto& stc =
      host_->add_daemon<media::SpeechToCommandDaemon>(config("stc"));
  auto& camera = host_->add_daemon<daemon::PtzCameraDaemon>(
      config("cam"), daemon::vcc4_spec());
  ASSERT_TRUE(tts.start().ok());
  ASSERT_TRUE(stc.start().ok());
  ASSERT_TRUE(camera.start().ok());
  tts.add_sink(stc.data_address());

  CmdLine target("stcSetTarget");
  target.arg("service", camera.address().to_string());
  ASSERT_TRUE(client_->call(stc.address(), target, daemon::kCallOk).ok());

  CmdLine say("say");
  say.arg("text", "deviceOn;");
  auto said = client_->call(tts.address(), say, daemon::kCallOk);
  ASSERT_TRUE(said.ok());
  std::int64_t frames = said->get_integer("frames");

  // stc is the only daemon receiving datagrams in this deployment.
  auto& datagrams = deployment_->env.metrics().counter("daemon.data.datagrams");
  ASSERT_TRUE(wait_until(
      [&] { return datagrams.value() >= static_cast<std::uint64_t>(frames); },
      2s));

  CmdLine flush("stcFlush");
  flush.arg("stream", "voice");
  auto r = client_->call(stc.address(), flush, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("decoded"), "deviceOn;");
  EXPECT_EQ(r->get_text("executed"), "yes");
  EXPECT_TRUE(camera.powered());
}

TEST_F(AudioPipelineTest, EchoCancellationDaemonImprovesErle) {
  auto& ec = host_->add_daemon<media::EchoCancellationDaemon>(
      config("ec"), "farend", "mic", "clean");
  auto& recorder =
      host_->add_daemon<media::AudioRecorderDaemon>(config("rec"));
  ASSERT_TRUE(ec.start().ok());
  ASSERT_TRUE(recorder.start().ok());
  ec.add_sink(recorder.data_address());

  // Far-end reference and mic-with-echo streams, aligned by sequence.
  util::Rng rng(23);
  auto socket = host_->net_host().open_datagram();
  ASSERT_TRUE(socket.ok());
  std::vector<std::int16_t> delay_line(40, 0);
  for (std::uint32_t seq = 0; seq < 50; ++seq) {
    AudioFrame far;
    far.stream = "farend";
    far.sequence = seq;
    far.samples.resize(kFrameSamples);
    for (auto& s : far.samples)
      s = static_cast<std::int16_t>(rng.next_gaussian() * 5000.0);

    AudioFrame mic;
    mic.stream = "mic";
    mic.sequence = seq;
    mic.samples.resize(kFrameSamples);
    for (std::size_t i = 0; i < kFrameSamples; ++i) {
      delay_line.push_back(far.samples[i]);
      mic.samples[i] = static_cast<std::int16_t>(0.5 * delay_line.front());
      delay_line.erase(delay_line.begin());
    }
    ASSERT_TRUE(
        (*socket)->send_to(ec.data_address(), far.serialize()).ok());
    ASSERT_TRUE(
        (*socket)->send_to(ec.data_address(), mic.serialize()).ok());
  }

  ASSERT_TRUE(wait_until(
      [&] { return recorder.recorded("clean").size() >= 49 * kFrameSamples; },
      3s));
  EXPECT_GT(ec.erle_db(), 6.0);
}

// --------------------------------------------- zero-copy frames and routing

TEST(AudioFrameView, MatchesFullParse) {
  AudioFrame f;
  f.stream = "mic-hawk";
  f.sequence = 7;
  f.samples = sine_wave(440, 9000, kFrameSamples, 3);
  auto wire = f.serialize();
  auto view = AudioFrameView::parse(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->stream, f.stream);
  EXPECT_EQ(view->sequence, f.sequence);
  ASSERT_EQ(view->sample_count, f.samples.size());
  EXPECT_EQ(view->samples(), f.samples);
  // The view points into the wire buffer — no sample was copied to parse.
  EXPECT_GE(view->sample_data, wire.data());
  EXPECT_LT(view->sample_data, wire.data() + wire.size());
}

TEST(AudioFrameView, RejectsTruncated) {
  AudioFrame f;
  f.stream = "x";
  f.samples.assign(kFrameSamples, 100);
  auto wire = f.serialize();
  for (std::size_t cut : {std::size_t{2}, wire.size() / 2, wire.size() - 1}) {
    util::Bytes t(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(AudioFrameView::parse(t).has_value()) << cut;
  }
}

TEST(AudioFrameView, SerializeFrameMatchesAudioFrame) {
  AudioFrame f;
  f.stream = "s";
  f.sequence = 3;
  f.samples = sine_wave(880, 5000, kFrameSamples, 0);
  util::SharedBytes shared = serialize_frame(f.stream, f.sequence, f.samples);
  EXPECT_EQ(shared.to_bytes(), f.serialize());
}

TEST(SharedBytesTest, SlicesShareOneOwner) {
  util::SharedBytes a(util::Bytes{1, 2, 3, 4, 5});
  util::SharedBytes b = a;
  util::SharedBytes c = a.slice(1, 3);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(c.data(), a.data() + 1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.to_bytes(), c.to_bytes());
}

TEST(FrameRouterTest, StagesResolveAtInstallTime) {
  FrameRouter router;
  router.register_stage("upper", [](std::string_view,
                                    const util::SharedBytes& p) {
    return std::optional<util::SharedBytes>(p);
  });
  EXPECT_TRUE(router.set_stages("a", {"upper"}).ok());
  auto status = router.set_stages("a", {"upper", "missing"});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Errc::not_found);
  // The failed install did not clobber the previous route.
  auto route = router.lookup("a");
  ASSERT_TRUE(route);
  EXPECT_EQ(route->stage_names, std::vector<std::string>{"upper"});
}

TEST(FrameRouterTest, LookupSnapshotSurvivesMutation) {
  FrameRouter router;
  net::Address s1{"h1", 1}, s2{"h2", 2};
  router.add_sink("tag", s1);
  auto before = router.lookup("tag");
  router.add_sink("tag", s2);
  router.remove_sink("tag", s1);
  // The earlier snapshot is immutable; the table moved on.
  ASSERT_TRUE(before);
  EXPECT_EQ(before->sinks, std::vector<net::Address>{s1});
  auto after = router.lookup("tag");
  ASSERT_TRUE(after);
  EXPECT_EQ(after->sinks, std::vector<net::Address>{s2});
}

TEST(FrameRouterTest, RemoveSinkAndRoute) {
  FrameRouter router;
  net::Address s1{"h1", 1};
  EXPECT_FALSE(router.remove_sink("tag", s1));
  router.add_sink("tag", s1);
  router.add_sink("tag", s1);  // idempotent
  ASSERT_TRUE(router.lookup("tag"));
  EXPECT_EQ(router.lookup("tag")->sinks.size(), 1u);
  EXPECT_TRUE(router.remove_sink("tag", s1));
  EXPECT_TRUE(router.lookup("tag"));  // route survives with no sinks
  EXPECT_TRUE(router.remove_route("tag"));
  EXPECT_FALSE(router.lookup("tag"));
  EXPECT_FALSE(router.remove_route("tag"));
}

TEST(FrameRouterTest, PeekTagReadsOnlyTheHeader) {
  AudioFrame f;
  f.stream = "room-hawk-mic";
  f.samples.assign(kFrameSamples, 5);
  auto wire = f.serialize();
  auto tag = peek_tag(wire);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(*tag, "room-hawk-mic");
  EXPECT_FALSE(peek_tag(util::Bytes{1, 2}).has_value());
  EXPECT_FALSE(peek_tag(util::Bytes{255, 0, 0, 0, 'x'}).has_value());
}

TEST_F(AudioPipelineTest, RouteCommandsDriveTheTable) {
  auto& dist =
      host_->add_daemon<services::DistributionDaemon>(config("dist"));
  auto& play = host_->add_daemon<media::AudioPlayDaemon>(config("spk"));
  ASSERT_TRUE(dist.start().ok());
  ASSERT_TRUE(play.start().ok());

  CmdLine add("routeAdd");
  add.arg("stream", "mic1");
  add.arg("dest", play.data_address().to_string());
  ASSERT_TRUE(client_->call(dist.address(), add, daemon::kCallOk).ok());

  CmdLine table("routeTable");
  auto reply = client_->call(dist.address(), table, daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
  auto routes = reply->get_vector("routes");
  ASSERT_TRUE(routes.has_value());
  ASSERT_EQ(routes->elements.size(), 1u);
  EXPECT_EQ(routes->elements[0].as_text(),
            "mic1 stages= sinks=" + play.data_address().to_string());

  // Frames tagged mic1 now reach the play daemon through the route.
  auto socket = host_->net_host().open_datagram();
  ASSERT_TRUE(socket.ok());
  AudioFrame f;
  f.stream = "mic1";
  f.samples = sine_wave(440, 8000, kFrameSamples, 0);
  ASSERT_TRUE((*socket)->send_to(dist.data_address(), f.serialize()).ok());
  ASSERT_TRUE(wait_until([&] { return play.frames_played() >= 1; }, 2s));

  // routeRemove retires the sink; removing again reports not_found.
  CmdLine rm("routeRemove");
  rm.arg("stream", "mic1");
  rm.arg("dest", play.data_address().to_string());
  ASSERT_TRUE(client_->call(dist.address(), rm, daemon::kCallOk).ok());
  auto again = client_->call(dist.address(), rm, daemon::kCallOk);
  ASSERT_FALSE(again.ok());
}

TEST_F(AudioPipelineTest, RouteAddRejectsUnknownStage) {
  auto& play = host_->add_daemon<media::AudioPlayDaemon>(config("spk"));
  ASSERT_TRUE(play.start().ok());
  CmdLine add("routeAdd");
  add.arg("stream", "mic1");
  add.arg("stages", cmdlang::string_vector({"audio", "nonsense"}));
  auto r = client_->call(play.address(), add, daemon::kCallOk);
  ASSERT_FALSE(r.ok());
}

TEST_F(AudioPipelineTest, FanOutSharesOnePayloadBuffer) {
  // The zero-copy invariant: capture -> Distribution -> two players moves
  // exactly one buffer; every receiver aliases the captured bytes and the
  // data plane reports zero payload copies.
  auto& capture = host_->add_daemon<media::AudioCaptureDaemon>(
      config("cap"), "mic1");
  auto& dist =
      host_->add_daemon<services::DistributionDaemon>(config("dist"));
  auto& play_a = host_->add_daemon<media::AudioPlayDaemon>(config("spk-a"));
  auto& play_b = host_->add_daemon<media::AudioPlayDaemon>(config("spk-b"));
  ASSERT_TRUE(capture.start().ok());
  ASSERT_TRUE(dist.start().ok());
  ASSERT_TRUE(play_a.start().ok());
  ASSERT_TRUE(play_b.start().ok());

  capture.add_sink(dist.data_address());
  for (auto* p : {&play_a, &play_b}) {
    CmdLine add("distAddSink");
    add.arg("stream", "mic1");
    add.arg("dest", p->data_address().to_string());
    ASSERT_TRUE(client_->call(dist.address(), add, daemon::kCallOk).ok());
  }

  capture.capture_push(sine_wave(440, 8000, kFrameSamples, 0));
  ASSERT_TRUE(wait_until(
      [&] {
        return play_a.frames_played() >= 1 && play_b.frames_played() >= 1;
      },
      2s));

  // Both players hold views of the very same buffer the capture serialized.
  EXPECT_EQ(play_a.last_payload().data(), play_b.last_payload().data());
  EXPECT_EQ(play_a.last_payload(), play_b.last_payload());
  EXPECT_EQ(
      deployment_->env.metrics().snapshot().counter_value("media.bytes_copied"), 0u);
  EXPECT_GE(
      deployment_->env.metrics().snapshot().counter_value("media.frames_routed"), 2u);
}

TEST_F(AudioPipelineTest, PlayAndRecorderWindowsBoundMemory) {
  auto& play = host_->add_daemon<media::AudioPlayDaemon>(config("spk"));
  auto& rec = host_->add_daemon<media::AudioRecorderDaemon>(config("rec"));
  ASSERT_TRUE(play.start().ok());
  ASSERT_TRUE(rec.start().ok());
  play.set_window(2 * kFrameSamples);
  rec.set_window(3 * kFrameSamples);

  auto socket = host_->net_host().open_datagram();
  ASSERT_TRUE(socket.ok());
  for (std::uint32_t seq = 0; seq < 6; ++seq) {
    AudioFrame f;
    f.stream = "mic1";
    f.sequence = seq;
    f.samples.assign(kFrameSamples, static_cast<std::int16_t>(seq + 1));
    ASSERT_TRUE((*socket)->send_to(play.data_address(), f.serialize()).ok());
    ASSERT_TRUE((*socket)->send_to(rec.data_address(), f.serialize()).ok());
  }
  ASSERT_TRUE(wait_until([&] { return play.frames_played() >= 6; }, 2s));
  // play and rec each receive all six frames.
  auto& datagrams = deployment_->env.metrics().counter("daemon.data.datagrams");
  ASSERT_TRUE(wait_until([&] { return datagrams.value() >= 12; }, 2s));

  // Retention is capped but the frame counter keeps the full history.
  EXPECT_EQ(play.frames_played(), 6u);
  auto played = play.played();
  ASSERT_EQ(played.size(), 2 * kFrameSamples);
  EXPECT_EQ(played.front(), 5);  // oldest retained frame is seq 4
  EXPECT_EQ(played.back(), 6);
  auto recorded = rec.recorded("mic1");
  EXPECT_EQ(recorded.front(), 4);
  EXPECT_EQ(recorded.back(), 6);
}

TEST_F(AudioPipelineTest, RoutedPipelineMatchesDirectDspGoldenModel) {
  // Old-vs-new parity for the Fig 15 conference graph: two mics -> mixer
  // ("farend") -> echo canceller (with a "mic" stream) -> play. The daemon
  // pipeline must produce bit-identical samples — and the same ERLE — as
  // running the DSP directly on the same frames, proving the zero-copy
  // rework changed the transport, not the audio.
  constexpr std::size_t kFrames = 20;
  auto& cap_a = host_->add_daemon<media::AudioCaptureDaemon>(
      config("cap-a"), "micA");
  auto& cap_b = host_->add_daemon<media::AudioCaptureDaemon>(
      config("cap-b"), "micB");
  auto& mixer = host_->add_daemon<media::AudioMixerDaemon>(
      config("mix"), "farend");
  auto& ec = host_->add_daemon<media::EchoCancellationDaemon>(
      config("ec"), "farend", "mic", "clean");
  auto& play = host_->add_daemon<media::AudioPlayDaemon>(config("spk"));
  for (auto* d : std::initializer_list<daemon::ServiceDaemon*>{
           &cap_a, &cap_b, &mixer, &ec, &play})
    ASSERT_TRUE(d->start().ok());

  cap_a.add_sink(mixer.data_address());
  cap_b.add_sink(mixer.data_address());
  mixer.add_sink(ec.data_address());
  ec.add_sink(play.data_address());
  for (const char* tag : {"micA", "micB"}) {
    CmdLine add("mixerAddInput");
    add.arg("stream", tag);
    ASSERT_TRUE(client_->call(mixer.address(), add, daemon::kCallOk).ok());
  }

  auto tone_a = sine_wave(440, 8000, kFrames * kFrameSamples, 0);
  auto tone_b = sine_wave(660, 7000, kFrames * kFrameSamples, 0);
  auto near = sine_wave(250, 6000, kFrames * kFrameSamples, 0);

  // "mic" frames arrive from a raw socket, sequence-aligned with the mix.
  auto socket = host_->net_host().open_datagram();
  ASSERT_TRUE(socket.ok());
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    AudioFrame mic;
    mic.stream = "mic";
    mic.sequence = seq;
    mic.samples.assign(near.begin() + seq * kFrameSamples,
                       near.begin() + (seq + 1) * kFrameSamples);
    ASSERT_TRUE((*socket)->send_to(ec.data_address(), mic.serialize()).ok());
  }
  cap_a.capture_push(tone_a);
  cap_b.capture_push(tone_b);

  ASSERT_TRUE(wait_until([&] { return play.frames_played() >= kFrames; }, 3s));

  // Golden model: identical DSP, no daemons, no network.
  EchoCanceller golden_ec;
  std::vector<std::int16_t> golden_out;
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    std::vector<std::int16_t> mixed;
    std::vector<std::int16_t> fa(tone_a.begin() + seq * kFrameSamples,
                                 tone_a.begin() + (seq + 1) * kFrameSamples);
    std::vector<std::int16_t> fb(tone_b.begin() + seq * kFrameSamples,
                                 tone_b.begin() + (seq + 1) * kFrameSamples);
    mix_into(mixed, fa, 0.5);
    mix_into(mixed, fb, 0.5);
    std::vector<std::int16_t> mic(near.begin() + seq * kFrameSamples,
                                  near.begin() + (seq + 1) * kFrameSamples);
    auto clean = golden_ec.process(mixed, mic);
    golden_out.insert(golden_out.end(), clean.begin(), clean.end());
  }

  EXPECT_EQ(play.played(), golden_out);  // bit-identical audio
  EXPECT_DOUBLE_EQ(ec.erle_db(), golden_ec.erle_db());
}
