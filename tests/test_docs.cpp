// The documentation is machine-checked:
//  * docs/commands.md — this test instantiates every command-registering
//    daemon class and diffs the commands documented under its
//    `## `ClassName`` section (plus the sections of its bases) against
//    semantics().command_names(). A command added, removed or renamed in
//    code without a matching doc edit fails here — and so does a
//    documented command no daemon registers. Likewise, the entries marked
//    *Nonblocking.* must be exactly the commands declared
//    CommandSpec::nonblocking().
//  * cross-links — every docs/*.md must be reachable from README.md by
//    following relative markdown links, and every relative link (file and
//    #anchor) in the reachable set must resolve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/ophone.hpp"
#include "apps/vnc.hpp"
#include "baselines/jini.hpp"
#include "daemon/devices.hpp"
#include "daemon/environment.hpp"
#include "daemon/host.hpp"
#include "media/audio_services.hpp"
#include "services/asd.hpp"
#include "services/auth_db.hpp"
#include "services/identification.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "services/net_logger.hpp"
#include "services/relay.hpp"
#include "services/room_db.hpp"
#include "services/streaming.hpp"
#include "services/tracking.hpp"
#include "services/user_db.hpp"
#include "services/workspace.hpp"
#include "store/persistent_store.hpp"
#include "store/robustness.hpp"

#ifndef ACE_DOCS_COMMANDS_MD
#error "build must define ACE_DOCS_COMMANDS_MD (path to docs/commands.md)"
#endif
#ifndef ACE_REPO_ROOT
#error "build must define ACE_REPO_ROOT (path to the repository root)"
#endif

namespace {

using ace::daemon::DaemonConfig;

// Extracts the first `backticked` token of a markdown heading line.
std::string backticked(const std::string& line) {
  auto open = line.find('`');
  if (open == std::string::npos) return "";
  auto close = line.find('`', open + 1);
  if (close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

// The `### `-documented commands of one `## ` section, and those of them
// whose entry carries the *Nonblocking.* mark.
struct DocSection {
  std::set<std::string> commands;
  std::set<std::string> nonblocking;
};

std::map<std::string, DocSection> parse_reference(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, DocSection> sections;
  std::string line, section, cmd;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0 && line.rfind("### ", 0) != 0) {
      section = backticked(line);
      cmd.clear();
      EXPECT_FALSE(section.empty()) << "unbackticked section: " << line;
      EXPECT_FALSE(sections.count(section))
          << "duplicate section: " << section;
      sections[section];
    } else if (line.rfind("### ", 0) == 0) {
      cmd = backticked(line);
      EXPECT_FALSE(cmd.empty()) << "unbackticked command: " << line;
      EXPECT_FALSE(section.empty()) << "command before any section: " << cmd;
      if (section.empty()) continue;
      EXPECT_TRUE(sections[section].commands.insert(cmd).second)
          << "duplicate command " << cmd << " in section " << section;
    } else if (!cmd.empty() && !section.empty() &&
               line.find("*Nonblocking.*") != std::string::npos) {
      sections[section].nonblocking.insert(cmd);
    }
  }
  return sections;
}

std::string join(const std::set<std::string>& names) {
  std::ostringstream out;
  for (const auto& n : names) out << n << " ";
  return out.str();
}

class CommandReferenceTest : public ::testing::Test {
 protected:
  CommandReferenceTest() : env_(42), host_(env_, "doc-host") {}

  DaemonConfig config(const std::string& name) {
    DaemonConfig c;
    c.name = name;
    c.port = next_port_++;
    c.room = "doc-room";
    return c;
  }

  // Diffs one daemon's registered commands against the union of the
  // named doc sections (the class's own section plus inherited bases), and
  // its nonblocking commands against the entries marked so.
  void check(const ace::daemon::ServiceDaemon& d,
             const std::vector<std::string>& section_names) {
    std::set<std::string> documented, documented_nonblocking;
    for (const auto& s : section_names) {
      ASSERT_TRUE(docs_.count(s)) << "docs/commands.md has no section `" << s
                                  << "` (needed by a registered daemon)";
      used_sections_.insert(s);
      documented.insert(docs_[s].commands.begin(), docs_[s].commands.end());
      documented_nonblocking.insert(docs_[s].nonblocking.begin(),
                                    docs_[s].nonblocking.end());
    }
    std::set<std::string> registered, nonblocking;
    for (const auto& n : d.semantics().command_names()) {
      registered.insert(n);
      if (d.semantics().find(n)->never_blocks) nonblocking.insert(n);
    }
    EXPECT_EQ(join(nonblocking), join(documented_nonblocking))
        << section_names.front() << ": the commands declared nonblocking "
        << "(left) differ from those marked *Nonblocking.* in "
        << "docs/commands.md (right)";

    std::set<std::string> undocumented, stale;
    std::set_difference(registered.begin(), registered.end(),
                        documented.begin(), documented.end(),
                        std::inserter(undocumented, undocumented.end()));
    std::set_difference(documented.begin(), documented.end(),
                        registered.begin(), registered.end(),
                        std::inserter(stale, stale.end()));
    EXPECT_TRUE(undocumented.empty())
        << section_names.front() << ": registered but not in "
        << "docs/commands.md: " << join(undocumented);
    EXPECT_TRUE(stale.empty())
        << section_names.front() << ": documented but not registered: "
        << join(stale);
  }

  ace::daemon::Environment env_;
  ace::daemon::DaemonHost host_;
  int next_port_ = 7000;
  std::map<std::string, DocSection> docs_ =
      parse_reference(ACE_DOCS_COMMANDS_MD);
  std::set<std::string> used_sections_;
};

TEST_F(CommandReferenceTest, EveryDaemonMatchesItsDocumentedCommandSet) {
  const std::vector<std::string> base = {"ServiceDaemon"};
  auto with = [&](const char* cls,
                  std::vector<std::string> extra =
                      {}) -> std::vector<std::string> {
    std::vector<std::string> out = {cls};
    out.insert(out.end(), extra.begin(), extra.end());
    out.push_back("ServiceDaemon");
    return out;
  };

  using namespace ace;
  check(host_.add_daemon<services::AsdDaemon>(config("asd")), with("AsdDaemon"));
  check(host_.add_daemon<services::AuthDbDaemon>(config("auth")),
        with("AuthDbDaemon"));
  check(host_.add_daemon<services::UserDbDaemon>(config("users")),
        with("UserDbDaemon"));
  check(host_.add_daemon<services::RoomDbDaemon>(config("rooms")),
        with("RoomDbDaemon"));
  check(host_.add_daemon<services::TrackerDaemon>(config("tracker")),
        with("TrackerDaemon"));
  check(host_.add_daemon<services::FiuDaemon>(config("fiu")),
        with("FiuDaemon", {"DeviceDaemon"}));
  check(host_.add_daemon<services::IButtonDaemon>(config("ibutton")),
        with("IButtonDaemon", {"DeviceDaemon"}));
  check(host_.add_daemon<services::IdMonitorDaemon>(config("idmon")),
        with("IdMonitorDaemon"));
  check(host_.add_daemon<services::HrmDaemon>(config("hrm")),
        with("HrmDaemon"));
  check(host_.add_daemon<services::SrmDaemon>(config("srm")),
        with("SrmDaemon"));
  check(host_.add_daemon<services::HalDaemon>(config("hal")),
        with("HalDaemon"));
  check(host_.add_daemon<services::SalDaemon>(config("sal")),
        with("SalDaemon"));
  check(host_.add_daemon<services::NetLoggerDaemon>(config("logger")),
        with("NetLoggerDaemon"));
  check(host_.add_daemon<services::ConverterDaemon>(config("conv")),
        with("ConverterDaemon", {"RoutedMediaDaemon"}));
  check(host_.add_daemon<services::DistributionDaemon>(config("dist")),
        with("DistributionDaemon", {"RoutedMediaDaemon"}));
  check(host_.add_daemon<services::WssDaemon>(config("wss")),
        with("WssDaemon"));
  check(host_.add_daemon<services::RelayDaemon>(config("relay")),
        with("RelayDaemon"));
  check(host_.add_daemon<store::PersistentStoreDaemon>(config("store"), 1),
        with("PersistentStoreDaemon"));
  check(host_.add_daemon<store::RobustnessManagerDaemon>(config("rm")),
        with("RobustnessManagerDaemon"));
  check(host_.add_daemon<baselines::JiniLookupDaemon>(config("jini")),
        with("JiniLookupDaemon"));
  check(host_.add_daemon<daemon::PtzCameraDaemon>(config("ptz"),
                                                  daemon::vcc4_spec()),
        with("PtzCameraDaemon", {"DeviceDaemon"}));
  check(host_.add_daemon<daemon::ProjectorDaemon>(config("proj"),
                                                  daemon::epson7350_spec()),
        with("ProjectorDaemon", {"DeviceDaemon"}));
  check(host_.add_daemon<media::AudioCaptureDaemon>(config("capture"), "s1"),
        with("AudioCaptureDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<media::AudioMixerDaemon>(config("mixer"), "s2"),
        with("AudioMixerDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<media::EchoCancellationDaemon>(config("ec"), "ref",
                                                        "in", "out"),
        with("EchoCancellationDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<media::AudioPlayDaemon>(config("play")),
        with("AudioPlayDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<media::AudioRecorderDaemon>(config("rec")),
        with("AudioRecorderDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<media::TextToSpeechDaemon>(config("tts"), "s3"),
        with("TextToSpeechDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<media::SpeechToCommandDaemon>(config("stc")),
        with("SpeechToCommandDaemon", {"AudioElementDaemon", "RoutedMediaDaemon"}));
  check(host_.add_daemon<apps::VncServerDaemon>(config("vnc"), "alice",
                                                "main"),
        with("VncServerDaemon"));
  check(host_.add_daemon<apps::OPhoneDaemon>(config("phone")),
        with("OPhoneDaemon"));

  // A daemon that registers nothing beyond the built-ins keeps the
  // built-ins section honest on its own.
  check(host_.add_daemon<apps::VncViewerDaemon>(config("viewer")), base);

  // Every documented section must belong to some daemon above — a
  // section left behind after a class removal fails here.
  std::set<std::string> unclaimed;
  for (const auto& [name, cmds] : docs_)
    if (!used_sections_.count(name)) unclaimed.insert(name);
  EXPECT_TRUE(unclaimed.empty())
      << "docs/commands.md sections no daemon accounts for: "
      << join(unclaimed);
}

// ------------------------------------------------------- markdown linkage

namespace fs = std::filesystem;

// GitHub's heading-to-anchor rule: lowercase, spaces become hyphens,
// punctuation (backticks, dots, slashes, ...) is dropped, hyphens and
// underscores survive.
std::string slugify(const std::string& heading) {
  std::string out;
  for (char ch : heading) {
    const auto c = static_cast<unsigned char>(ch);
    if (std::isalnum(c))
      out += static_cast<char>(std::tolower(c));
    else if (c == ' ')
      out += '-';
    else if (c == '-' || c == '_')
      out += ch;
  }
  return out;
}

struct MarkdownDoc {
  std::set<std::string> anchors;     // heading slugs (with -N dedup suffixes)
  std::vector<std::string> targets;  // raw `](...)` link targets, in order
};

MarkdownDoc parse_markdown(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  MarkdownDoc doc;
  std::map<std::string, int> slug_uses;
  std::string line;
  bool fenced = false;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      fenced = !fenced;
      continue;
    }
    if (fenced) continue;
    if (line.rfind("#", 0) == 0) {
      const auto text = line.find_first_not_of('#');
      if (text != std::string::npos && line[text] == ' ') {
        const std::string slug = slugify(line.substr(text + 1));
        const int n = slug_uses[slug]++;
        doc.anchors.insert(n == 0 ? slug : slug + "-" + std::to_string(n));
      }
    }
    // Inline code spans may hold literal `](...)` examples — scrub them.
    std::string scrubbed;
    bool in_code = false;
    for (char c : line) {
      if (c == '`')
        in_code = !in_code;
      else if (!in_code)
        scrubbed += c;
    }
    for (std::size_t i = 0; (i = scrubbed.find("](", i)) != std::string::npos;
         i += 2) {
      const auto close = scrubbed.find(')', i + 2);
      if (close == std::string::npos) break;
      std::string target = scrubbed.substr(i + 2, close - i - 2);
      // `](file.md "title")` — the title is not part of the path.
      if (auto space = target.find(' '); space != std::string::npos)
        target.resize(space);
      if (!target.empty()) doc.targets.push_back(std::move(target));
    }
  }
  return doc;
}

bool is_external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0;
}

// Walks the markdown graph from README.md: every relative link must point
// at an existing file, every `#anchor` at a real heading in its target, and
// every file under docs/ must be reached by the walk — a guide nothing
// links to is dead documentation.
TEST(DocCrossLinks, EveryDocIsReachableAndEveryLinkResolves) {
  const fs::path root = fs::weakly_canonical(ACE_REPO_ROOT);
  std::map<fs::path, MarkdownDoc> parsed;
  auto doc_for = [&](const fs::path& p) -> MarkdownDoc& {
    auto it = parsed.find(p);
    if (it == parsed.end()) it = parsed.emplace(p, parse_markdown(p)).first;
    return it->second;
  };

  std::set<fs::path> visited;
  std::vector<fs::path> queue = {fs::weakly_canonical(root / "README.md")};
  while (!queue.empty()) {
    const fs::path page = queue.back();
    queue.pop_back();
    if (!visited.insert(page).second) continue;
    for (const std::string& raw : doc_for(page).targets) {
      if (is_external(raw)) continue;
      const auto hash = raw.find('#');
      const std::string file = raw.substr(0, hash);
      const std::string anchor =
          hash == std::string::npos ? "" : raw.substr(hash + 1);
      const fs::path target =
          file.empty() ? page
                       : fs::weakly_canonical(page.parent_path() / file);
      if (!fs::exists(target)) {
        ADD_FAILURE() << page.lexically_relative(root).string()
                      << " links to missing target: " << raw;
        continue;
      }
      if (target.extension() != ".md") continue;  // source files, licenses...
      if (!anchor.empty())
        EXPECT_TRUE(doc_for(target).anchors.count(anchor))
            << page.lexically_relative(root).string() << " links to " << raw
            << " but " << target.lexically_relative(root).string()
            << " has no such heading";
      queue.push_back(target);
    }
  }

  for (const auto& entry : fs::directory_iterator(root / "docs")) {
    if (entry.path().extension() != ".md") continue;
    EXPECT_TRUE(visited.count(fs::weakly_canonical(entry.path())))
        << entry.path().lexically_relative(root).string()
        << " is not reachable from README.md";
  }
}

}  // namespace
