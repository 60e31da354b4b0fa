#include "apps/admin_gui.hpp"

#include <algorithm>
#include <map>

namespace ace::apps {

using cmdlang::CmdLine;
using cmdlang::Word;

AdminGuiModel::AdminGuiModel(daemon::Environment& env,
                             daemon::AceClient& client)
    : env_(env), client_(client) {}

util::Status AdminGuiModel::refresh() {
  auto services = services::AsdClient(client_, env_.asd_address).query("*", "*", "*");
  if (!services.ok()) return services.error();

  std::map<std::string, RoomNode> rooms;
  for (const services::ServiceLocation& loc : services.value()) {
    ServiceNode node;
    node.name = loc.name;
    node.address = loc.address;
    node.service_class = loc.service_class;

    // Pull the service's command list, then each command's schema.
    auto info = client_.call(loc.address, CmdLine("info"), daemon::kCallOk);
    if (info.ok()) {
      for (const std::string& command : info->get_strings("commands")) {
        CmdLine help("help");
        help.arg("command", Word{command});
        auto schema = client_.call(loc.address, help, daemon::kCallOk);
        if (!schema.ok()) continue;
        ParameterControl control;
        control.command = command;
        control.help = schema->get_text("help");
        control.arguments = schema->get_strings("args");
        node.controls.push_back(std::move(control));
      }
    }
    std::string room = loc.room.empty() ? "(unplaced)" : loc.room;
    RoomNode& room_node = rooms[room];
    room_node.room = room;
    room_node.services.push_back(std::move(node));
  }

  tree_.clear();
  for (auto& [room, node] : rooms) {
    std::sort(node.services.begin(), node.services.end(),
              [](const ServiceNode& a, const ServiceNode& b) {
                return a.name < b.name;
              });
    tree_.push_back(std::move(node));
  }
  return util::Status::ok_status();
}

const ServiceNode* AdminGuiModel::find_service(const std::string& name) const {
  for (const RoomNode& room : tree_)
    for (const ServiceNode& svc : room.services)
      if (svc.name == name) return &svc;
  return nullptr;
}

util::Result<cmdlang::CmdLine> AdminGuiModel::invoke(
    const std::string& service_name, const cmdlang::CmdLine& cmd) {
  const ServiceNode* svc = find_service(service_name);
  if (!svc)
    return util::Error{util::Errc::not_found,
                       "service not in GUI tree: " + service_name};
  return client_.call(svc->address, cmd, daemon::kCallOk);
}

}  // namespace ace::apps
