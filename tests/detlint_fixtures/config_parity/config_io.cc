// A miniature config_io.cc with a planted schema drift: `ghost_knob` is
// parsed but never rendered, so two configs differing only in it would
// fingerprint identically. detlint's config-parity rule must catch it.
#include <map>
#include <ostream>
#include <sstream>
#include <string>

namespace fixture {

struct Config {
  int num_sms = 16;
  int ghost_knob = 0;
  std::string warp_sched = "gto";
};

bool parse_line(const std::string& key, const std::string& value,
                Config* cfg) {
  if (key == "num_sms") {
    cfg->num_sms = std::stoi(value);
    return true;
  }
  if (key == "warp_sched") {
    cfg->warp_sched = value;
    return true;
  }
  if (key == "ghost_knob") {  // VIOLATION: parsed, never rendered
    cfg->ghost_knob = std::stoi(value);
    return true;
  }
  return false;
}

std::string config_to_string(const Config& cfg) {
  std::ostringstream os;
  os << "num_sms = " << cfg.num_sms << "\n";
  os << "warp_sched = " << cfg.warp_sched << "\n";
  return os.str();
}

}  // namespace fixture
