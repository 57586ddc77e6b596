#include "common/ids.h"

namespace optrep {

std::string site_name(SiteId site) {
  if (site.value < 26) return std::string(1, static_cast<char>('A' + site.value));
  std::string name = "S";
  name += std::to_string(site.value);
  return name;
}

std::string update_name(UpdateId id) {
  return site_name(id.site) + ":" + std::to_string(id.seq);
}

}  // namespace optrep
