#include "report.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, FormatDouble(value));
  return *this;
}

Json& Json::Int(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonEscape(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Null(const std::string& key) {
  fields_.emplace_back(key, "null");
  return *this;
}

Json& Json::Obj(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.ToString());
  return *this;
}

Json& Json::StrList(const std::string& key,
                    const std::vector<std::string>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ", ";
    list += JsonEscape(values[i]);
  }
  fields_.emplace_back(key, list + "]");
  return *this;
}

Json& Json::Metric(const std::string& key, double value,
                   const std::string& unit) {
  return Obj(key, Json().Num("value", value).Str("unit", unit));
}

std::string Json::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonEscape(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

Json MachineAndBuild() {
  Json json;
  json.Int("nproc", UsableCpus())
      .Str("cpu_model", CpuModel())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("release", IsReleaseBuild());
  return json;
}

std::string FilesystemType(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return buffer;
}

}  // namespace perfbench
