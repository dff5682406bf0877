#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A flat JSON object built field by field; values are rendered JSON
/// text. Numbers print with every significant digit.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, std::int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Null(const std::string& key);
  Json& Obj(const std::string& key, const Json& value);
  Json& StrList(const std::string& key, const std::vector<std::string>& values);
  /// {"value": v, "unit": u}, the shape of one metric.
  Json& Metric(const std::string& key, double value, const std::string& unit);
  bool empty() const { return fields_.empty(); }
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonEscape(const std::string& text);

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// The machine and the build a result was measured on: logical CPUs
/// usable by this process, CPU model, compiler and version, flags and the
/// CMake build type the benchmark was compiled with.
Json MachineAndBuild();

/// True when the benchmark was compiled as an optimized Release build
/// with assertions off.
bool IsReleaseBuild();

/// File-system type of the directory `dir` ("ext4", "tmpfs", ... or the
/// hexadecimal magic when unknown).
std::string FilesystemType(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
