#ifndef PERFBENCH_COUNTING_FS_H_
#define PERFBENCH_COUNTING_FS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/file_io.h"

namespace perfbench {

/// What the storage layer did through a CountingFileSystem, per domain (a
/// directory prefix such as the WAL or the checkpoint directory).
struct StorageCounters {
  std::uint64_t appends = 0;
  std::uint64_t bytes_written = 0;
  double write_ms = 0.0;
  /// File Sync calls plus SyncDir calls: every durability barrier.
  std::uint64_t fsyncs = 0;
  double fsync_ms = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_read = 0;
  double read_ms = 0.0;

  StorageCounters operator-(const StorageCounters& base) const;
  StorageCounters& operator+=(const StorageCounters& other);
};

/// A FileSystem that delegates every call to `base` unchanged and counts
/// and times what passes through: bytes appended, durability barriers,
/// bytes read. Calls are attributed to the first registered domain whose
/// directory prefixes the path, else to the "other" domain. Thread-safe;
/// the benchmark hands one to LiveEngine::Recover.
class CountingFileSystem : public perfxplain::FileSystem {
 public:
  explicit CountingFileSystem(
      perfxplain::FileSystem* base = perfxplain::FileSystem::Default());
  CountingFileSystem(const CountingFileSystem&) = delete;
  CountingFileSystem& operator=(const CountingFileSystem&) = delete;

  /// Registers a domain; returns its index for Counters(). Register before
  /// the file system is used.
  std::size_t AddDomain(const std::string& dir);
  /// Index of the catch-all domain.
  std::size_t other_domain() const { return 0; }

  StorageCounters Counters(std::size_t domain) const;
  /// Counters summed over every domain.
  StorageCounters Total() const;
  /// Duration of every barrier of `domain` so far, in call order (ms).
  std::vector<double> FsyncSamples(std::size_t domain) const;

  perfxplain::Result<std::unique_ptr<perfxplain::WritableFile>> OpenForAppend(
      const std::string& path) override;
  perfxplain::Result<std::string> ReadFile(const std::string& path) override;
  perfxplain::Result<bool> FileExists(const std::string& path) override;
  perfxplain::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  perfxplain::Status CreateDirs(const std::string& dir) override;
  perfxplain::Status Rename(const std::string& from,
                            const std::string& to) override;
  perfxplain::Status RemoveFile(const std::string& path) override;
  perfxplain::Status RemoveAll(const std::string& path) override;
  perfxplain::Status TruncateFile(const std::string& path,
                                  std::uint64_t size) override;
  perfxplain::Status SyncDir(const std::string& dir) override;

  // Used by the counting WritableFile.
  void RecordWrite(std::size_t domain, std::size_t bytes, double ms);
  void RecordSync(std::size_t domain, double ms);
  std::size_t DomainOf(const std::string& path) const;

 private:
  struct Domain {
    std::string prefix;
    StorageCounters counters;
    std::vector<double> fsync_ms;
  };

  perfxplain::FileSystem* base_;
  mutable std::mutex mutex_;
  std::vector<Domain> domains_;  // guarded by mutex_; [0] = other
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_FS_H_
