#include "counting_fs.h"

#include <chrono>
#include <string_view>
#include <utility>

namespace perfbench {

namespace px = perfxplain;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

class CountingFile : public px::WritableFile {
 public:
  CountingFile(std::unique_ptr<px::WritableFile> base,
               CountingFileSystem* fs, std::size_t domain)
      : base_(std::move(base)), fs_(fs), domain_(domain) {}

  px::Status Append(std::string_view data) override {
    const Clock::time_point start = Clock::now();
    px::Status status = base_->Append(data);
    if (status.ok()) fs_->RecordWrite(domain_, data.size(), MsSince(start));
    return status;
  }

  px::Status Sync() override {
    const Clock::time_point start = Clock::now();
    px::Status status = base_->Sync();
    fs_->RecordSync(domain_, MsSince(start));
    return status;
  }

  px::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<px::WritableFile> base_;
  CountingFileSystem* fs_;
  std::size_t domain_;
};

}  // namespace

StorageCounters StorageCounters::operator-(const StorageCounters& base) const {
  StorageCounters d = *this;
  d.appends -= base.appends;
  d.bytes_written -= base.bytes_written;
  d.write_ms -= base.write_ms;
  d.fsyncs -= base.fsyncs;
  d.fsync_ms -= base.fsync_ms;
  d.reads -= base.reads;
  d.bytes_read -= base.bytes_read;
  d.read_ms -= base.read_ms;
  return d;
}

StorageCounters& StorageCounters::operator+=(const StorageCounters& other) {
  appends += other.appends;
  bytes_written += other.bytes_written;
  write_ms += other.write_ms;
  fsyncs += other.fsyncs;
  fsync_ms += other.fsync_ms;
  reads += other.reads;
  bytes_read += other.bytes_read;
  read_ms += other.read_ms;
  return *this;
}

CountingFileSystem::CountingFileSystem(px::FileSystem* base) : base_(base) {
  domains_.push_back(Domain{});
}

std::size_t CountingFileSystem::AddDomain(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  domains_.push_back(Domain{std::move(prefix), {}, {}});
  return domains_.size() - 1;
}

std::size_t CountingFileSystem::DomainOf(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string with_slash = path + "/";
  for (std::size_t d = 1; d < domains_.size(); ++d) {
    if (with_slash.compare(0, domains_[d].prefix.size(), domains_[d].prefix) ==
        0) {
      return d;
    }
  }
  return 0;
}

StorageCounters CountingFileSystem::Counters(std::size_t domain) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return domains_.at(domain).counters;
}

StorageCounters CountingFileSystem::Total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StorageCounters total;
  for (const Domain& domain : domains_) total += domain.counters;
  return total;
}

std::vector<double> CountingFileSystem::FsyncSamples(
    std::size_t domain) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return domains_.at(domain).fsync_ms;
}

void CountingFileSystem::RecordWrite(std::size_t domain, std::size_t bytes,
                                     double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  StorageCounters& c = domains_[domain].counters;
  c.appends += 1;
  c.bytes_written += bytes;
  c.write_ms += ms;
}

void CountingFileSystem::RecordSync(std::size_t domain, double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  StorageCounters& c = domains_[domain].counters;
  c.fsyncs += 1;
  c.fsync_ms += ms;
  domains_[domain].fsync_ms.push_back(ms);
}

px::Result<std::unique_ptr<px::WritableFile>>
CountingFileSystem::OpenForAppend(const std::string& path) {
  auto file = base_->OpenForAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<px::WritableFile>(
      new CountingFile(std::move(file).value(), this, DomainOf(path)));
}

px::Result<std::string> CountingFileSystem::ReadFile(const std::string& path) {
  const Clock::time_point start = Clock::now();
  auto data = base_->ReadFile(path);
  const double ms = MsSince(start);
  if (data.ok()) {
    const std::size_t domain = DomainOf(path);
    std::lock_guard<std::mutex> lock(mutex_);
    StorageCounters& c = domains_[domain].counters;
    c.reads += 1;
    c.bytes_read += data->size();
    c.read_ms += ms;
  }
  return data;
}

px::Result<bool> CountingFileSystem::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

px::Result<std::vector<std::string>> CountingFileSystem::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}

px::Status CountingFileSystem::CreateDirs(const std::string& dir) {
  return base_->CreateDirs(dir);
}

px::Status CountingFileSystem::Rename(const std::string& from,
                                      const std::string& to) {
  return base_->Rename(from, to);
}

px::Status CountingFileSystem::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

px::Status CountingFileSystem::RemoveAll(const std::string& path) {
  return base_->RemoveAll(path);
}

px::Status CountingFileSystem::TruncateFile(const std::string& path,
                                            std::uint64_t size) {
  return base_->TruncateFile(path, size);
}

px::Status CountingFileSystem::SyncDir(const std::string& dir) {
  const Clock::time_point start = Clock::now();
  px::Status status = base_->SyncDir(dir);
  RecordSync(DomainOf(dir), MsSince(start));
  return status;
}

}  // namespace perfbench
