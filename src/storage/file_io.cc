#include "storage/file_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace perfxplain {

namespace {

namespace stdfs = std::filesystem;

Status ErrnoStatus(const std::string& what, const std::string& path,
                   int err) {
  const std::string message =
      what + " '" + path + "': " + std::strerror(err);
  // The transient class: interrupted by a signal, or a would-block hiccup
  // on an unusual mount. RetryTransient retries exactly these.
  if (err == EINTR || err == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
      || err == EWOULDBLOCK
#endif
  ) {
    return Status::Unavailable(message);
  }
  return Status::IoError(message);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::IoError("append to closed file: " + path_);
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        // Surface one transient errno as one kUnavailable: the caller's
        // RetryTransient loop owns the backoff policy, not this layer.
        return ErrnoStatus("write to", path_, errno);
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IoError("fsync of closed file: " + path_);
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_, errno);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override {
    int fd;
    do {
      fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return ErrnoStatus("open for append", path, errno);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    // An ifstream opens a directory and reads it as empty.
    std::error_code ec;
    if (stdfs::is_directory(path, ec)) {
      return Status::IoError("cannot read '" + path + "': is a directory");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("cannot open for reading: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return Status::IoError("read failed: " + path);
    return buffer.str();
  }

  Result<bool> FileExists(const std::string& path) override {
    std::error_code ec;
    const bool exists = stdfs::exists(path, ec);
    if (ec) return Status::IoError("stat '" + path + "': " + ec.message());
    return exists;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (stdfs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      names.push_back(it->path().filename().string());
    }
    if (ec) {
      return Status::IoError("list dir '" + dir + "': " + ec.message());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    stdfs::create_directories(dir, ec);
    if (ec) {
      return Status::IoError("create dir '" + dir + "': " + ec.message());
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    stdfs::rename(from, to, ec);
    if (ec) {
      return Status::IoError("rename '" + from + "' -> '" + to +
                             "': " + ec.message());
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    std::error_code ec;
    if (!stdfs::remove(path, ec) || ec) {
      if (ec) {
        return Status::IoError("remove '" + path + "': " + ec.message());
      }
      return Status::IoError("remove '" + path + "': no such file");
    }
    return Status::OK();
  }

  Status RemoveAll(const std::string& path) override {
    std::error_code ec;
    stdfs::remove_all(path, ec);
    if (ec) {
      return Status::IoError("remove-all '" + path + "': " + ec.message());
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, std::uint64_t size) override {
    std::error_code ec;
    stdfs::resize_file(path, size, ec);
    if (ec) {
      return Status::IoError("truncate '" + path + "' to " +
                             std::to_string(size) + ": " + ec.message());
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd;
    do {
      fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return ErrnoStatus("open dir for fsync", dir, errno);
    Status status;
    if (::fsync(fd) != 0) status = ErrnoStatus("fsync dir", dir, errno);
    ::close(fd);
    return status;
  }
};

}  // namespace

FileSystem* FileSystem::Default() {
  static PosixFileSystem posix;
  return &posix;
}

}  // namespace perfxplain
