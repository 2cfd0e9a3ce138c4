#include "util/atomic_write.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace balbench::util {

namespace {

[[noreturn]] void fail(const std::string& op, const std::string& path) {
  throw std::runtime_error("atomic_write: " + op + " failed for '" + path +
                           "': " + std::strerror(errno));
}

/// fsync, retried through EINTR (a signal must not silently skip the
/// one syscall the durability guarantee hangs on).
int fsync_retry(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

/// fsync the directory containing `path` so the rename itself is
/// durable, not just the file contents: on ext4-like filesystems the
/// new directory entry lives in the parent's data, and a crash right
/// after rename(2) can otherwise revert -- or on some journal modes
/// lose -- the name.  Best-effort only in one respect: filesystems
/// that refuse to open directories for syncing (some network/FUSE
/// mounts) skip the sync, which degrades the guarantee from
/// "committed" to "atomic but possibly reverted" (see the header).
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  fsync_retry(fd);
  ::close(fd);
}

}  // namespace

void atomic_write(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("open", tmp);

  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail("write", tmp);
    }
    written += static_cast<std::size_t>(n);
  }

  if (fsync_retry(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("rename", path);
  }
  sync_parent_dir(path);
}

void write_output(const std::string& path, std::string_view content) {
  if (path != "-") {
    atomic_write(path, content);
    return;
  }
  std::cout << content;
  if (!std::cout) throw std::runtime_error("cannot write to stdout");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace balbench::util
