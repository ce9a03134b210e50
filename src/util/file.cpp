#include "pgf/util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace pgf {

namespace {

std::string describe(const std::string& op, const std::string& path,
                     std::uint64_t offset, int error) {
    std::string text = op + " " + path;
    if (op != "open") text += " at offset " + std::to_string(offset);
    return text + ": " + std::generic_category().message(error) +
           " (errno " + std::to_string(error) + ")";
}

}  // namespace

IoError::IoError(std::string op, std::string path, std::uint64_t offset,
                 int error)
    : std::runtime_error(describe(op, path, offset, error)),
      op_(std::move(op)),
      path_(std::move(path)),
      offset_(offset),
      error_(error) {}

// ---------------------------------------------------------------- File

File::File(const std::string& path, Mode mode, FaultInjector* injector)
    : path_(path), injector_(injector) {
    const int flags = mode == Mode::kRead        ? O_RDONLY
                      : mode == Mode::kReadWrite ? O_RDWR
                                                 : O_RDWR | O_CREAT | O_TRUNC;
    do {
        fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    } while (fd_ < 0 && errno == EINTR);
    if (fd_ < 0) fail("open", 0, errno);
}

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      injector_(other.injector_) {}

File::~File() {
    if (fd_ >= 0) ::close(fd_);
}

void File::fail(const char* op, std::uint64_t offset, int error) const {
    throw IoError(op, path_, offset, error);
}

std::uint64_t File::size() const {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) fail("stat", 0, errno);
    return static_cast<std::uint64_t>(st.st_size);
}

std::size_t File::read_at(std::uint64_t offset,
                          std::span<std::byte> out) const {
    std::size_t done = 0;
    while (done < out.size()) {
        const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR) continue;
            fail("read", offset + done, errno);
        }
        if (n == 0) break;  // end of file
        done += static_cast<std::size_t>(n);
    }
    return done;
}

void File::pwrite_all(std::uint64_t offset, std::span<const std::byte> data) {
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::pwrite(fd_, data.data() + done, data.size() - done,
                     static_cast<off_t>(offset + done));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) fail("write", offset + done, n < 0 ? errno : EIO);
        done += static_cast<std::size_t>(n);
    }
}

bool File::admit(std::uint64_t offset, std::span<const std::byte> data,
                 CrashSite site) {
    if (injector_ == nullptr) return true;
    if (injector_->crashed()) return false;  // the process is already dead
    if (site == CrashSite::kYes && injector_->should_crash()) {
        // Half the bytes reach disk, then the process dies.
        pwrite_all(offset, data.first(data.size() / 2));
        throw CrashError("injected crash writing " + path_);
    }
    return true;
}

void File::write_at(std::uint64_t offset, std::span<const std::byte> data,
                    CrashSite site) {
    if (admit(offset, data, site)) pwrite_all(offset, data);
}

void File::append(std::span<const std::byte> data, CrashSite site) {
    write_at(size(), data, site);
}

void File::truncate(std::uint64_t length) {
    if (injector_ != nullptr && injector_->crashed()) return;
    while (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
        if (errno != EINTR) fail("truncate", length, errno);
    }
}

// ---------------------------------------------------------------- FileReader

FileReader::FileReader(const std::string& path, std::size_t buffer_bytes)
    : file_(path, File::Mode::kRead),
      buf_(std::max<std::size_t>(buffer_bytes, 1)) {}

void FileReader::seek(std::uint64_t offset) {
    if (offset >= position() && offset <= file_pos_) {
        begin_ = end_ - static_cast<std::size_t>(file_pos_ - offset);
        return;
    }
    begin_ = 0;
    end_ = 0;
    file_pos_ = offset;
}

void FileReader::refill(std::size_t n) {
    std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(begin_),
              buf_.begin() + static_cast<std::ptrdiff_t>(end_), buf_.begin());
    end_ -= begin_;
    begin_ = 0;
    if (buf_.size() < n) buf_.resize(n);
    const std::size_t got =
        file_.read_at(file_pos_, std::span<std::byte>(buf_).subspan(end_));
    end_ += got;
    file_pos_ += got;
}

}  // namespace pgf
