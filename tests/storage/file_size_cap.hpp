// A scope guard that caps this process's file size (RLIMIT_FSIZE) with
// SIGXFSZ ignored, so a write at or past the cap fails with EFBIG instead
// of killing the process. Linux refuses such a write even when it lands
// inside the file's current size. The storage tests use it to make one
// write fail and the next succeed.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>

namespace pgf::test {

/// Caps this process's file size while alive, with SIGXFSZ ignored so a
/// write past the cap fails (EFBIG) instead of killing the process; the
/// destructor restores the limit and the handler.
class FileSizeCap {
public:
    explicit FileSizeCap(std::uint64_t bytes) {
        EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
        handler_ = std::signal(SIGXFSZ, SIG_IGN);
        rlimit cap = saved_;
        cap.rlim_cur = static_cast<rlim_t>(bytes);
        EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
    }
    ~FileSizeCap() {
        ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, handler_);
    }
    FileSizeCap(const FileSizeCap&) = delete;
    FileSizeCap& operator=(const FileSizeCap&) = delete;

private:
    rlimit saved_{};
    void (*handler_)(int) = SIG_DFL;
};

}  // namespace pgf::test
