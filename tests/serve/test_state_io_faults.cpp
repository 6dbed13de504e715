// Fault and crash tests for the checkpoint writer's sequence
// (util::write_checkpoint_file; DESIGN.md §11 "Publication").
//
// This executable replaces fsync, renameat2 and pwrite the way
// perfserve/perf_serve.cpp replaces fsync: the library's calls resolve to
// the definitions below. Each passes through to the system call unless
// the test's plan fails it or ends the process inside it. The tests live
// in an executable of their own so that no other test links the
// replacements.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "util/state_io.h"

namespace {

/// The intercepted calls.
enum class Call { kPwrite, kFileSync, kExchange, kDirSync };

const char* call_name(Call call) {
  switch (call) {
    case Call::kPwrite: return "pwrite";
    case Call::kFileSync: return "fsync(file)";
    case Call::kExchange: return "renameat2";
    case Call::kDirSync: return "fsync(directory)";
  }
  return "?";
}

/// What the replacements do; the default passes every call through.
struct Plan {
  bool fail_file_sync = false;   ///< fsync of a regular file: EIO
  bool fail_dir_sync = false;    ///< fsync of a directory: EIO
  bool refuse_exchange = false;  ///< RENAME_EXCHANGE: EINVAL
  std::size_t crash_at = 0;      ///< _exit inside this call (1-based)
  bool crash_after = false;      ///< ... once it is made, not before
  std::vector<Call>* log = nullptr;  ///< every call, when set
};

Plan g_plan;
std::size_t g_calls = 0;

/// The exit code of a process that ended at its planned crash point.
constexpr int kCrashed = 42;

/// Count and log one call; true when the planned crash falls inside it.
bool crash_here(Call call) {
  ++g_calls;
  if (g_plan.log != nullptr) g_plan.log->push_back(call);
  return g_calls == g_plan.crash_at;
}

bool is_directory(int fd) {
  struct stat info {};
  return ::fstat(fd, &info) == 0 && S_ISDIR(info.st_mode);
}

}  // namespace

extern "C" int fsync(int fd) {
  const bool directory = is_directory(fd);
  const bool crash = crash_here(directory ? Call::kDirSync : Call::kFileSync);
  if (crash && !g_plan.crash_after) ::_exit(kCrashed);
  if (directory ? g_plan.fail_dir_sync : g_plan.fail_file_sync) {
    errno = EIO;
    return -1;
  }
  const int result = static_cast<int>(::syscall(SYS_fsync, fd));
  if (crash) ::_exit(kCrashed);
  return result;
}

extern "C" int renameat2(int old_dir, const char* old_path, int new_dir,
                         const char* new_path, unsigned int flags) noexcept {
  const bool crash = crash_here(Call::kExchange);
  if (crash && !g_plan.crash_after) ::_exit(kCrashed);
  if (g_plan.refuse_exchange && (flags & RENAME_EXCHANGE) != 0) {
    errno = EINVAL;
    return -1;
  }
  const int result = static_cast<int>(::syscall(
      SYS_renameat2, old_dir, old_path, new_dir, new_path, flags));
  if (crash) ::_exit(kCrashed);
  return result;
}

extern "C" ssize_t pwrite(int fd, const void* bytes, size_t count,
                          off_t offset) {
  const bool crash = crash_here(Call::kPwrite);
  // A crash before the write completes: half of its bytes land.
  const size_t n = crash && !g_plan.crash_after ? count / 2 : count;
  const ssize_t result = ::syscall(SYS_pwrite64, fd, bytes, n, offset);
  if (crash) ::_exit(kCrashed);
  return result;
}

namespace cea::util {
namespace {

class PublishFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_faults_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    remove_files();
    g_plan = Plan{};
    g_calls = 0;
  }
  void TearDown() override {
    g_plan = Plan{};
    remove_files();
  }
  void remove_files() const {
    std::remove(path_.c_str());
    std::remove(temp().c_str());
  }
  std::string temp() const { return path_ + ".tmp"; }
  static bool exists(const std::string& path) {
    struct stat info {};
    return ::stat(path.c_str(), &info) == 0;
  }
  /// The checkpoint's payload, or nothing when there is no file. A damaged
  /// file throws StateError.
  std::optional<std::string> checkpoint() const {
    if (!exists(path_)) return std::nullopt;
    return read_checkpoint_file(path_);
  }
  std::string path_;
};

TEST_F(PublishFaults, FailedFileSyncThrowsAndKeepsThePreviousCheckpoint) {
  write_checkpoint_file(path_, "first");
  write_checkpoint_file(path_, "second");
  g_plan.fail_file_sync = true;
  EXPECT_THROW(write_checkpoint_file(path_, "third"), StateError);
  EXPECT_EQ(checkpoint(), "second");
  EXPECT_FALSE(exists(temp()));
  g_plan.fail_file_sync = false;
  write_checkpoint_file(path_, "fourth");
  EXPECT_EQ(checkpoint(), "fourth");
}

TEST_F(PublishFaults, FailedDirectorySyncThrowsAndTheNextWriteStartsFresh) {
  write_checkpoint_file(path_, "first");
  g_plan.fail_dir_sync = true;
  EXPECT_THROW(write_checkpoint_file(path_, "second"), StateError);
  // The exchange is not known to be durable, so a power cut may leave the
  // file now at the temp name at `path`: the writer drops that name
  // instead of overwriting the file next time.
  EXPECT_FALSE(exists(temp()));
  g_plan.fail_dir_sync = false;
  write_checkpoint_file(path_, "third");
  EXPECT_EQ(checkpoint(), "third");
}

TEST_F(PublishFaults, DurableWriteReportsAFailedDirectorySync) {
  // Journal segments: create + rename, and the directory sync is checked.
  g_plan.fail_dir_sync = true;
  EXPECT_THROW(write_file_durable(path_, "segment"), StateError);
}

TEST_F(PublishFaults, RefusedExchangeFallsBackToRename) {
  g_plan.refuse_exchange = true;
  for (const char* payload : {"first", "second", "third"}) {
    write_checkpoint_file(path_, payload);
    EXPECT_EQ(checkpoint(), payload);
    EXPECT_FALSE(exists(temp()));  // the rename freed the replaced file
  }
}

TEST_F(PublishFaults, CrashAtEveryCallLeavesTheNewOrThePreviousCheckpoint) {
  // Six checkpoints of alternating sizes, so each overwrite of a reused
  // file is longer or shorter than what the file held.
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 6; ++i) {
    payloads.emplace_back(i % 2 == 0 ? 3'000 : 40, static_cast<char>('a' + i));
  }
  // A clean run logs the calls; call k belongs to write write_of[k - 1].
  std::vector<Call> calls;
  std::vector<std::size_t> write_of;
  g_plan.log = &calls;
  for (std::size_t j = 0; j < payloads.size(); ++j) {
    write_checkpoint_file(path_, payloads[j]);
    write_of.resize(calls.size(), j);
  }
  g_plan = Plan{};
  // Five calls a write, less the first write's exchange: with no
  // checkpoint to exchange with, it renames.
  ASSERT_EQ(calls.size(), 5 * payloads.size() - 1);

  for (const bool after : {false, true}) {
    for (std::size_t k = 1; k <= calls.size(); ++k) {
      const std::size_t j = write_of[k - 1];
      const Call call = calls[k - 1];
      SCOPED_TRACE(std::string(after ? "after " : "inside ") +
                   call_name(call) + ", call " + std::to_string(k) +
                   ", write " + std::to_string(j));
      remove_files();
      const pid_t child = ::fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        g_calls = 0;
        g_plan.crash_at = k;
        g_plan.crash_after = after;
        try {
          for (const std::string& payload : payloads) {
            write_checkpoint_file(path_, payload);
          }
        } catch (...) {
          ::_exit(1);
        }
        ::_exit(0);  // never reached its crash point
      }
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kCrashed);

      // Whole, and the previous checkpoint until the names switch (none
      // before the first); the new one once the directory sync begins;
      // either at the switch itself, by exchange or by rename.
      std::optional<std::string> found;
      ASSERT_NO_THROW(found = checkpoint());
      const std::optional<std::string> previous =
          j == 0 ? std::nullopt : std::optional(payloads[j - 1]);
      if (call == Call::kDirSync) {
        EXPECT_EQ(found, payloads[j]);
      } else if (call == Call::kExchange && after) {
        EXPECT_TRUE(found == previous || found == payloads[j]);
      } else {
        EXPECT_EQ(found, previous);
      }
      // A restarted writer reuses whatever temp file the crash left.
      const std::string next(1'500, 'z');
      write_checkpoint_file(path_, next);
      EXPECT_EQ(checkpoint(), next);
    }
  }
}

}  // namespace
}  // namespace cea::util
