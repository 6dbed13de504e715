// Fault and crash tests for the checkpoint writer's sequence
// (util::write_checkpoint_file; DESIGN.md §11 "Publication"), for a
// checkpoint that fails inside a pooled daemon's slot tail (§11 "Slot
// tail"), and for a feed slot file whose write fails.
//
// This executable replaces fsync, renameat2 and pwrite the way
// perfserve/perf_serve.cpp replaces fsync: the library's calls resolve to
// the definitions below. Each passes through to the system call unless
// the test's plan fails it or ends the process inside it. A pool worker
// may make these calls too, so the call counter and the log are safe to
// use from two threads. The tests live in an executable of their own so
// that no other test links the replacements.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/experiment.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

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

/// What the replacements do; the default passes every call through. Set
/// before the calls it plans are made, and not while they run.
struct Plan {
  bool fail_file_sync = false;   ///< fsync of a regular file: EIO
  std::string fail_sync_of;      ///< fsync of the file now at this path: EIO
  bool fail_dir_sync = false;    ///< fsync of a directory: EIO
  bool refuse_exchange = false;  ///< RENAME_EXCHANGE: EINVAL
  bool fail_write = false;       ///< pwrite: ENOSPC
  std::size_t crash_at = 0;      ///< _exit inside this call (1-based)
  bool crash_after = false;      ///< ... once it is made, not before
  std::vector<Call>* log = nullptr;  ///< every call, when set (g_log_mutex)
};

Plan g_plan;
std::atomic<std::size_t> g_calls{0};
std::mutex g_log_mutex;

/// The exit code of a process that ended at its planned crash point.
constexpr int kCrashed = 42;

/// Count and log one call; true when the planned crash falls inside it.
bool crash_here(Call call) {
  const std::size_t number = ++g_calls;
  if (g_plan.log != nullptr) {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    g_plan.log->push_back(call);
  }
  return number == g_plan.crash_at;
}

bool is_directory(int fd) {
  struct stat info {};
  return ::fstat(fd, &info) == 0 && S_ISDIR(info.st_mode);
}

/// Whether `fd` is open on the file now named `path`.
bool is_file_at(int fd, const std::string& path) {
  struct stat open_file {}, named {};
  return !path.empty() && ::fstat(fd, &open_file) == 0 &&
         ::stat(path.c_str(), &named) == 0 &&
         open_file.st_dev == named.st_dev && open_file.st_ino == named.st_ino;
}

}  // namespace

extern "C" int fsync(int fd) {
  const bool directory = is_directory(fd);
  const bool crash = crash_here(directory ? Call::kDirSync : Call::kFileSync);
  if (crash && !g_plan.crash_after) ::_exit(kCrashed);
  if (directory ? g_plan.fail_dir_sync
                : g_plan.fail_file_sync || is_file_at(fd, g_plan.fail_sync_of)) {
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
  if (g_plan.fail_write) {
    errno = ENOSPC;
    return -1;
  }
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

TEST_F(PublishFaults, FailedFeedSlotWriteIsNotPublished) {
  // A feed producer whose disk is full must throw and publish nothing: a
  // count line cut mid-number would parse as a valid, wrong count.
  const std::string dir = path_ + "_feed";
  ::mkdir(dir.c_str(), 0755);
  const serve::DirectoryTailFeed feed(dir, 2);
  const std::string slot_file = feed.slot_path(0);
  serve::SlotInput input;
  input.quote = {8.0, 7.0};
  input.workload = {123456789, 987654321};
  g_plan.fail_write = true;
  EXPECT_THROW(serve::DirectoryTailFeed::publish_slot(feed, 0, input),
               std::runtime_error);
  g_plan.fail_write = false;
  struct stat left {};
  EXPECT_NE(::lstat(slot_file.c_str(), &left), 0)
      << "a failed write was published";
  EXPECT_NE(::lstat((slot_file + ".tmp").c_str(), &left), 0)
      << "the temp file was left";
  std::remove(slot_file.c_str());
  std::remove((slot_file + ".tmp").c_str());
  ::rmdir(dir.c_str());
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

/// Two 3-edge tenants; the test runs them against a binding shared market
/// cap, as the serve_daemon CLI gates do.
std::vector<serve::TenantSpec> two_tenants(std::size_t horizon) {
  std::vector<serve::TenantSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = i == 0 ? "alpha" : "beta";
    specs[i].scenario.num_edges = 3;
    specs[i].scenario.horizon = horizon;
    specs[i].scenario.workload.num_slots = horizon;
    specs[i].scenario.carbon_cap = 40.0;
    specs[i].scenario.loss_draw_cap = 64;
    specs[i].scenario.seed = 17 + i;
    specs[i].combo = sim::ours_combo();
    specs[i].run_seed = 7 + i;
  }
  return specs;
}

/// A SyntheticFeed that, when asked for slot `t`, plans the failure of
/// every later fsync of the file at `path`.
class FailSyncFrom final : public serve::FeedSource {
 public:
  FailSyncFrom(std::size_t edges, std::uint64_t seed, std::size_t t,
               std::string path)
      : feed_(edges, seed), t_(t), path_(std::move(path)) {}
  serve::FeedStatus poll(std::size_t t, serve::SlotInput& out) override {
    if (t == t_) g_plan.fail_sync_of = path_;
    return feed_.poll(t, out);
  }
  std::size_t num_edges() const noexcept override {
    return feed_.num_edges();
  }
  std::string name() const override { return "fail-sync"; }

 private:
  serve::SyntheticFeed feed_;
  std::size_t t_;
  std::string path_;
};

/// Remove a journal directory, segments first (a failed run may have
/// left one behind).
void remove_journal(const std::string& dir) {
  for (std::size_t i = 0; i < 64; ++i) {
    std::remove(obs::segment_path(dir, i).c_str());
  }
  ::rmdir(dir.c_str());
}

TEST_F(PublishFaults, FailedCheckpointInThePooledTailReachesTheCaller) {
  // The checkpoint task of the slot tail fails at boundary kFailAt, on a
  // pool worker or on the slot thread. The error ends run(), and what is
  // on disk is what a crash there would leave: the journal through the
  // failing slot and the previous boundary's checkpoint.
  constexpr std::size_t kSlots = 16, kFailAt = 6, kEdges = 6;
  constexpr std::uint64_t kSeed = 29;
  const auto specs = two_tenants(kSlots);
  const serve::MarketRule market{2.0};
  const std::string straight_dir = path_ + "_straight";
  const std::string journal_dir = path_ + "_journal";
  for (const std::string& dir : {straight_dir, journal_dir}) {
    remove_journal(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  }
  {
    serve::ServeController controller(specs, sim::SimOptions{}, market);
    serve::SyntheticFeed feed(kEdges, kSeed);
    serve::DaemonConfig config;
    config.max_slots = kSlots;
    config.journal_dir = straight_dir;
    serve::ServeDaemon(controller, feed, config).run();
  }

  ThreadPool pool(3);
  sim::SimOptions options;
  options.pool = &pool;
  serve::DaemonConfig config;
  config.checkpoint_path = path_;
  config.checkpoint_every = 1;
  config.journal_dir = journal_dir;
  config.metrics_path = path_ + ".prom";
  config.max_slots = kSlots;
  {
    serve::ServeController controller(specs, options, market);
    FailSyncFrom feed(kEdges, kSeed, kFailAt - 1, temp());
    serve::ServeDaemon daemon(controller, feed, config);
    EXPECT_THROW(daemon.run(), StateError);
  }
  g_plan = Plan{};

  // The journal was sealed before the checkpoint task: it verifies and
  // holds every executed slot.
  const obs::JournalStats stats = obs::verify_journal(journal_dir);
  ASSERT_TRUE(stats.ok) << stats.error;
  std::vector<std::uint64_t> journaled;
  for (const obs::JournalRecord& record : obs::read_journal(journal_dir)) {
    if (record.kind == obs::JournalRecord::Kind::kSlot &&
        record.tenant == "alpha") {
      journaled.push_back(record.slot);
    }
  }
  ASSERT_EQ(journaled.size(), kFailAt);
  for (std::size_t t = 0; t < kFailAt; ++t) EXPECT_EQ(journaled[t], t);

  // The checkpoint is the previous boundary's, and a daemon restored from
  // it finishes with the uninterrupted run's journal. The restored life
  // journals the failing slot again; drop the repeated lines.
  {
    serve::ServeController controller(specs, options, market);
    serve::SyntheticFeed feed(kEdges, kSeed);
    serve::ServeDaemon daemon(controller, feed, config);
    daemon.restore_from(path_);
    EXPECT_EQ(controller.slot(), kFailAt - 1);
    EXPECT_EQ(daemon.run().final_slot, kSlots);
  }
  std::vector<std::string> revived;
  std::set<std::string> seen;
  for (std::string& line : obs::read_journal_lines(journal_dir)) {
    if (seen.insert(line).second) revived.push_back(std::move(line));
  }
  EXPECT_EQ(revived, obs::read_journal_lines(straight_dir));

  std::remove(config.metrics_path.c_str());
  remove_journal(straight_dir);
  remove_journal(journal_dir);
}

}  // namespace
}  // namespace cea::util
