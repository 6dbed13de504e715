#pragma once

// The serving daemon: the only layer that owns I/O and a clock. It polls a
// FeedSource for each slot's input, drives the ServeController (pure state
// machine), and persists crash-safe checkpoints (util/state_io.h) every
// `checkpoint_every` slots — so a SIGKILL at ANY instant loses at most the
// slots since the last checkpoint, and restarting from that checkpoint
// replays them bit-identically (feeds answer poll(t) repeatably).
//
// Library/driver split: this class still does no argument parsing, no
// signal handling, no logging policy — that lives in the CLI driver
// (examples/serve_daemon.cpp). Tests drive the daemon in-process.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/slo.h"
#include "serve/controller.h"
#include "serve/feed.h"
#include "sim/series_recorder.h"

namespace cea::serve {

struct DaemonConfig {
  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Write a checkpoint after every N slots (0 = only the final one).
  std::size_t checkpoint_every = 0;
  /// Stop after the controller reaches this slot (0 = run to feed end).
  std::size_t max_slots = 0;
  /// Stop after processing this many slots IN THIS PROCESS (0 = off).
  /// Distinct from max_slots: a restored daemon counts from zero, which is
  /// what the kill/restore CI gate uses to stop at a precise boundary.
  std::size_t stop_after_slots = 0;
  /// Sleep between polls while the feed is pending (milliseconds).
  std::size_t poll_interval_ms = 10;
  /// Give up after this many consecutive pending polls (0 = wait forever).
  std::size_t max_pending_polls = 0;
  /// Artificial pacing per slot (milliseconds); widens the kill window in
  /// the SIGKILL recovery drill, 0 for full speed.
  std::size_t slot_delay_ms = 0;

  // --- observability (DESIGN.md §13) -----------------------------------
  // All of it is observational: enabling any of these cannot change a
  // computed result. Each is a runtime opt-in and works in every build;
  // a build without metric recording only leaves the telemetry-registry
  // part of the metrics page empty.
  /// Decision-journal directory (must already exist); empty disables the
  /// journal. Segments are sealed crash-safely at slot boundaries.
  std::string journal_dir;
  /// Seal a journal segment every N executed slots (also sealed at every
  /// checkpoint boundary and at shutdown). 0 behaves like 1.
  std::size_t journal_every = 1;
  /// Prometheus text snapshot path (renamed into place at slot
  /// boundaries, without fsync); empty disables the metrics file.
  std::string metrics_path;
  /// Publish metrics every N executed slots. 0 behaves like 1.
  std::size_t metrics_every = 1;
  /// Loopback TCP metrics endpoint port (-1 disables; 0 picks an
  /// ephemeral port — read it back from DaemonReport::metrics_port).
  int metrics_port = -1;
  /// Carbon-SLO watchdog rules (obs/slo.h). The watchdog runs whenever
  /// any observability sink above is enabled.
  obs::SloConfig slo;
};

/// Outcome of one ServeDaemon::run() invocation.
struct DaemonReport {
  std::size_t slots_processed = 0;   ///< slots executed by THIS run()
  std::size_t checkpoints_written = 0;
  std::size_t final_slot = 0;        ///< controller slot after the run
  bool feed_ended = false;           ///< stopped because the feed ended

  // Observability outcome (all zero when observability is disabled).
  // Alert counts are per watchdog rule, indexed by SloKind.
  std::array<std::uint64_t, obs::kSloKindCount> alerts{};
  std::uint64_t alerts_total = 0;
  std::size_t journal_records = 0;   ///< records sealed since construction
  std::size_t journal_segments = 0;  ///< segments sealed since construction
  int metrics_port = -1;             ///< bound endpoint port, -1 if none
};

class ServeDaemon {
 public:
  /// The controller and feed must outlive the daemon. The feed's edge
  /// width must equal the controller's total_edges(). `series`, when
  /// given (serve_daemon --trace-out), records every slot this daemon
  /// executes; it must outlive the daemon.
  ServeDaemon(ServeController& controller, FeedSource& feed,
              DaemonConfig config, sim::SeriesRecorder* series = nullptr);
  ~ServeDaemon();  // out of line: the observability state is incomplete here

  /// Restore the controller from config.checkpoint_path if the file
  /// exists; returns true when a checkpoint was loaded. Call before run().
  bool restore_if_present();

  /// Restore from an explicit checkpoint file (throws util::StateError on
  /// a missing/corrupt/mismatched file). The SLO watchdog's state comes
  /// from the checkpoint too; one written without it starts a fresh
  /// watchdog.
  void restore_from(const std::string& path);

  /// Drive the controller until the feed ends, max_slots/stop_after_slots
  /// is reached, or the feed stays pending past max_pending_polls. Writes
  /// the periodic checkpoints and, when checkpointing is configured, a
  /// final checkpoint at the stopping boundary.
  DaemonReport run();

  /// One checkpoint now (at the current slot boundary), crash-safely.
  /// Returns false, writing nothing, when no checkpoint path is set.
  bool write_checkpoint();

  /// Bound metrics endpoint port, or -1 when no endpoint is running.
  int metrics_port() const noexcept;

 private:
  ServeController& controller_;
  FeedSource& feed_;
  DaemonConfig config_;
  sim::SeriesRecorder* series_ = nullptr;
  struct Obs;  // journal writer + watchdog + metrics sinks (daemon.cpp)
  std::unique_ptr<Obs> obs_;
};

}  // namespace cea::serve
