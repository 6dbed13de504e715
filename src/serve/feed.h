#pragma once

// Input feeds of the serving daemon: one interface delivering, per slot,
// the market quote and the per-edge workload counts the controller needs
// to advance the fleet (serve/controller.h).
//
// Feeds are deliberately stateless with respect to the slot cursor: poll()
// takes the slot index explicitly and every implementation answers as a
// pure function of (its configuration, t) — replay indexes its traces,
// synthetic derives everything from keyed RNG streams, directory-tail
// looks for the slot's file. That is what keeps checkpoints small: a
// restored daemon re-polls slot t and gets byte-identical input without
// any feed state in the checkpoint.

#include <cstdint>
#include <string>
#include <vector>

#include "data/carbon_market.h"
#include "data/workload.h"
#include "trading/trader.h"

namespace cea::serve {

enum class FeedStatus {
  kReady,    ///< `out` was filled with the slot's input
  kPending,  ///< the slot's input is not available yet; poll again later
  kEnd,      ///< the stream is over; no slot >= t will ever be ready
};

/// One slot of input: the market quote plus one workload count per edge
/// (concatenated across tenants in controller edge order).
struct SlotInput {
  trading::TradeObservation quote;
  std::vector<int> workload;
};

class FeedSource {
 public:
  virtual ~FeedSource() = default;

  /// Poll the input of slot t. Implementations must answer repeatably:
  /// polling the same t twice yields the same data (the restore path
  /// re-polls the slot the checkpoint stopped before).
  virtual FeedStatus poll(std::size_t t, SlotInput& out) = 0;

  /// Total edge count per slot (the width of SlotInput::workload).
  virtual std::size_t num_edges() const noexcept = 0;

  virtual std::string name() const = 0;
};

/// Replays in-memory traces (or trace files via the loaders). After the
/// last slot the feed either ends or, with `loop = true`, wraps around
/// modulo the trace length (soak testing).
class ReplayFeed final : public FeedSource {
 public:
  /// `workload` is [edge][slot]; both price series must cover at least as
  /// many slots as the workload. Throws std::invalid_argument on mismatch.
  ReplayFeed(data::WorkloadTraces workload, data::PriceSeries prices,
             bool loop = false);

  /// Load both traces from CSV files (data/trace_io.h formats).
  static ReplayFeed from_files(const std::string& workload_csv,
                               const std::string& prices_csv,
                               bool loop = false);

  FeedStatus poll(std::size_t t, SlotInput& out) override;
  std::size_t num_edges() const noexcept override { return workload_.size(); }
  std::size_t num_slots() const noexcept { return num_slots_; }
  std::string name() const override { return "replay"; }

 private:
  data::WorkloadTraces workload_;
  data::PriceSeries prices_;
  std::size_t num_slots_ = 0;
  bool loop_ = false;
};

/// Endless deterministic synthetic feed: every cell is a pure function of
/// (seed, edge, t) and the quote a pure function of (seed, t), so any two
/// daemons with the same seed see identical streams — the property the
/// kill/restore bit-identity gate relies on.
class SyntheticFeed final : public FeedSource {
 public:
  /// Counts are drawn uniformly from [1, 1 + 2 * mean_samples] (a mean
  /// below 1 counts as 1). Throws std::invalid_argument on zero edges or a
  /// mean that is not finite or exceeds (INT_MAX - 1) / 2.
  SyntheticFeed(std::size_t num_edges, std::uint64_t seed,
                double mean_samples = 400.0,
                data::MarketConfig market = {});

  FeedStatus poll(std::size_t t, SlotInput& out) override;
  std::size_t num_edges() const noexcept override { return num_edges_; }
  std::string name() const override { return "synthetic"; }

 private:
  std::size_t num_edges_ = 0;
  std::uint64_t seed_ = 0;
  double mean_samples_ = 400.0;
  data::MarketConfig market_;
};

/// Tails a directory another process drops slot files into. Slot t is read
/// from `<dir>/slot_<t>.csv`:
///   <buy>,<sell>
///   <count_edge0>,<count_edge1>,...
/// A file named `<dir>/feed_end` marks the end of the stream. Parsing is
/// locale-independent and counts are strict integers (same contract as
/// data/trace_io.h); malformed files throw std::runtime_error rather than
/// being silently skipped.
class DirectoryTailFeed final : public FeedSource {
 public:
  DirectoryTailFeed(std::string directory, std::size_t num_edges);

  FeedStatus poll(std::size_t t, SlotInput& out) override;
  std::size_t num_edges() const noexcept override { return num_edges_; }
  std::string name() const override { return "tail"; }

  /// Path of slot t's file (for producers and tests).
  std::string slot_path(std::size_t t) const;
  std::string end_path() const;

  /// Producer-side helper: atomically publish slot t (write to a temp
  /// name, then rename) so a concurrent poll never sees a torn file.
  static void publish_slot(const DirectoryTailFeed& feed, std::size_t t,
                           const SlotInput& input);

 private:
  std::string directory_;
  std::size_t num_edges_ = 0;
};

}  // namespace cea::serve
