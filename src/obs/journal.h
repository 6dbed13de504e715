#pragma once

// Structured decision journal: the auditable per-slot event log of the
// serving stack (DESIGN.md §13). One record per (tenant, slot) captures
// the decisions the paper's cap-compliance story rests on — model
// selections, the trader's dual variable, executed trade quantities and
// prices, emissions against the allowance balance — plus the arena/solver
// counters that certify how the slot was computed. Watchdog alerts
// (obs/slo.h) ride the same log as their own record kind.
//
// Durability discipline (util::write_file_durable): records are buffered
// in memory and published as numbered immutable segment files via
// temp+fsync+rename+dir-fsync, each wrapped in a counted, FNV-1a-checksummed
// envelope, and every record line carries its own FNV-1a checksum. A
// SIGKILL at any instant therefore leaves a directory of checksum-clean
// segments whose records are a bit-exact prefix of the uninterrupted
// run's journal — the open buffer is the only loss.
//
// Determinism contract: every field of a slot record is computed by the
// engine's serial edge-ordered reduction, and doubles are formatted as
// exact hex-floats (util/numio), so serial and pooled runs of the same
// scenario produce byte-identical journals and a journal replay can be
// diffed bit-for-bit against golden traces (examples/journal_query.cpp).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cea::obs {

/// Thrown on malformed, truncated, or corrupted journal files.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// The decision values of one (tenant, slot), in journal order: the one
/// declaration of the slot record. sim::SlotObservation (the engine's
/// per-slot output) and JournalRecord (its journal line) both derive from
/// it, so the daemon copies one into the other with one assignment; the
/// line format, its parser and journal_query's exports name each field.
struct SlotValues {
  std::uint64_t switches_total = 0;   ///< cumulative switches after the slot
  /// Reserved, always 0. Kept so the CEA-JOURNAL v1 layout and its
  /// existing segments stay valid; it used to count the slot's batched
  /// Tsallis solves, which differ between serial and pooled runs.
  std::uint64_t solver_lanes = 0;
  std::uint64_t arena_overflows = 0;  ///< cumulative (0 certifies the slot path)
  double trader_dual = 0.0;  ///< lambda after feedback; NaN when stateless
  double buy = 0.0, sell = 0.0;            ///< executed z^t, w^t
  double buy_price = 0.0, sell_price = 0.0;  ///< quote c^t, r^t
  double emission = 0.0;   ///< e^t
  double balance = 0.0;    ///< allowance balance after the slot
  double carbon_cap = 0.0;  ///< R of the tenant's scenario
  double inference_cost = 0.0, switching_cost = 0.0, trading_cost = 0.0;
  double accuracy = 0.0, workload = 0.0;
};

/// One journal record. kSlot records carry the decision values of
/// (tenant, slot) and its per-model counts; kAlert records carry a
/// watchdog alert raised at that slot (value/threshold semantics per
/// rule, obs/slo.h).
struct JournalRecord : SlotValues {
  enum class Kind : std::uint8_t { kSlot, kAlert };

  Kind kind = Kind::kSlot;
  std::string tenant;      ///< tenant name (no whitespace or '#')
  std::uint64_t slot = 0;  ///< slot the record describes

  // --- kSlot fields beyond SlotValues --------------------------------------
  /// Edges that selected each model this slot (size = model count).
  std::vector<std::uint64_t> model_counts;

  // --- kAlert fields ------------------------------------------------------
  std::string alert;       ///< rule name (obs::slo_kind_name)
  double value = 0.0;      ///< observed quantity that tripped the rule
  double threshold = 0.0;  ///< the rule's bound at that moment
};

/// Render a record as its single journal line, including the trailing
/// " #<fnv1a64-hex>" checksum field. Doubles are exact hex-floats. Throws
/// std::invalid_argument when the tenant or alert name contains
/// whitespace or '#' (they would shear the line format).
std::string format_record(const JournalRecord& record);

/// Parse (and checksum-verify) one journal line. Throws JournalError on
/// any malformed field or checksum mismatch.
JournalRecord parse_record(std::string_view line);

/// Append-only journal writer over a directory of sealed segments.
///
/// append() buffers; seal() publishes everything buffered since the last
/// seal as the next `seg-<index>.cjl` segment, atomically. The caller
/// (serve/daemon.cpp) seals at slot boundaries, so the journal's sealed
/// content always ends at a boundary. A writer constructed over a
/// non-empty directory continues the segment numbering — a restored
/// daemon appends after the segments that survived the crash.
class JournalWriter {
 public:
  /// The directory must exist. Throws JournalError otherwise or when an
  /// existing segment name cannot be parsed.
  explicit JournalWriter(std::string directory);

  /// Buffer one record (formatted + checksummed immediately, so a
  /// malformed record throws here, not at seal time).
  void append(const JournalRecord& record);

  /// Publish buffered records as the next segment (crash-safe). No-op
  /// when nothing is buffered. Throws util::StateError on I/O failure.
  void seal();

  std::size_t records_buffered() const noexcept { return buffered_.size(); }
  std::size_t records_sealed() const noexcept { return records_sealed_; }
  std::size_t segments_sealed() const noexcept { return segments_sealed_; }
  const std::string& directory() const noexcept { return directory_; }

 private:
  std::string directory_;
  std::vector<std::string> buffered_;  ///< formatted lines, no '\n'
  std::size_t next_segment_ = 0;
  std::size_t segments_sealed_ = 0;
  std::size_t records_sealed_ = 0;
};

/// Verification summary of a journal directory.
struct JournalStats {
  bool ok = false;
  std::size_t segments = 0;
  std::size_t records = 0;
  std::string error;  ///< first failure, empty when ok
};

/// Path of segment `index` inside `directory` (for tests and tools).
std::string segment_path(const std::string& directory, std::size_t index);

/// Read every sealed segment of `directory` in segment order, verifying
/// the segment envelopes (count, byte length, FNV-1a) and each record
/// line's checksum. Returns the record lines (without '\n') in append
/// order. Throws JournalError on the first corruption; a missing or empty
/// directory yields an empty journal.
std::vector<std::string> read_journal_lines(const std::string& directory);

/// Like read_journal_lines + parse_record for each line.
std::vector<JournalRecord> read_journal(const std::string& directory);

/// Non-throwing verification: checks every envelope and record checksum.
JournalStats verify_journal(const std::string& directory);

}  // namespace cea::obs
