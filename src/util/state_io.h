#pragma once

// Bit-exact, versioned, crash-safe state serialization — the substrate of
// the serving daemon's checkpoint/restore (see serve/daemon.h and
// DESIGN.md §11).
//
// Payload model: an ordered sequence of tagged binary records,
//   u8 key length | key bytes | u8 type tag | value
// where the value is the raw little-endian bytes of the type (u64, i64,
// f64, or a 0/1 bool byte). Strings and arrays lead with a u64 element
// count: `str`, `f64[]`, `u64[]`, and the native-width `u32[]` and `u8[]`
// that per-edge cursors and flags use. An `rng[]` element is one
// generator's four xoshiro words, its Box-Muller cache and a 0/1 cache
// flag (41 bytes), so a fleet's E generators are one record. Doubles are
// stored as their IEEE-754 bits, so every mantissa bit round-trips and no
// locale is involved. Readers consume records strictly in writer order
// and verify each key and tag, and check every length and count against
// the bytes that remain before allocating anything, so a structural
// mismatch (schema drift, corrupted record, wrong object) fails
// immediately with the offending key in the message instead of silently
// shearing fields. dump_state() renders a payload as text without a
// schema (journal_query --dump-checkpoint).
//
// File envelope: a single header line
//   CEA-CHECKPOINT v<version> <payload-bytes> <checksum-hex>
// followed by the payload. The byte count catches truncation, the
// checksum (checkpoint_checksum) catches in-place corruption, and the
// version gate refuses formats this build does not understand.
//
// Two publication contracts, both temp file `<path>.tmp` in the same
// directory, then an atomic name switch onto the target, so a reader
// never sees a torn file:
// - durable (write_checkpoint_file, write_file_durable): fsync the temp
//   file before the switch and the directory after it, so a crash or a
//   power cut at any instant leaves the previous complete file or the new
//   one. Checkpoints and journal segments are records; they use this.
//   Checkpoints reuse pages: the switch exchanges the two names, and the
//   next checkpoint is written into the file the exchange moved to
//   `<path>.tmp` (DESIGN.md §11).
// - atomic only (write_file_atomic): no fsync. A killed process still
//   leaves the previous file or the new one, but after a power cut the
//   target may be either version or empty. The metrics page is rewritten
//   every slot and only has to be whole when read; it uses this.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace cea::util {

/// Thrown on any malformed, truncated, corrupted, or version-mismatched
/// checkpoint payload or file.
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

/// Type tag of one record (the byte after its key).
enum class StateTag : std::uint8_t {
  kU64 = 1,
  kI64 = 2,
  kBool = 3,
  kF64 = 4,
  kString = 5,  ///< u64 byte count, then the bytes
  kF64s = 6,    ///< u64 element count, then the elements
  kU64s = 7,    ///< u64 element count, then the elements
  // 8 was v3's single-generator `rng`, retired by kRngs.
  kU32s = 9,    ///< u64 element count, then 4 bytes per element
  kU8s = 10,    ///< u64 element count, then 1 byte per element
  kRngs = 11,   ///< u64 element count, then per element: 4 u64 words,
                ///< f64 cached normal, u8 cache flag (41 bytes)
};

class StateWriter {
 public:
  /// `reserve_bytes` pre-sizes the payload buffer (a caller that
  /// checkpoints repeatedly passes the previous payload's size).
  explicit StateWriter(std::size_t reserve_bytes = 0) {
    payload_.reserve(reserve_bytes);
  }

  // Keys are 1-255 bytes; a longer or empty key throws StateError.
  void write_u64(std::string_view key, std::uint64_t value);
  void write_i64(std::string_view key, std::int64_t value);
  void write_bool(std::string_view key, bool value);
  void write_double(std::string_view key, double value);  ///< exact bits
  void write_string(std::string_view key, std::string_view value);
  void write_doubles(std::string_view key, std::span<const double> values);
  void write_u64s(std::string_view key, std::span<const std::uint64_t> values);
  void write_u32s(std::string_view key, std::span<const std::uint32_t> values);
  void write_u8s(std::string_view key, std::span<const std::uint8_t> values);
  /// Full generator states (xoshiro words + Box-Muller cache) — restoring
  /// reproduces the exact continuation of every stream.
  void write_rngs(std::string_view key, std::span<const Rng> rngs);
  /// A one-element write_rngs.
  void write_rng(std::string_view key, const Rng& rng);

  const std::string& payload() const noexcept { return payload_; }
  /// Move the payload out, leaving the writer empty.
  std::string take() noexcept;

 private:
  void begin(std::string_view key, StateTag tag);
  void append_array(std::string_view key, StateTag tag, const void* data,
                    std::size_t count);
  std::string payload_;
};

/// One record as stored, for schema-free walks (dump_state): `count` is
/// the element count of a string or vector and 1 otherwise; `value` is
/// the raw value bytes after the count.
struct StateRecord {
  std::string_view key;
  StateTag tag = StateTag::kU64;
  std::uint64_t count = 1;
  std::string_view value;
};

/// Sequential reader over a StateWriter payload. Every read names the key
/// it expects; mismatched key or type, malformed value, or premature end
/// throws StateError.
class StateReader {
 public:
  explicit StateReader(std::string_view payload) : remaining_(payload) {}

  std::uint64_t read_u64(std::string_view key);
  std::int64_t read_i64(std::string_view key);
  bool read_bool(std::string_view key);
  double read_double(std::string_view key);
  std::string read_string(std::string_view key);
  std::vector<double> read_doubles(std::string_view key);
  std::vector<std::uint64_t> read_u64s(std::string_view key);

  /// Array reads that require exactly `expected` elements.
  std::vector<double> read_doubles(std::string_view key, std::size_t expected);
  std::vector<std::uint64_t> read_u64s(std::string_view key,
                                       std::size_t expected);
  std::vector<std::uint32_t> read_u32s(std::string_view key,
                                       std::size_t expected);
  std::vector<std::uint8_t> read_u8s(std::string_view key,
                                     std::size_t expected);
  /// Restore an `rng[]` record of exactly `rngs.size()` generators.
  void read_rngs(std::string_view key, std::span<Rng> rngs);
  /// A one-element read_rngs.
  void read_rng(std::string_view key, Rng& rng);

  /// The next record whatever its key and type, structurally validated
  /// (lengths and counts within the payload, known tag, 0/1 flag bytes in
  /// a bool and in every rng[] element).
  StateRecord next_record() { return take({}); }

  bool at_end() const noexcept { return remaining_.empty(); }
  /// Throws unless the whole payload was consumed (trailing data usually
  /// means reader/writer schema drift).
  void expect_end() const;

 private:
  static constexpr std::size_t kAnyCount = static_cast<std::size_t>(-1);

  /// Consume the next record; a non-empty `key` must match it.
  StateRecord take(std::string_view key);
  /// ... and its type must be `tag` and, unless kAnyCount, its element
  /// count `expected`.
  StateRecord take(std::string_view key, StateTag tag,
                   std::size_t expected = kAnyCount);
  template <class T>
  std::vector<T> read_array(std::string_view key, StateTag tag,
                            std::size_t expected);
  [[noreturn]] void fail(std::string_view key, const std::string& what) const;

  std::string_view remaining_;
  std::size_t record_ = 0;
};

/// Text view of a payload, one `key type count values...` line per record:
/// integers in decimal, doubles as C99 hex-floats (util/numio.h), string
/// bytes outside printable ASCII (and space, backslash) as \xNN. Throws
/// StateError on a malformed payload.
std::string dump_state(std::string_view payload);

/// FNV-1a 64-bit over `bytes`, one byte per step (the decision journal's
/// record checksum and perf_serve's journal digest).
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// The checkpoint envelope's checksum, over 8 independent lanes. The step
/// is mix(h, w): h ^= w; h *= FNV prime; h ^= h >> 32. Each lane starts at
/// FNV's offset basis. Word j (little-endian u64) of every 64-byte block
/// is mixed into lane j; the 0-7 whole words left over go to lanes 0, 1,
/// ... in order. The lanes are then mixed, in lane order, into a fresh
/// offset basis, and the size % 8 tail bytes follow one at a time as in
/// fnv1a64 (h ^= byte; h *= prime). Every step is a bijection of the state
/// and of the absorbed value, so a change confined to one word or tail
/// byte always changes the sum; the lanes only break the one serial
/// multiply chain into 8 that run side by side.
std::uint64_t checkpoint_checksum(std::string_view bytes) noexcept;

/// v5: decision state only. The engine's per-slot series and per-edge
/// selection counts are gone, it stores its emission total, and the
/// controller ends with the observer's state (DESIGN §11). v4 made the
/// fleet's per-edge RNGs one rng[] record, its cursors and the engine's
/// hosted models u32[], its flags u8[], and ran the checksum over 8 lanes.
inline constexpr int kCheckpointVersion = 5;

/// Serialize `payload` into the envelope format (header + payload bytes).
std::string encode_checkpoint(std::string_view payload);

/// Validate an envelope (magic, version, length, checksum) and return the
/// payload: `file_bytes` with its header line erased in place, so a
/// moved-in file is not copied. Throws StateError naming the failure.
std::string decode_checkpoint(std::string file_bytes);

/// Durable checkpoint write into the pages of the file the previous call
/// replaced: open `path + ".tmp"` without truncating it, pwrite the
/// envelope header and the payload from offset 0, truncate to their
/// length, fsync, exchange the names of the temp file and `path`
/// (renameat2 RENAME_EXCHANGE), fsync the directory. The temp file thus
/// persists between calls, holding the previous checkpoint. The switch is
/// a rename before the first checkpoint, when `path` is not a regular
/// file, and where the file system has no exchange; a temp file that is a
/// symlink, or that another name also links, is replaced by a fresh one,
/// never written through. A reader that keeps `path` open across
/// two calls can see its bytes overwritten: read_checkpoint_file then
/// reports a checksum mismatch. Throws StateError when any step fails,
/// the close and the directory fsync included, after dropping the temp
/// name so that a retry starts from a fresh file.
void write_checkpoint_file(const std::string& path, std::string_view payload);

/// Durable raw file publication without the envelope: a new temp file,
/// fsync, rename over `path`, directory fsync. No pages are reused (each
/// journal segment has a new name). The temp file is created exclusively:
/// whatever a stale `path + ".tmp"` is, a symlink or a file another name
/// also links, its name is dropped and never written through. The
/// decision journal's segment writer uses it (obs/journal.h). Throws
/// StateError when any step fails, the close and the directory fsync
/// included.
void write_file_durable(const std::string& path, std::string_view bytes);

/// Atomic-only publication: temp file, then rename over `path`, with no
/// fsync. Readers see the previous complete file or the new one, but the
/// new one may not survive a power cut. For files rewritten every slot
/// whose loss costs nothing, such as the metrics page (serve/daemon.h).
/// The temp file is created as write_file_durable creates it. Throws
/// StateError on any I/O failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Slurp a file's bytes; throws StateError when it cannot be opened/read.
std::string read_file_bytes(const std::string& path);

/// Read and validate a checkpoint file; returns the payload.
std::string read_checkpoint_file(const std::string& path);

}  // namespace cea::util
