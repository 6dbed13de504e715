#pragma once

// Bit-exact, versioned, crash-safe state serialization — the substrate of
// the serving daemon's checkpoint/restore (see serve/daemon.h and
// DESIGN.md §11).
//
// Payload model: an ordered sequence of tagged binary records,
//   u8 key length | key bytes | u8 type tag | value
// where the value is the raw little-endian bytes of the type (u64, i64,
// f64, a 0/1 bool byte, or an RNG's four xoshiro words + Box-Muller cache
// + 0/1 flag). Strings and vectors lead with a u64 element count. Doubles
// are stored as their IEEE-754 bits, so every mantissa bit round-trips
// and no locale is involved. Readers consume records strictly in writer
// order and verify each key and tag, and check every length and count
// against the bytes that remain before allocating anything, so a
// structural mismatch (schema drift, corrupted record, wrong object)
// fails immediately with the offending key in the message instead of
// silently shearing fields. dump_state() renders a payload as text
// without a schema (journal_query --dump-checkpoint).
//
// File envelope: a single header line
//   CEA-CHECKPOINT v<version> <payload-bytes> <checksum-hex>
// followed by the payload. The byte count catches truncation, the
// checksum (checkpoint_checksum) catches in-place corruption, and the
// version gate refuses formats this build does not understand.
// write_checkpoint_file() is crash-safe: temp file in the same directory,
// fsync, atomic rename, directory fsync — a SIGKILL at any instant leaves
// either the previous complete checkpoint or the new one, never a torn
// file.

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
  kRng = 8,     ///< 4 u64 words, f64 cached normal, u8 cache flag
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
  /// Full generator state (xoshiro words + Box-Muller cache) — restoring
  /// reproduces the exact continuation of the stream.
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
  void read_rng(std::string_view key, Rng& rng);

  /// Like read_doubles/read_u64s but requires exactly `expected` elements.
  std::vector<double> read_doubles(std::string_view key, std::size_t expected);
  std::vector<std::uint64_t> read_u64s(std::string_view key,
                                       std::size_t expected);

  /// The next record whatever its key and type, structurally validated
  /// (lengths and counts within the payload, known tag, 0/1 flag bytes).
  StateRecord next_record() { return take({}); }

  bool at_end() const noexcept { return remaining_.empty(); }
  /// Throws unless the whole payload was consumed (trailing data usually
  /// means reader/writer schema drift).
  void expect_end() const;

 private:
  /// Consume the next record; a non-empty `key` must match it.
  StateRecord take(std::string_view key);
  StateRecord take(std::string_view key, StateTag tag);
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

/// The checkpoint envelope's checksum: FNV-1a's offset basis and prime,
/// taken 8 bytes per step — xor the little-endian word, multiply by the
/// prime, fold the high half down (h ^= h >> 32) — then the tail bytes one
/// at a time as in fnv1a64. Every step is a bijection of the hash state,
/// so any change confined to one word or tail byte always changes the sum.
std::uint64_t checkpoint_checksum(std::string_view bytes) noexcept;

/// v3: each engine section carries engine.horizon and
/// engine.env_fingerprint after its shape (DESIGN §11).
inline constexpr int kCheckpointVersion = 3;

/// Serialize `payload` into the envelope format (header + payload bytes).
std::string encode_checkpoint(std::string_view payload);

/// Validate an envelope (magic, version, length, checksum) and return the
/// payload: `file_bytes` with its header line erased in place, so a
/// moved-in file is not copied. Throws StateError naming the failure.
std::string decode_checkpoint(std::string file_bytes);

/// Crash-safe checkpoint write: envelope header and payload into
/// `path + ".tmp"`, fsync, rename over `path`, fsync the directory. Throws
/// StateError on any I/O failure.
void write_checkpoint_file(const std::string& path, std::string_view payload);

/// Crash-safe raw file publication — the same temp+fsync+rename+dir-fsync
/// discipline write_checkpoint_file uses, without the checkpoint envelope.
/// A reader never observes a torn `path`: it sees the previous complete
/// file or the new one. Shared by the decision-journal segment writer and
/// the metrics status-file publisher (obs/journal.h, serve/daemon.h).
/// Throws StateError on any I/O failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Slurp a file's bytes; throws StateError when it cannot be opened/read.
std::string read_file_bytes(const std::string& path);

/// Read and validate a checkpoint file; returns the payload.
std::string read_checkpoint_file(const std::string& path);

}  // namespace cea::util
