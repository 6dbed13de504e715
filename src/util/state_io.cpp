#include "util/state_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "util/numio.h"

namespace cea::util {

// Records hold values as their in-memory bytes; that is the little-endian
// layout DESIGN.md §11 specifies only on a little-endian host. A
// big-endian port must byte-swap in the writer and reader.
static_assert(std::endian::native == std::endian::little,
              "checkpoint records are raw little-endian");

namespace {

constexpr std::size_t kMaxKeyBytes = 255;
constexpr std::size_t kRngBytes =
    4 * sizeof(std::uint64_t) + sizeof(double) + 1;

bool count_led(StateTag tag) noexcept {
  return tag != StateTag::kU64 && tag != StateTag::kI64 &&
         tag != StateTag::kBool && tag != StateTag::kF64;
}

/// Bytes of one value (fixed tags) or of one element (count-led tags);
/// 0 for an unknown tag.
std::size_t element_bytes(StateTag tag) noexcept {
  switch (tag) {
    case StateTag::kU64:
    case StateTag::kI64:
    case StateTag::kF64:
    case StateTag::kF64s:
    case StateTag::kU64s:
      return 8;
    case StateTag::kU32s:
      return 4;
    case StateTag::kBool:
    case StateTag::kString:
    case StateTag::kU8s:
      return 1;
    case StateTag::kRngs:
      return kRngBytes;
  }
  return 0;
}

std::string_view tag_name(StateTag tag) noexcept {
  switch (tag) {
    case StateTag::kU64: return "u64";
    case StateTag::kI64: return "i64";
    case StateTag::kBool: return "bool";
    case StateTag::kF64: return "f64";
    case StateTag::kString: return "str";
    case StateTag::kF64s: return "f64[]";
    case StateTag::kU64s: return "u64[]";
    case StateTag::kU32s: return "u32[]";
    case StateTag::kU8s: return "u8[]";
    case StateTag::kRngs: return "rng[]";
  }
  return "?";
}

template <class T>
void append_raw(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T load(const char* bytes) noexcept {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

}  // namespace

// --- StateWriter ----------------------------------------------------------

void StateWriter::begin(std::string_view key, StateTag tag) {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    throw StateError("checkpoint state: key '" + std::string(key) +
                     "' must be 1-255 bytes");
  }
  payload_.push_back(static_cast<char>(key.size()));
  payload_.append(key);
  payload_.push_back(static_cast<char>(tag));
}

void StateWriter::append_array(std::string_view key, StateTag tag,
                               const void* data, std::size_t count) {
  begin(key, tag);
  append_raw(payload_, static_cast<std::uint64_t>(count));
  if (count != 0) {
    payload_.append(static_cast<const char*>(data),
                    count * element_bytes(tag));
  }
}

void StateWriter::write_u64(std::string_view key, std::uint64_t value) {
  begin(key, StateTag::kU64);
  append_raw(payload_, value);
}

void StateWriter::write_i64(std::string_view key, std::int64_t value) {
  begin(key, StateTag::kI64);
  append_raw(payload_, value);
}

void StateWriter::write_bool(std::string_view key, bool value) {
  begin(key, StateTag::kBool);
  payload_.push_back(value ? 1 : 0);
}

void StateWriter::write_double(std::string_view key, double value) {
  begin(key, StateTag::kF64);
  append_raw(payload_, value);
}

void StateWriter::write_string(std::string_view key, std::string_view value) {
  append_array(key, StateTag::kString, value.data(), value.size());
}

void StateWriter::write_doubles(std::string_view key,
                                std::span<const double> values) {
  append_array(key, StateTag::kF64s, values.data(), values.size());
}

void StateWriter::write_u64s(std::string_view key,
                             std::span<const std::uint64_t> values) {
  append_array(key, StateTag::kU64s, values.data(), values.size());
}

void StateWriter::write_u32s(std::string_view key,
                             std::span<const std::uint32_t> values) {
  append_array(key, StateTag::kU32s, values.data(), values.size());
}

void StateWriter::write_u8s(std::string_view key,
                            std::span<const std::uint8_t> values) {
  append_array(key, StateTag::kU8s, values.data(), values.size());
}

void StateWriter::write_rngs(std::string_view key, std::span<const Rng> rngs) {
  begin(key, StateTag::kRngs);
  append_raw(payload_, static_cast<std::uint64_t>(rngs.size()));
  std::size_t at = payload_.size();
  payload_.resize(at + rngs.size() * kRngBytes);
  for (const Rng& rng : rngs) {
    const Rng::State state = rng.state();
    std::memcpy(payload_.data() + at, state.s, sizeof state.s);
    std::memcpy(payload_.data() + at + 32, &state.cached_normal, 8);
    payload_[at + 40] = state.has_cached_normal ? 1 : 0;
    at += kRngBytes;
  }
}

void StateWriter::write_rng(std::string_view key, const Rng& rng) {
  write_rngs(key, {&rng, 1});
}

std::string StateWriter::take() noexcept { return std::exchange(payload_, {}); }

// --- StateReader ----------------------------------------------------------

void StateReader::fail(std::string_view key, const std::string& what) const {
  throw StateError("checkpoint state: key '" + std::string(key) +
                   "' (record " + std::to_string(record_) + "): " + what);
}

StateRecord StateReader::take(std::string_view key) {
  ++record_;
  std::string_view in = remaining_;
  if (in.empty()) fail(key, "payload ended early");
  const std::size_t key_bytes = static_cast<unsigned char>(in[0]);
  if (in.size() < 2 + key_bytes) fail(key, "record header runs past the end");
  StateRecord record;
  record.key = in.substr(1, key_bytes);
  if (key.empty()) {
    key = record.key;
  } else if (record.key != key) {
    fail(key, "expected key, found '" + std::string(record.key) + "'");
  }
  const auto tag_byte = static_cast<std::uint8_t>(in[1 + key_bytes]);
  in.remove_prefix(2 + key_bytes);
  record.tag = static_cast<StateTag>(tag_byte);
  const std::size_t element = element_bytes(record.tag);
  if (element == 0) fail(key, "unknown type tag " + std::to_string(tag_byte));
  if (count_led(record.tag)) {
    if (in.size() < sizeof(std::uint64_t)) fail(key, "count runs past the end");
    record.count = load<std::uint64_t>(in.data());
    in.remove_prefix(sizeof(std::uint64_t));
  }
  // Division, not count * element: a forged count must not wrap around.
  if (record.count > in.size() / element) {
    fail(key, "count " + std::to_string(record.count) + " exceeds the " +
                  std::to_string(in.size()) + " bytes left");
  }
  record.value = in.substr(0, record.count * element);
  // A bool, and the cache flag ending each rng[] element, must be 0 or 1.
  if (record.tag == StateTag::kBool || record.tag == StateTag::kRngs) {
    for (std::size_t at = element - 1; at < record.value.size();
         at += element) {
      const char flag = record.value[at];
      if (flag != 0 && flag != 1) {
        fail(key, "flag byte of element " + std::to_string(at / element) +
                      " is neither 0 nor 1");
      }
    }
  }
  remaining_ = in.substr(record.value.size());
  return record;
}

StateRecord StateReader::take(std::string_view key, StateTag tag,
                              std::size_t expected) {
  const StateRecord record = take(key);
  if (record.tag != tag) {
    fail(key, "expected type " + std::string(tag_name(tag)) + ", found " +
                  std::string(tag_name(record.tag)));
  }
  if (expected != kAnyCount && record.count != expected) {
    fail(key, "expected " + std::to_string(expected) + " elements, found " +
                  std::to_string(record.count));
  }
  return record;
}

std::uint64_t StateReader::read_u64(std::string_view key) {
  return load<std::uint64_t>(take(key, StateTag::kU64).value.data());
}

std::int64_t StateReader::read_i64(std::string_view key) {
  return load<std::int64_t>(take(key, StateTag::kI64).value.data());
}

bool StateReader::read_bool(std::string_view key) {
  return take(key, StateTag::kBool).value[0] != 0;
}

double StateReader::read_double(std::string_view key) {
  return load<double>(take(key, StateTag::kF64).value.data());
}

std::string StateReader::read_string(std::string_view key) {
  return std::string(take(key, StateTag::kString).value);
}

template <class T>
std::vector<T> StateReader::read_array(std::string_view key, StateTag tag,
                                       std::size_t expected) {
  const StateRecord record = take(key, tag, expected);
  std::vector<T> values(record.count);
  if (!values.empty()) {
    std::memcpy(values.data(), record.value.data(), record.value.size());
  }
  return values;
}

std::vector<double> StateReader::read_doubles(std::string_view key) {
  return read_array<double>(key, StateTag::kF64s, kAnyCount);
}

std::vector<std::uint64_t> StateReader::read_u64s(std::string_view key) {
  return read_array<std::uint64_t>(key, StateTag::kU64s, kAnyCount);
}

std::vector<double> StateReader::read_doubles(std::string_view key,
                                              std::size_t expected) {
  return read_array<double>(key, StateTag::kF64s, expected);
}

std::vector<std::uint64_t> StateReader::read_u64s(std::string_view key,
                                                  std::size_t expected) {
  return read_array<std::uint64_t>(key, StateTag::kU64s, expected);
}

std::vector<std::uint32_t> StateReader::read_u32s(std::string_view key,
                                                  std::size_t expected) {
  return read_array<std::uint32_t>(key, StateTag::kU32s, expected);
}

std::vector<std::uint8_t> StateReader::read_u8s(std::string_view key,
                                                std::size_t expected) {
  return read_array<std::uint8_t>(key, StateTag::kU8s, expected);
}

void StateReader::read_rngs(std::string_view key, std::span<Rng> rngs) {
  const char* bytes = take(key, StateTag::kRngs, rngs.size()).value.data();
  for (Rng& rng : rngs) {
    Rng::State state{};
    std::memcpy(state.s, bytes, sizeof state.s);
    state.cached_normal = load<double>(bytes + 32);
    state.has_cached_normal = bytes[40] != 0;
    rng.set_state(state);
    bytes += kRngBytes;
  }
}

void StateReader::read_rng(std::string_view key, Rng& rng) {
  read_rngs(key, {&rng, 1});
}

void StateReader::expect_end() const {
  if (!remaining_.empty()) {
    throw StateError(
        "checkpoint state: trailing data after the last expected field "
        "(reader/writer schema drift)");
  }
}

// --- Text view ------------------------------------------------------------

namespace {

void append_escaped(std::string& out, std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte > ' ' && byte < 0x7F && c != '\\') {
      out.push_back(c);
    } else {
      out += "\\x";
      out.push_back(kDigits[byte >> 4]);
      out.push_back(kDigits[byte & 0xF]);
    }
  }
}

}  // namespace

std::string dump_state(std::string_view payload) {
  StateReader reader(payload);
  std::string out;
  while (!reader.at_end()) {
    const StateRecord record = reader.next_record();
    const char* bytes = record.value.data();
    out.append(record.key);
    out.push_back(' ');
    out.append(tag_name(record.tag));
    out.push_back(' ');
    out += format_u64(record.count);
    switch (record.tag) {
      case StateTag::kU64:
      case StateTag::kU64s:
        for (std::uint64_t i = 0; i < record.count; ++i) {
          out.push_back(' ');
          out += format_u64(load<std::uint64_t>(bytes + 8 * i));
        }
        break;
      case StateTag::kU32s:
        for (std::uint64_t i = 0; i < record.count; ++i) {
          out.push_back(' ');
          out += format_u64(load<std::uint32_t>(bytes + 4 * i));
        }
        break;
      case StateTag::kU8s:
        for (std::uint64_t i = 0; i < record.count; ++i) {
          out.push_back(' ');
          out += format_u64(static_cast<unsigned char>(bytes[i]));
        }
        break;
      case StateTag::kI64:
        out.push_back(' ');
        out += format_i64(load<std::int64_t>(bytes));
        break;
      case StateTag::kBool:
        out += bytes[0] != 0 ? " 1" : " 0";
        break;
      case StateTag::kF64:
      case StateTag::kF64s:
        for (std::uint64_t i = 0; i < record.count; ++i) {
          out.push_back(' ');
          out += format_double_exact(load<double>(bytes + 8 * i));
        }
        break;
      case StateTag::kString:
        out.push_back(' ');
        append_escaped(out, record.value);
        break;
      case StateTag::kRngs:
        for (std::uint64_t e = 0; e < record.count; ++e, bytes += kRngBytes) {
          for (int i = 0; i < 4; ++i) {
            out.push_back(' ');
            out += format_u64(load<std::uint64_t>(bytes + 8 * i));
          }
          out.push_back(' ');
          out += format_double_exact(load<double>(bytes + 32));
          out += bytes[40] != 0 ? " 1" : " 0";
        }
        break;
    }
    out.push_back('\n');
  }
  return out;
}

// --- Envelope -------------------------------------------------------------

namespace {

constexpr std::string_view kMagic = "CEA-CHECKPOINT";
constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// checkpoint_checksum's step; a bijection of `hash` and of `word`.
std::uint64_t mix(std::uint64_t hash, std::uint64_t word) noexcept {
  hash ^= word;
  hash *= kFnvPrime;
  return hash ^ (hash >> 32);
}

std::string_view take_token(std::string_view& rest) {
  const std::size_t space = rest.find(' ');
  std::string_view token = rest.substr(0, space);
  rest = space == std::string_view::npos ? std::string_view{}
                                         : rest.substr(space + 1);
  return token;
}

std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::string envelope_header(std::string_view payload) {
  std::string header(kMagic);
  header += " v";
  header += format_u64(static_cast<std::uint64_t>(kCheckpointVersion));
  header.push_back(' ');
  header += format_u64(payload.size());
  header.push_back(' ');
  header += hex16(checkpoint_checksum(payload));
  header.push_back('\n');
  return header;
}

/// Validate the envelope of `file_bytes` (header, length, checksum) and
/// return the offset at which its payload starts.
std::size_t check_envelope(std::string_view file_bytes) {
  const std::size_t eol = file_bytes.find('\n');
  if (eol == std::string_view::npos) {
    throw StateError("checkpoint: missing header line (truncated file?)");
  }
  std::string_view rest = file_bytes.substr(0, eol);
  if (take_token(rest) != kMagic) {
    throw StateError("checkpoint: bad magic (not a CEA-CHECKPOINT file)");
  }
  const std::string_view version = take_token(rest);
  std::uint64_t version_number = 0;
  if (version.size() < 2 || version[0] != 'v' ||
      !parse_u64(version.substr(1), version_number)) {
    throw StateError("checkpoint: malformed version field");
  }
  if (version_number != static_cast<std::uint64_t>(kCheckpointVersion)) {
    throw StateError("checkpoint: unsupported version v" +
                     std::to_string(version_number) + " (this build reads v" +
                     std::to_string(kCheckpointVersion) + ")");
  }
  std::uint64_t payload_bytes = 0;
  if (!parse_u64(take_token(rest), payload_bytes)) {
    throw StateError("checkpoint: malformed payload length");
  }
  std::uint64_t checksum = 0;
  const std::string_view checksum_hex = take_token(rest);
  if (checksum_hex.size() != 16 || !rest.empty()) {
    throw StateError("checkpoint: malformed checksum field");
  }
  for (char c : checksum_hex) {
    checksum <<= 4;
    if (c >= '0' && c <= '9') {
      checksum |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      checksum |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw StateError("checkpoint: malformed checksum field");
    }
  }
  const std::string_view payload = file_bytes.substr(eol + 1);
  if (payload.size() != payload_bytes) {
    throw StateError("checkpoint: truncated payload (" +
                     std::to_string(payload.size()) + " bytes, header says " +
                     std::to_string(payload_bytes) + ")");
  }
  if (checkpoint_checksum(payload) != checksum) {
    throw StateError("checkpoint: checksum mismatch (corrupted payload)");
  }
  return eol + 1;
}

/// The three ways publish() puts bytes at a path (state_io.h).
enum class Publish {
  kAtomic,   ///< new temp file, rename; no fsync (the metrics page)
  kDurable,  ///< new temp file, fsync, rename, directory fsync (journal)
  kReuse,    ///< kDurable, but written into the file the previous call
             ///< replaced, and published by exchanging names (checkpoints)
};

/// Close `fd` (when open), drop the temp name and throw errno as
/// "<what> <subject>". `path` is left as it was, or as the name switch
/// left it, and the next publish starts from a fresh temp file. errno is
/// saved before the message is built, whose allocation may change it.
[[noreturn]] void abandon(int fd, const std::string& temp_path,
                          const char* what, const std::string& subject) {
  const int saved = errno;
  if (fd >= 0) ::close(fd);
  ::unlink(temp_path.c_str());
  throw StateError(std::string(what) + " " + subject + ": " +
                   std::strerror(saved));
}

/// Open the temp file. With `reuse` an existing one keeps its pages (no
/// O_TRUNC), unless another name links its inode, such as an operator's
/// `ln` of an earlier checkpoint, or it is a symlink. Otherwise the file is
/// created exclusively (O_EXCL, which also refuses a symlink), and a stale
/// name left there is dropped first: another name's bytes are never
/// overwritten.
int open_temp(const std::string& temp_path, bool reuse) {
  if (reuse) {
    const int fd = ::open(temp_path.c_str(),
                          O_WRONLY | O_CREAT | O_NOFOLLOW | O_CLOEXEC, 0644);
    struct stat info {};
    if (fd >= 0 && ::fstat(fd, &info) == 0 && info.st_nlink == 1) return fd;
    if (fd >= 0) ::close(fd);
    ::unlink(temp_path.c_str());
  }
  constexpr int kCreate =
      O_WRONLY | O_CREAT | O_EXCL | O_NOFOLLOW | O_CLOEXEC;
  int fd = ::open(temp_path.c_str(), kCreate, 0644);
  if (fd < 0 && errno == EEXIST) {
    ::unlink(temp_path.c_str());
    fd = ::open(temp_path.c_str(), kCreate, 0644);
  }
  if (fd < 0) {
    throw StateError("cannot open " + temp_path + ": " +
                     std::strerror(errno));
  }
  return fd;
}

/// Publish the concatenation of `parts` at `path` without building it,
/// through the temp file `path + ".tmp"`, as `mode` says.
///
/// kReuse overwrites an existing inode, and stays crash-safe because the
/// inode at the temp name is never one that `path` may name: the previous
/// call's exchange moved it there, and that exchange's directory fsync
/// succeeded (a failed one drops the temp name). After a restart the names
/// on disk are the names in memory, so the first call reuses whatever
/// temp file it finds.
void publish(const std::string& path,
             std::initializer_list<std::string_view> parts, Publish mode) {
  const bool durable = mode != Publish::kAtomic;
  const bool reuse = mode == Publish::kReuse;
  const std::string temp_path = path + ".tmp";
  const int fd = open_temp(temp_path, reuse);
  off_t offset = 0;
  for (const std::string_view bytes : parts) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::pwrite(fd, bytes.data() + written,
                                 bytes.size() - written, offset);
      if (n < 0) {
        if (errno == EINTR) continue;
        abandon(fd, temp_path, "write failed on", temp_path);
      }
      written += static_cast<std::size_t>(n);
      offset += n;
    }
  }
  if (reuse && ::ftruncate(fd, offset) != 0) {
    abandon(fd, temp_path, "truncate failed on", temp_path);
  }
  if (durable && ::fsync(fd) != 0) {
    abandon(fd, temp_path, "fsync failed on", temp_path);
  }
  if (::close(fd) != 0) {
    abandon(-1, temp_path, "close failed on", temp_path);
  }
  // kReuse swaps the names, so the replaced file's pages become the next
  // call's temp file. It exchanges only with a regular file: before the
  // first publish, and with a directory or a symlink at `path` (which the
  // exchange would move to the temp name), it renames, which frees the
  // replaced file, as it does where the file system has no exchange
  // (EINVAL).
  struct stat target {};
  const bool exchanged =
      reuse && ::lstat(path.c_str(), &target) == 0 &&
      S_ISREG(target.st_mode) &&
      ::renameat2(AT_FDCWD, temp_path.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) == 0;
  if (!exchanged && ::rename(temp_path.c_str(), path.c_str()) != 0) {
    abandon(-1, temp_path, "cannot rename onto", path);
  }
  if (!durable) return;
  // Persist the name switch itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    abandon(-1, temp_path, "cannot open directory", dir);
  }
  if (::fsync(dir_fd) != 0) {
    abandon(dir_fd, temp_path, "fsync failed on directory", dir);
  }
  ::close(dir_fd);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = kFnvOffsetBasis;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t checkpoint_checksum(std::string_view bytes) noexcept {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  // Eight named lanes, not an array under an inner loop: GCC -O2 turns
  // that loop into SSE2 shift-and-add multiplies, which run ~2x slower
  // than eight scalar imul chains.
  std::uint64_t h0 = kFnvOffsetBasis, h1 = h0, h2 = h0, h3 = h0, h4 = h0,
                h5 = h0, h6 = h0, h7 = h0;
  for (; left >= 64; left -= 64, p += 64) {
    h0 = mix(h0, load<std::uint64_t>(p));
    h1 = mix(h1, load<std::uint64_t>(p + 8));
    h2 = mix(h2, load<std::uint64_t>(p + 16));
    h3 = mix(h3, load<std::uint64_t>(p + 24));
    h4 = mix(h4, load<std::uint64_t>(p + 32));
    h5 = mix(h5, load<std::uint64_t>(p + 40));
    h6 = mix(h6, load<std::uint64_t>(p + 48));
    h7 = mix(h7, load<std::uint64_t>(p + 56));
  }
  std::uint64_t lanes[8] = {h0, h1, h2, h3, h4, h5, h6, h7};
  for (std::uint64_t* lane = lanes; left >= 8; left -= 8, p += 8, ++lane) {
    *lane = mix(*lane, load<std::uint64_t>(p));
  }
  std::uint64_t hash = kFnvOffsetBasis;
  for (const std::uint64_t lane : lanes) hash = mix(hash, lane);
  for (; left > 0; --left, ++p) {
    hash ^= static_cast<unsigned char>(*p);
    hash *= kFnvPrime;
  }
  return hash;
}

std::string encode_checkpoint(std::string_view payload) {
  std::string file = envelope_header(payload);
  file.append(payload);
  return file;
}

std::string decode_checkpoint(std::string file_bytes) {
  file_bytes.erase(0, check_envelope(file_bytes));
  return file_bytes;
}

void write_file_durable(const std::string& path, std::string_view bytes) {
  publish(path, {bytes}, Publish::kDurable);
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  publish(path, {bytes}, Publish::kAtomic);
}

void write_checkpoint_file(const std::string& path,
                           std::string_view payload) {
  publish(path, {envelope_header(payload), payload}, Publish::kReuse);
}

std::string read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StateError("cannot open " + path + ": " + std::strerror(errno));
  }
  // Read straight into the result, sized from fstat (+1 so the EOF read
  // needs no regrowth); grow by doubling if the file is longer.
  struct stat info {};
  std::string bytes(::fstat(fd, &info) == 0 && info.st_size > 0
                        ? static_cast<std::size_t>(info.st_size) + 1
                        : std::size_t{1} << 16,
                    '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == bytes.size()) bytes.resize(2 * size);
    const ssize_t n = ::read(fd, bytes.data() + size, bytes.size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      throw StateError("read failed on " + path + ": " +
                       std::strerror(saved));
    }
    if (n == 0) break;
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(size);
  return bytes;
}

std::string read_checkpoint_file(const std::string& path) {
  return decode_checkpoint(read_file_bytes(path));
}

}  // namespace cea::util
