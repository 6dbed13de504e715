#include "util/state_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
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
constexpr std::size_t kAnyCount = static_cast<std::size_t>(-1);

bool count_led(StateTag tag) noexcept {
  return tag == StateTag::kString || tag == StateTag::kF64s ||
         tag == StateTag::kU64s;
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
    case StateTag::kBool:
    case StateTag::kString:
      return 1;
    case StateTag::kRng:
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
    case StateTag::kRng: return "rng";
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

void StateWriter::write_rng(std::string_view key, const Rng& rng) {
  const Rng::State state = rng.state();
  begin(key, StateTag::kRng);
  for (std::uint64_t word : state.s) append_raw(payload_, word);
  append_raw(payload_, state.cached_normal);
  payload_.push_back(state.has_cached_normal ? 1 : 0);
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
  // A bool, and the cache flag ending an RNG, must be 0 or 1.
  if (record.tag == StateTag::kBool || record.tag == StateTag::kRng) {
    const char flag = record.value.back();
    if (flag != 0 && flag != 1) fail(key, "flag byte is neither 0 nor 1");
  }
  remaining_ = in.substr(record.value.size());
  return record;
}

StateRecord StateReader::take(std::string_view key, StateTag tag) {
  const StateRecord record = take(key);
  if (record.tag != tag) {
    fail(key, "expected type " + std::string(tag_name(tag)) + ", found " +
                  std::string(tag_name(record.tag)));
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
  const StateRecord record = take(key, tag);
  if (expected != kAnyCount && record.count != expected) {
    fail(key, "expected " + std::to_string(expected) + " elements, found " +
                  std::to_string(record.count));
  }
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

void StateReader::read_rng(std::string_view key, Rng& rng) {
  const char* bytes = take(key, StateTag::kRng).value.data();
  Rng::State state{};
  for (auto& word : state.s) {
    word = load<std::uint64_t>(bytes);
    bytes += sizeof(std::uint64_t);
  }
  state.cached_normal = load<double>(bytes);
  state.has_cached_normal = bytes[sizeof(double)] != 0;
  rng.set_state(state);
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
      case StateTag::kRng:
        for (int i = 0; i < 4; ++i) {
          out.push_back(' ');
          out += format_u64(load<std::uint64_t>(bytes + 8 * i));
        }
        out.push_back(' ');
        out += format_double_exact(load<double>(bytes + 32));
        out += bytes[40] != 0 ? " 1" : " 0";
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

/// write_file_atomic over the concatenation of `parts`, without building it.
void publish_atomic(const std::string& path,
                    std::initializer_list<std::string_view> parts) {
  const std::string temp_path = path + ".tmp";
  const int fd = ::open(temp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw StateError("checkpoint: cannot open " + temp_path + ": " +
                     std::strerror(errno));
  }
  for (const std::string_view bytes : parts) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int saved = errno;
        ::close(fd);
        ::unlink(temp_path.c_str());
        throw StateError("checkpoint: write failed on " + temp_path + ": " +
                         std::strerror(saved));
      }
      written += static_cast<std::size_t>(n);
    }
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(temp_path.c_str());
    throw StateError("checkpoint: fsync failed on " + temp_path + ": " +
                     std::strerror(saved));
  }
  ::close(fd);
  if (::rename(temp_path.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(temp_path.c_str());
    throw StateError("checkpoint: rename to " + path + " failed: " +
                     std::strerror(saved));
  }
  // Persist the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
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
  std::uint64_t hash = kFnvOffsetBasis;
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 8; left -= 8, p += 8) {
    hash ^= load<std::uint64_t>(p);
    hash *= kFnvPrime;
    hash ^= hash >> 32;
  }
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

void write_file_atomic(const std::string& path, std::string_view bytes) {
  publish_atomic(path, {bytes});
}

void write_checkpoint_file(const std::string& path,
                           std::string_view payload) {
  publish_atomic(path, {envelope_header(payload), payload});
}

std::string read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StateError("checkpoint: cannot open " + path + ": " +
                     std::strerror(errno));
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
      throw StateError("checkpoint: read failed on " + path + ": " +
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
