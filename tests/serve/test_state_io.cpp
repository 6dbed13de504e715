#include "util/state_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../integration/golden_trace.h"
#include "data/trace_io.h"
#include "serve/controller.h"
#include "serve/feed.h"
#include "util/csv.h"
#include "util/numio.h"
#include "util/rng.h"

namespace cea::util {
namespace {

// ---------------------------------------------------------------------------
// numio: locale-independent parsing / exact formatting
// ---------------------------------------------------------------------------

TEST(NumIo, ParsesDecimalForms) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("7.4", v));
  EXPECT_DOUBLE_EQ(v, 7.4);
  EXPECT_TRUE(parse_double("-1e-3", v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(parse_double("inf", v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_TRUE(parse_double("nan", v));
  EXPECT_TRUE(std::isnan(v));
}

TEST(NumIo, ParsesHexFloatForms) {
  double v = 0.0;
  ASSERT_TRUE(parse_double("0x1.8p+3", v));
  EXPECT_DOUBLE_EQ(v, 12.0);
  ASSERT_TRUE(parse_double("-0X1p-2", v));
  EXPECT_DOUBLE_EQ(v, -0.25);
}

TEST(NumIo, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("7.4x", v));   // trailing garbage
  EXPECT_FALSE(parse_double(" 7.4", v));   // leading whitespace
  EXPECT_FALSE(parse_double("7.4 ", v));   // trailing whitespace
  EXPECT_FALSE(parse_double("7,4", v));    // locale comma is never accepted
}

TEST(NumIo, ExactFormatRoundTripsBitForBit) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      -12345.6789,
      1e308,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
  };
  for (const double value : values) {
    double parsed = 0.0;
    const std::string text = format_double_exact(value);
    ASSERT_TRUE(parse_double(text, parsed)) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(parsed))
        << text;
  }
}

TEST(NumIo, IntegerParsersRejectSignAndOverflow) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64("18446744073709551616", u));  // overflow
  EXPECT_FALSE(parse_u64("-1", u));
  EXPECT_FALSE(parse_u64("12x", u));
  EXPECT_FALSE(parse_u64("", u));
  std::int64_t i = 0;
  EXPECT_TRUE(parse_i64("-42", i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(parse_i64("9223372036854775808", i));  // overflow
}

// ---------------------------------------------------------------------------
// StateWriter / StateReader
// ---------------------------------------------------------------------------

TEST(StateIo, WriterReaderRoundTripAllTypes) {
  StateWriter writer;
  writer.write_u64("u", 42);
  writer.write_i64("i", -7);
  writer.write_bool("b", true);
  writer.write_double("d", 0.1);
  writer.write_string("s", "hello world");
  const std::vector<double> doubles = {1.5, -0.0, 1e-9};
  writer.write_doubles("ds", doubles);
  const std::vector<std::uint64_t> u64s = {0, 1, 99};
  writer.write_u64s("us", u64s);
  Rng rng(123);
  rng.normal();  // populate the Box-Muller cache so it must round-trip too
  writer.write_rng("r", rng);

  StateReader reader(writer.payload());
  EXPECT_EQ(reader.read_u64("u"), 42u);
  EXPECT_EQ(reader.read_i64("i"), -7);
  EXPECT_TRUE(reader.read_bool("b"));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.read_double("d")),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(reader.read_string("s"), "hello world");
  EXPECT_EQ(reader.read_doubles("ds", doubles.size()), doubles);
  EXPECT_EQ(reader.read_u64s("us", u64s.size()), u64s);
  Rng restored(0);
  reader.read_rng("r", restored);
  reader.expect_end();
  for (int k = 0; k < 32; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal()),
              std::bit_cast<std::uint64_t>(restored.normal()));
  }
}

TEST(StateIo, ReaderThrowsOnKeyMismatch) {
  StateWriter writer;
  writer.write_u64("expected", 1);
  StateReader reader(writer.payload());
  EXPECT_THROW(reader.read_u64("other"), StateError);
}

TEST(StateIo, ReaderThrowsOnTypeConfusionAndPrematureEnd) {
  StateWriter writer;
  writer.write_string("s", "not a number");
  StateReader reader(writer.payload());
  EXPECT_THROW(reader.read_u64("s"), StateError);
  StateReader empty("");
  EXPECT_THROW(empty.read_u64("s"), StateError);
}

TEST(StateIo, ExpectEndThrowsOnTrailingData) {
  StateWriter writer;
  writer.write_u64("a", 1);
  writer.write_u64("b", 2);
  StateReader reader(writer.payload());
  reader.read_u64("a");
  EXPECT_FALSE(reader.at_end());
  EXPECT_THROW(reader.expect_end(), StateError);
}

TEST(StateIo, VectorCountMismatchThrows) {
  StateWriter writer;
  writer.write_doubles("v", std::vector<double>{1.0, 2.0});
  StateReader reader(writer.payload());
  EXPECT_THROW(reader.read_doubles("v", 3), StateError);
}

TEST(StateIo, RecordIsKeyLengthKeyTagAndRawLittleEndianValue) {
  StateWriter writer;
  writer.write_u64("k", 0x0102030405060708ULL);
  writer.write_doubles("v", std::vector<double>{1.0});
  const std::string u64_record(
      "\x01" "k" "\x01" "\x08\x07\x06\x05\x04\x03\x02\x01", 11);
  const std::string doubles_record(
      "\x01" "v" "\x06" "\x01\0\0\0\0\0\0\0" "\0\0\0\0\0\0\xf0\x3f", 19);
  EXPECT_EQ(writer.payload(), u64_record + doubles_record);
}

TEST(StateIo, WriterRejectsEmptyAndOverlongKeys) {
  StateWriter writer;
  EXPECT_THROW(writer.write_u64("", 1), StateError);
  EXPECT_THROW(writer.write_u64(std::string(256, 'k'), 1), StateError);
  EXPECT_TRUE(writer.payload().empty());
  writer.write_u64(std::string(255, 'k'), 1);
  StateReader reader(writer.payload());
  EXPECT_EQ(reader.read_u64(std::string(255, 'k')), 1u);
  reader.expect_end();
}

TEST(StateIo, TakeMovesThePayloadOut) {
  StateWriter writer(1024);
  writer.write_u64("a", 1);
  const std::string expected = writer.payload();
  EXPECT_EQ(writer.take(), expected);
  EXPECT_TRUE(writer.payload().empty());
}

TEST(StateIo, DumpStateRendersEveryRecordType) {
  StateWriter writer;
  writer.write_u64("u", 42);
  writer.write_i64("i", -7);
  writer.write_bool("b", true);
  writer.write_double("d", 0.5);
  writer.write_string("s", "a b\\");
  writer.write_doubles("ds", std::vector<double>{1.5, -0.0});
  writer.write_u64s("us", std::vector<std::uint64_t>{});
  const Rng rng(3);
  writer.write_rng("r", rng);
  const Rng::State state = rng.state();
  std::string expected = "u u64 1 42\ni i64 1 -7\nb bool 1 1\nd f64 1 " +
                         format_double_exact(0.5) + "\ns str 4 a\\x20b\\x5c\n" +
                         "ds f64[] 2 " + format_double_exact(1.5) + " " +
                         format_double_exact(-0.0) + "\nus u64[] 0\nr rng 1";
  for (const std::uint64_t word : state.s) expected += " " + format_u64(word);
  expected += " " + format_double_exact(state.cached_normal) + " 0\n";
  EXPECT_EQ(dump_state(writer.payload()), expected);
  EXPECT_EQ(dump_state(""), "");
}

// ---------------------------------------------------------------------------
// Hostile payloads: every damaged input either throws StateError or
// restores state that serializes back to exactly the same bytes. Another
// exception type fails the test; a crash or UB trips the sanitizer build.
// ---------------------------------------------------------------------------

// A 2-tenant x 3-edge controller advanced 5 slots: a real payload holding
// the engine's, the SoA fleet's and the carbon trader's records.
std::vector<serve::TenantSpec> hostile_specs() {
  std::vector<serve::TenantSpec> specs;
  for (const char* name : {"alpha", "beta"}) {
    serve::TenantSpec spec;
    spec.name = name;
    spec.scenario = sim::golden::golden_config();
    spec.scenario.num_edges = 3;
    spec.scenario.horizon = 16;
    spec.scenario.workload.num_slots = 16;
    spec.scenario.seed = 17 + specs.size();
    spec.combo = sim::ours_combo();
    spec.run_seed = 7 + specs.size();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string hostile_payload(
    const std::vector<serve::TenantSpec>& specs = hostile_specs()) {
  serve::ServeController controller(specs, sim::SimOptions{});
  serve::SyntheticFeed feed(controller.total_edges(), 9);
  serve::SlotInput input;
  while (controller.slot() < 5) {
    EXPECT_EQ(feed.poll(controller.slot(), input), serve::FeedStatus::kReady);
    controller.step(input.quote, input.workload);
  }
  return controller.checkpoint_payload();
}

/// Restore `payload`; a StateError is a pass, a success must round-trip.
void expect_rejected_or_exact(serve::ServeController& controller,
                              const std::string& payload,
                              const std::string& label) {
  try {
    controller.restore_payload(payload);
  } catch (const StateError&) {
    return;
  }
  EXPECT_EQ(controller.checkpoint_payload(), payload) << label;
}

TEST(StateIoHostile, PayloadTruncatedAtEveryOffset) {
  const std::string payload = hostile_payload();
  serve::ServeController controller(hostile_specs(), sim::SimOptions{});
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_THROW(controller.restore_payload(payload.substr(0, size)),
                 StateError)
        << "truncated to " << size << " of " << payload.size() << " bytes";
  }
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, EveryRecordHeaderByteFlipped) {
  const std::string payload = hostile_payload();
  // Header = key length, key, tag and (strings, vectors) the count: the
  // bytes from just before the key to the start of the value.
  std::vector<std::pair<std::size_t, std::size_t>> headers;
  std::set<StateTag> tags;
  StateReader reader(payload);
  while (!reader.at_end()) {
    const StateRecord record = reader.next_record();
    headers.emplace_back(
        static_cast<std::size_t>(record.key.data() - payload.data()) - 1,
        static_cast<std::size_t>(record.value.data() - payload.data()));
    tags.insert(record.tag);
  }
  for (const StateTag tag :
       {StateTag::kU64, StateTag::kBool, StateTag::kF64, StateTag::kString,
        StateTag::kF64s, StateTag::kU64s, StateTag::kRng}) {
    EXPECT_TRUE(tags.count(tag)) << "payload lacks tag " << int(tag);
  }
  serve::ServeController controller(hostile_specs(), sim::SimOptions{});
  for (const auto& [begin, end] : headers) {
    for (std::size_t i = begin; i < end; ++i) {
      for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
        std::string damaged = payload;
        damaged[i] = static_cast<char>(damaged[i] ^ mask);
        expect_rejected_or_exact(controller, damaged,
                                 "byte " + std::to_string(i) + " ^ " +
                                     std::to_string(mask));
      }
    }
  }
}

// Overwrite the count of the payload's first record (a count-led one).
std::string with_count(std::string payload, std::uint64_t count) {
  const std::size_t at = 1 + static_cast<unsigned char>(payload[0]) + 1;
  std::memcpy(payload.data() + at, &count, sizeof count);
  return payload;
}

TEST(StateIoHostile, ForgedCountThrowsBeforeAllocating) {
  // 2^61 elements of 8 bytes wrap to 0 in 64 bits, so the reader must
  // bound the count by division, and before sizing a container: sizing
  // first would throw std::length_error or std::bad_alloc, not StateError.
  constexpr std::uint64_t kForged = std::uint64_t{1} << 61;
  StateWriter doubles;
  doubles.write_doubles("v", std::vector<double>{1.0, 2.0});
  StateWriter u64s;
  u64s.write_u64s("v", std::vector<std::uint64_t>{1, 2});
  StateWriter text;
  text.write_string("v", "ab");
  const std::string forged = with_count(doubles.payload(), kForged);
  EXPECT_THROW(StateReader(forged).read_doubles("v"), StateError);
  EXPECT_THROW(StateReader(forged).read_doubles("v", kForged), StateError);
  EXPECT_THROW(StateReader(with_count(u64s.payload(), kForged)).read_u64s("v"),
               StateError);
  EXPECT_THROW(
      StateReader(with_count(text.payload(), kForged)).read_string("v"),
      StateError);
  EXPECT_THROW(dump_state(forged), StateError);
}

// Overwrite element `index` of the first u64 or u64[] record named `key`,
// leaving every other byte alone.
std::string with_u64(std::string payload, std::string_view key,
                     std::size_t index, std::uint64_t value) {
  StateReader reader(payload);
  while (!reader.at_end()) {
    const StateRecord record = reader.next_record();
    if (record.key != key) continue;
    const std::size_t at =
        static_cast<std::size_t>(record.value.data() - payload.data()) +
        index * sizeof value;
    std::memcpy(payload.data() + at, &value, sizeof value);
    return payload;
  }
  ADD_FAILURE() << "payload has no record " << key;
  return payload;
}

TEST(StateIoHostile, FleetCursorFieldsAreRangeCheckedBeforeNarrowing) {
  // The SoA fleet stores these fields in 32- and 8-bit arrays. Each forged
  // value below would narrow to an in-range one (2^32 + 1 to arm 1, 256 to
  // a closed block), so only a check on the checkpointed value rejects it.
  constexpr std::uint64_t k2to32 = std::uint64_t{1} << 32;
  const std::vector<std::pair<std::string, std::uint64_t>> forgeries = {
      {"btfleet.current_arm", k2to32 + 1}, {"btfleet.block_index", k2to32 + 7},
      {"btfleet.slots_left", k2to32 + 3},  {"btfleet.block_open", 256},
      {"btfleet.presolved", 2},
  };
  const std::string payload = hostile_payload();
  serve::ServeController controller(hostile_specs(), sim::SimOptions{});
  for (const auto& [key, value] : forgeries) {
    EXPECT_THROW(controller.restore_payload(with_u64(payload, key, 0, value)),
                 StateError)
        << key << " = " << value;
  }
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, ForgedUcbArmAndEpochCountThrow) {
  // UCB-LY tenants: per-edge UCB2 policies behind the fleet adapter. A
  // forged arm with plays left would be handed to the engine's per-model
  // tables on the next step; a forged epoch count would overflow the
  // integer epoch length select() computes from it.
  auto specs = hostile_specs();
  for (const auto& combo : sim::baseline_combos()) {
    if (combo.name != "UCB-LY") continue;
    for (auto& spec : specs) spec.combo = combo;
  }
  ASSERT_EQ(specs.front().combo.name, "UCB-LY");
  const std::string payload = hostile_payload(specs);
  serve::ServeController controller(specs, sim::SimOptions{});
  const std::string forged_arm = with_u64(
      with_u64(payload, "ucb2.current_arm", 0, 1000000),
      "ucb2.remaining_plays", 0, 5);
  EXPECT_THROW(controller.restore_payload(forged_arm), StateError);
  EXPECT_THROW(
      controller.restore_payload(with_u64(payload, "ucb2.epochs", 0, 1700)),
      StateError);
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, KeyLengthPastTheEndThrows) {
  StateWriter writer;
  writer.write_u64("key", 1);
  std::string payload = writer.payload();
  payload[0] = static_cast<char>(200);
  EXPECT_THROW(StateReader(payload).read_u64("key"), StateError);
  EXPECT_THROW(dump_state(payload), StateError);
  EXPECT_THROW(StateReader(std::string(1, '\x05')).next_record(), StateError);
}

TEST(StateIoHostile, UnknownTagAndOutOfRangeFlagsThrow) {
  StateWriter writer;
  writer.write_bool("b", true);
  std::string payload = writer.payload();
  payload[2] = 0x7F;  // the tag byte
  EXPECT_THROW(StateReader(payload).read_bool("b"), StateError);
  EXPECT_THROW(dump_state(payload), StateError);
  payload = writer.payload();
  payload[3] = 2;  // the bool byte
  EXPECT_THROW(StateReader(payload).read_bool("b"), StateError);
  EXPECT_THROW(dump_state(payload), StateError);

  StateWriter rng_writer;
  rng_writer.write_rng("r", Rng(1));
  payload = rng_writer.payload();
  payload.back() = 2;  // the Box-Muller cache flag
  Rng rng(0);
  EXPECT_THROW(StateReader(payload).read_rng("r", rng), StateError);
  EXPECT_THROW(dump_state(payload), StateError);
}

// ---------------------------------------------------------------------------
// Checkpoint envelope
// ---------------------------------------------------------------------------

TEST(Checkpoint, ChecksumKnownAnswers) {
  // Values from an independent implementation of the definition in
  // state_io.h. Up to 7 bytes it is FNV-1a; "a" is FNV-1a's own test vector.
  EXPECT_EQ(checkpoint_checksum(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(checkpoint_checksum("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(checkpoint_checksum("abcdefgh"), 0x3919eeb037f8083cULL);
  EXPECT_EQ(checkpoint_checksum("abcdefghi"), 0xff18ea6f1a76286fULL);
  std::string ramp;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (int byte = 0; byte < 256; ++byte) {
      ramp.push_back(static_cast<char>(byte));
    }
  }
  EXPECT_EQ(checkpoint_checksum(ramp), 0x2db58ae3ba083421ULL);
  // The byte-serial FNV-1a of the journal is a different function.
  EXPECT_EQ(fnv1a64("abcdefgh"), 0x25da8c1836a8d66dULL);
}

TEST(Checkpoint, EverySingleBitFlipInThePayloadIsRejected) {
  StateWriter writer;
  writer.write_u64("engine.slot", 80);
  writer.write_doubles("engine.emissions",
                       std::vector<double>{0.25, 1.0 / 3.0, -7.5});
  writer.write_string("engine.algorithm", "Ours");
  ASSERT_NE(writer.payload().size() % 8, 0u);  // the tail path is covered
  const std::string file = encode_checkpoint(writer.payload());
  const std::size_t payload_at = file.find('\n') + 1;
  for (std::size_t i = payload_at; i < file.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = file;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_THROW(decode_checkpoint(flipped), StateError)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Checkpoint, RejectsVersionOneTextCheckpoint) {
  // A well-formed v1 file: hex-float text lines under a byte-serial FNV-1a.
  const std::string v1 =
      "CEA-CHECKPOINT v1 39 165eeb22ca0baeec\n"
      "engine.slot 80\nengine.balance 0x1.8p+3\n";
  try {
    decode_checkpoint(v1);
    FAIL() << "a v1 checkpoint was accepted";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version v1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsVersionTwoCheckpoint) {
  // A v2 envelope is intact but lacks the v3 engine records
  // (engine.horizon, engine.env_fingerprint): refused by version.
  std::string file = encode_checkpoint("k u64 1\n");
  const auto pos = file.find(" v" + std::to_string(kCheckpointVersion) + " ");
  ASSERT_NE(pos, std::string::npos);
  file.replace(pos, 3, " v2");
  try {
    decode_checkpoint(file);
    FAIL() << "a v2 checkpoint was accepted";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version v2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const std::string payload = "engine.slot u64 5\nengine.x d 0x1.8p+3\n";
  EXPECT_EQ(decode_checkpoint(encode_checkpoint(payload)), payload);
}

TEST(Checkpoint, DecodeRejectsBadMagic) {
  EXPECT_THROW(decode_checkpoint("NOT-A-CHECKPOINT v1 0 0\n"), StateError);
  EXPECT_THROW(decode_checkpoint(""), StateError);
}

TEST(Checkpoint, DecodeRejectsVersionMismatch) {
  std::string file = encode_checkpoint("k u64 1\n");
  const auto pos = file.find("v" + std::to_string(kCheckpointVersion));
  ASSERT_NE(pos, std::string::npos);
  file[pos + 1] = '9';
  EXPECT_THROW(decode_checkpoint(file), StateError);
}

TEST(Checkpoint, DecodeRejectsTruncation) {
  const std::string file = encode_checkpoint("key u64 123456789\n");
  EXPECT_THROW(decode_checkpoint(file.substr(0, file.size() - 4)), StateError);
}

TEST(Checkpoint, DecodeRejectsCorruptedPayloadByte) {
  std::string file = encode_checkpoint("key u64 123456789\n");
  file[file.size() - 3] ^= 0x01;  // flip a bit inside the payload
  EXPECT_THROW(decode_checkpoint(file), StateError);
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_ckpt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(CheckpointFileTest, WriteReadRoundTrip) {
  const std::string payload = "engine.slot u64 80\n";
  write_checkpoint_file(path_, payload);
  EXPECT_EQ(read_checkpoint_file(path_), payload);
  // No temp file is left behind after a successful atomic publish.
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(CheckpointFileTest, OverwriteReplacesAtomically) {
  write_checkpoint_file(path_, "a u64 1\n");
  write_checkpoint_file(path_, "a u64 2\n");
  EXPECT_EQ(read_checkpoint_file(path_), "a u64 2\n");
}

TEST_F(CheckpointFileTest, ReadRejectsMissingFile) {
  EXPECT_THROW(read_checkpoint_file(path_ + ".does-not-exist"), StateError);
}

TEST_F(CheckpointFileTest, ReadRejectsTruncatedFile) {
  write_checkpoint_file(path_, "engine.slot u64 123456\n");
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_THROW(read_checkpoint_file(path_), StateError);
}

// ---------------------------------------------------------------------------
// Locale regression: every serialization path must ignore LC_NUMERIC.
// Skipped when the host lacks the de_DE.UTF-8 locale.
// ---------------------------------------------------------------------------

class LocaleGuard {
 public:
  explicit LocaleGuard(const char* name) {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
    active_ = std::setlocale(LC_ALL, name) != nullptr;
  }
  ~LocaleGuard() { std::setlocale(LC_ALL, saved_.c_str()); }
  bool active() const noexcept { return active_; }

 private:
  std::string saved_;
  bool active_ = false;
};

#define CEA_REQUIRE_DE_LOCALE(guard)                                   \
  LocaleGuard guard("de_DE.UTF-8");                                    \
  if (!guard.active()) {                                               \
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed on this host";   \
  }

TEST(LocaleRegression, NumIoIgnoresCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  double v = 0.0;
  ASSERT_TRUE(parse_double("7.4", v));
  EXPECT_DOUBLE_EQ(v, 7.4);
  EXPECT_FALSE(parse_double("7,4", v));
  EXPECT_EQ(format_double(0.5, 3).find(','), std::string::npos);
  const std::string exact = format_double_exact(0.1);
  EXPECT_EQ(exact.find(','), std::string::npos);
  double parsed = 0.0;
  ASSERT_TRUE(parse_double(exact, parsed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
            std::bit_cast<std::uint64_t>(0.1));
}

TEST(LocaleRegression, StateIoRoundTripsUnderCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  StateWriter writer;
  writer.write_double("d", 1.0 / 3.0);
  writer.write_doubles("v", std::vector<double>{0.1, -2.5e-7});
  StateReader reader(writer.payload());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.read_double("d")),
            std::bit_cast<std::uint64_t>(1.0 / 3.0));
  const auto v = reader.read_doubles("v", 2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v[0]),
            std::bit_cast<std::uint64_t>(0.1));
}

TEST(LocaleRegression, CsvExactRowsUnderCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  const std::string path = ::testing::TempDir() + "cea_locale_csv.csv";
  {
    CsvWriter writer(path);
    writer.write_row_exact("row", {0.1, 7.4});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  in.close();
  std::remove(path.c_str());
  // Three cells exactly: a comma-decimal "0,1" would add a fourth.
  EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);
  const auto second_comma = line.find(',', line.find(',') + 1);
  double parsed = 0.0;
  ASSERT_TRUE(parse_double(
      line.substr(line.find(',') + 1, second_comma - line.find(',') - 1),
      parsed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
            std::bit_cast<std::uint64_t>(0.1));
}

TEST(LocaleRegression, TraceIoRoundTripsUnderCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  const std::string workload_path =
      ::testing::TempDir() + "cea_locale_workload.csv";
  const std::string prices_path =
      ::testing::TempDir() + "cea_locale_prices.csv";
  Rng rng(5);
  data::WorkloadConfig config;
  config.num_slots = 16;
  const auto workload = data::generate_workload(3, config, rng);
  const auto prices = data::generate_prices(16, {}, rng);
  data::save_workload_csv(workload, workload_path);
  data::save_prices_csv(prices, prices_path);
  const auto workload_back = data::load_workload_csv(workload_path);
  const auto prices_back = data::load_prices_csv(prices_path);
  std::remove(workload_path.c_str());
  std::remove(prices_path.c_str());
  EXPECT_EQ(workload_back, workload);
  ASSERT_EQ(prices_back.size(), prices.size());
  for (std::size_t t = 0; t < prices.size(); ++t) {
    EXPECT_NEAR(prices_back.buy[t], prices.buy[t], 1e-9);
    EXPECT_NEAR(prices_back.sell[t], prices.sell[t], 1e-9);
  }
}

// Strict count validation in the workload loader (satellite: trace-I/O
// parsing fixes) — rejections must name the offending line.

class StrictWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_strict_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  void write(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }
  std::string path_;
};

TEST_F(StrictWorkloadTest, RejectsNonIntegralCount) {
  write("10,3.7,30\n");
  EXPECT_THROW(data::load_workload_csv(path_), std::runtime_error);
}

TEST_F(StrictWorkloadTest, RejectsCountBeyondIntRange) {
  write("10,5000000000,30\n");
  EXPECT_THROW(data::load_workload_csv(path_), std::runtime_error);
}

TEST_F(StrictWorkloadTest, ErrorNamesTheLine) {
  write("10,20,30\n40,bad,60\n");
  try {
    data::load_workload_csv(path_);
    FAIL() << "expected a parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cea::util
