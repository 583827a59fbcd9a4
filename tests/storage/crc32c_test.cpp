// CRC32C coverage: the RFC 3720 §B.4 vectors, seed chaining, equality of
// the dispatched path (hardware where the CPU has it) with the portable
// table loop, and byte-identical storage frames across implementations.
#include "storage/crc32c.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "storage/segment.h"

namespace pe::storage {
namespace {

TEST(Crc32c, KnownVectorAndSensitivity) {
  // RFC 3720 test vector: 32 zero bytes.
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  Bytes flipped = zeros;
  flipped[7] ^= 1;
  EXPECT_NE(crc32c(flipped.data(), flipped.size()), 0x8A9136AAu);
}

TEST(Crc32c, SeedChains) {
  const Bytes data{1, 2, 3, 4, 5, 6};
  const std::uint32_t whole = crc32c(data.data(), data.size());
  const std::uint32_t first = crc32c(data.data(), 3);
  EXPECT_EQ(crc32c(data.data() + 3, 3, first), whole);
}

TEST(Crc32c, Rfc3720Vectors) {
  Bytes buf(32, 0xFF);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  for (std::size_t i = 0; i < 32; ++i) buf[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x46DD794Eu);
  for (std::size_t i = 0; i < 32; ++i) {
    buf[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
  // iSCSI SCSI Read (10) command PDU.
  const std::array<std::uint8_t, 48> pdu = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(crc32c(pdu.data(), pdu.size()), 0xD9963A56u);
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(crc32c(check.data(), 0), 0u);
}

TEST(Crc32c, DispatchedPathMatchesTableLoop) {
  Rng rng(20210517);
  Bytes buf(4096 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // Every length 0..4096 at every start offset 0..7 (alignment and the
  // 8-byte step's tail). Each checksum seeds the next, so chaining is
  // checked on every call.
  std::uint32_t seed = 0;
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::uint8_t* p = buf.data() + start;
      const std::uint32_t got = crc32c(p, len, seed);
      ASSERT_EQ(got, detail::crc32c_table(p, len, seed))
          << "start " << start << " len " << len;
      seed = got;
    }
  }
}

#if defined(__x86_64__)
TEST(Crc32c, HardwareLoopMatchesTableLoopWhenAvailable) {
  if (!__builtin_cpu_supports("sse4.2")) {
    GTEST_SKIP() << "CPU lacks SSE4.2; the table loop is the only path";
  }
  EXPECT_EQ(detail::crc32c_impl(), &detail::crc32c_sse42);
  Rng rng(99);
  Bytes buf(300);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    ASSERT_EQ(detail::crc32c_sse42(buf.data(), len, 0xDEADBEEFu),
              detail::crc32c_table(buf.data(), len, 0xDEADBEEFu))
        << "len " << len;
  }
}
#endif

// A storage frame as the table-only implementation wrote it: format and
// checksum must survive any change of CRC implementation.
const Bytes kGoldenFrame = {
    0x50, 0x00, 0x00, 0x00, 0xC8, 0x78, 0x87, 0xEE, 0x2A, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x15, 0xCD, 0x85, 0x3D, 0xFE, 0x9C, 0x97, 0x17,
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x08, 0x00, 0x00, 0x00,
    0x73, 0x65, 0x6E, 0x73, 0x6F, 0x72, 0x2D, 0x37, 0x28, 0x00, 0x00, 0x00,
    0x03, 0x0A, 0x11, 0x18, 0x1F, 0x26, 0x2D, 0x34, 0x3B, 0x42, 0x49, 0x50,
    0x57, 0x5E, 0x65, 0x6C, 0x73, 0x7A, 0x81, 0x88, 0x8F, 0x96, 0x9D, 0xA4,
    0xAB, 0xB2, 0xB9, 0xC0, 0xC7, 0xCE, 0xD5, 0xDC, 0xE3, 0xEA, 0xF1, 0xF8,
    0xFF, 0x06, 0x0D, 0x14};

broker::Record golden_record() {
  broker::Record r;
  r.key = "sensor-7";
  Bytes value(40);
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  r.value = broker::Payload(std::move(value));
  r.client_timestamp_ns = 0x1122334455667788ull;
  return r;
}

TEST(Crc32c, FrameWrittenBeforeStillParses) {
  FrameView v;
  ASSERT_EQ(parse_frame(kGoldenFrame.data(), kGoldenFrame.size(), &v),
            FrameParse::kOk);
  EXPECT_EQ(v.offset, 42u);
  EXPECT_EQ(v.broker_timestamp_ns, 1700000000123456789ull);
  EXPECT_EQ(v.client_timestamp_ns, 0x1122334455667788ull);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(v.key), v.key_len),
            "sensor-7");
  ASSERT_EQ(v.value_len, 40u);
  EXPECT_EQ(v.value[39], static_cast<std::uint8_t>(39 * 7 + 3));
  EXPECT_EQ(v.frame_bytes, kGoldenFrame.size());
}

TEST(Crc32c, FrameEncodesByteIdentically) {
  Bytes out;
  encode_frame(out, 42, 1700000000123456789ull, golden_record());
  EXPECT_EQ(out, kGoldenFrame);
}

}  // namespace
}  // namespace pe::storage
