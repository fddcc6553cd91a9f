#include "util/binary_io.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fdm {
namespace {

TEST(BinaryIoTest, ScalarAndStringRoundTrip) {
  SnapshotWriter writer;
  writer.WriteU8(7);
  writer.WriteBool(true);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(1ull << 40);
  writer.WriteI32(-12345);
  writer.WriteI64(-(1ll << 50));
  writer.WriteDouble(0.1234567890123456789);
  writer.WriteString("hello snapshot");
  writer.WriteDoubleSpan(std::vector<double>{1.5, -2.5, 1e-300});

  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->ReadU8(), 7);
  EXPECT_TRUE(reader->ReadBool());
  EXPECT_EQ(reader->ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader->ReadU64(), 1ull << 40);
  EXPECT_EQ(reader->ReadI32(), -12345);
  EXPECT_EQ(reader->ReadI64(), -(1ll << 50));
  EXPECT_EQ(reader->ReadDouble(), 0.1234567890123456789);  // bit-exact
  EXPECT_EQ(reader->ReadString(), "hello snapshot");
  EXPECT_EQ(reader->ReadDoubleVec(), (std::vector<double>{1.5, -2.5, 1e-300}));
  EXPECT_TRUE(reader->ok());
  EXPECT_EQ(reader->Remaining(), 0u);
}

TEST(BinaryIoTest, PeekStringDoesNotConsume) {
  SnapshotWriter writer;
  writer.WriteString("tag");
  writer.WriteI32(42);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->PeekString(), "tag");
  EXPECT_EQ(reader->PeekString(), "tag");
  EXPECT_EQ(reader->ReadString(), "tag");
  EXPECT_EQ(reader->ReadI32(), 42);
}

TEST(BinaryIoTest, ReadPastEndLatchesStickyError) {
  SnapshotWriter writer;
  writer.WriteU32(1);
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadU32(), 1u);
  EXPECT_EQ(reader->ReadU64(), 0u);  // past end: zero value
  EXPECT_FALSE(reader->ok());
  EXPECT_EQ(reader->ReadU32(), 0u);  // stays failed
  EXPECT_FALSE(reader->status().ok());
}

TEST(BinaryIoTest, HugeLengthPrefixIsRejectedWithoutAllocating) {
  SnapshotWriter writer;
  writer.WriteU64(~0ull);  // claims a ~2^64-byte string follows
  auto reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadString(), "");
  EXPECT_FALSE(reader->ok());
}

TEST(BinaryIoTest, ChecksumCatchesBitFlip) {
  SnapshotWriter writer;
  writer.WriteString("payload payload payload");
  std::string framed = writer.Serialize();
  framed[framed.size() - 12] ^= 1;  // inside the payload
  EXPECT_FALSE(SnapshotReader::FromBytes(framed).ok());
}

TEST(BinaryIoTest, Fnv1a64MatchesKnownVector) {
  // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c (published test vector).
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
}

TEST(BinaryIoTest, ReadFileToStringReadsFromAnOffsetToTheEnd) {
  const std::string path = ::testing::TempDir() + "/binary_io_read_test.bin";
  std::string contents(100000, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 31 + 7);  // binary, NULs included
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  auto whole = ReadFileToString(path);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, contents);
  auto tail = ReadFileToString(path, 99000);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(*tail, contents.substr(99000));
  auto at_end = ReadFileToString(path, contents.size());
  ASSERT_TRUE(at_end.ok()) << at_end.status().ToString();
  EXPECT_TRUE(at_end->empty());

  EXPECT_FALSE(ReadFileToString(path, contents.size() + 1).ok());
  EXPECT_FALSE(ReadFileToString(path + ".missing").ok());
  std::remove(path.c_str());
}


TEST(BinaryIoTest, ChecksumFileEqualsWholeFileHash) {
  const std::string path = ::testing::TempDir() + "/binary_io_checksum.bin";
  constexpr size_t kBuf = 64 << 10;  // the helper's read buffer
  for (const size_t size : {size_t{0}, size_t{1}, kBuf - 1, kBuf, kBuf + 1,
                            size_t{4} << 20}) {
    std::string contents(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      contents[i] = static_cast<char>(i * 131 + (i >> 16));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << contents;
    }
    auto sum = ChecksumFile(path);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    EXPECT_EQ(sum->bytes, size);
    EXPECT_EQ(sum->checksum, Fnv1a64(contents.data(), contents.size()))
        << "size " << size;
  }
  std::remove(path.c_str());
  EXPECT_FALSE(ChecksumFile(path + ".missing").ok());
}

TEST(BinaryIoTest, WriteFileEqualsSerialize) {
  const std::string path = ::testing::TempDir() + "/binary_io_write.snap";
  for (const size_t doubles : {size_t{0}, size_t{3}, size_t{100000}}) {
    SnapshotWriter writer;
    if (doubles > 0) {
      writer.WriteString("payload");
      std::vector<double> values(doubles);
      for (size_t i = 0; i < doubles; ++i) values[i] = 0.5 * i - 7.0;
      writer.WriteDoubleSpan(values);
    }
    ASSERT_TRUE(writer.WriteFile(path).ok());
    auto written = ReadFileToString(path);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(*written, writer.Serialize()) << doubles << " doubles";
    auto reader = SnapshotReader::FromFile(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->Remaining(), writer.PayloadBytes());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fdm
