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

}  // namespace
}  // namespace fdm
