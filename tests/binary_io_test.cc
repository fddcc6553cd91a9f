#include "util/binary_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "file_bytes.h"

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

TEST(BinaryIoTest, AppendFileRangeReadsFromAnOffsetToTheEnd) {
  const std::string path = ::testing::TempDir() + "/binary_io_read_test.bin";
  std::string contents(100000, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 31 + 7);  // binary, NULs included
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string whole = "prefix:";
  auto all = OpenFileRange(path, 0);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->length, contents.size());
  ASSERT_TRUE(AppendFileRange(*all, &whole).ok());
  EXPECT_EQ(whole, "prefix:" + contents);
  // The range knows its byte count before a byte is read.
  auto last = OpenFileRange(path, 99000);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->length, 1000u);
  std::string tail;
  ASSERT_TRUE(AppendFileRange(*last, &tail).ok());
  EXPECT_EQ(tail, contents.substr(99000));
  auto at_end = OpenFileRange(path, contents.size());
  ASSERT_TRUE(at_end.ok());
  EXPECT_EQ(at_end->length, 0u);

  // Errors: nothing to open, and a file that shrank after it was opened,
  // which leaves the buffer as it was.
  EXPECT_FALSE(OpenFileRange(path, contents.size() + 1).ok());
  EXPECT_FALSE(OpenFileRange(path + ".missing", 0).ok());
  std::filesystem::resize_file(path, 99500);
  std::string kept = "kept";
  EXPECT_FALSE(AppendFileRange(*last, &kept).ok());
  EXPECT_EQ(kept, "kept");
  std::remove(path.c_str());
}

// The window refills across its edges: items that straddle a refill, an
// item larger than the window, and bulk reads of many windows all see the
// source's bytes, and an item past the end fails without consuming.
TEST(BinaryIoTest, FileWindowReadsAcrossWindowEdges) {
  const std::string path = ::testing::TempDir() + "/binary_io_window.bin";
  std::string contents(3 * kIoWindowBytes + 123, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 131 + (i >> 9));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  auto file = ReadOnlyFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  FileWindow window(std::move(file.value()), 5, contents.size());
  std::string got(kIoWindowBytes - 8, '\0');
  ASSERT_TRUE(window.Read(got.data(), got.size()));
  EXPECT_EQ(got, contents.substr(5, got.size()));
  // 16 bytes straddling the first window's end.
  ASSERT_TRUE(window.Fill(16));
  EXPECT_EQ(window.view().substr(0, 16),
            std::string_view(contents).substr(window.position(), 16));
  window.Consume(16);
  // One item larger than the window grows it to fit.
  const size_t big = kIoWindowBytes + 1000;
  const uint64_t at = window.position();
  ASSERT_TRUE(window.Fill(big));
  EXPECT_EQ(window.view().substr(0, big),
            std::string_view(contents).substr(at, big));
  window.Consume(big);
  std::string rest(window.remaining(), '\0');
  EXPECT_FALSE(window.Fill(rest.size() + 1));
  ASSERT_TRUE(window.Read(rest.data(), rest.size()));
  EXPECT_EQ(rest, contents.substr(contents.size() - rest.size()));
  EXPECT_EQ(window.position(), contents.size());
  EXPECT_TRUE(window.status().ok());
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

// A writer bound to a path streams its frame through one window and
// patches the size field at the end; the file must equal an in-memory
// writer's `Serialize()` byte for byte for payloads below, at and above the
// window (one span larger than the window goes straight to the file).
TEST(BinaryIoTest, StreamedWriteFileEqualsSerialize) {
  const std::string path = ::testing::TempDir() + "/binary_io_write.snap";
  const size_t header = SnapshotWriter::kHeaderBytes;
  for (const size_t payload :
       {size_t{0}, size_t{3}, kIoWindowBytes - header - 8,
        kIoWindowBytes - header, kIoWindowBytes, kIoWindowBytes + 1,
        size_t{800000}}) {
    const auto write = [payload](SnapshotWriter& writer) {
      size_t left = payload;
      if (left >= 16) {
        writer.WriteString("payload");  // 15 bytes
        writer.WriteU8(1);
        left -= 16;
      }
      // A run of scalars, then one span with the rest of the payload.
      for (size_t i = 0; left >= 8 + 8 && i < 5000; ++i, left -= 8) {
        writer.WriteDouble(0.5 * static_cast<double>(i) - 7.0);
      }
      if (left >= 8) {
        std::vector<double> values((left - 8) / 8);
        for (size_t i = 0; i < values.size(); ++i) values[i] = 1.0 / (i + 1);
        writer.WriteDoubleSpan(values);
        left -= 8 + values.size() * 8;
      }
      for (; left > 0; --left) writer.WriteU8(static_cast<uint8_t>(left));
    };
    SnapshotWriter memory;
    write(memory);
    ASSERT_EQ(memory.PayloadBytes(), payload);
    {
      SnapshotWriter streamed(path);
      write(streamed);
      EXPECT_EQ(streamed.PayloadBytes(), payload);
      ASSERT_TRUE(streamed.Commit().ok());
    }
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    auto written = FileBytes(path);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(*written, memory.Serialize()) << payload << " payload bytes";
    auto reader = SnapshotReader::FromFile(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->Remaining(), payload);
  }
  std::remove(path.c_str());
}

// A bound writer dropped without `Commit` (a sink failed mid-snapshot)
// leaves neither a snapshot nor its temp file behind.
TEST(BinaryIoTest, UncommittedWriterRemovesItsTempFile) {
  const std::string path = ::testing::TempDir() + "/binary_io_abandon.snap";
  std::remove(path.c_str());
  {
    SnapshotWriter writer(path);
    std::vector<double> values(3 * kIoWindowBytes / 8, 1.5);
    writer.WriteDoubleSpan(values);
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
  // An unopenable path fails at Commit.
  SnapshotWriter bad(::testing::TempDir() + "/no/such/dir/x.snap");
  bad.WriteU64(1);
  EXPECT_FALSE(bad.Commit().ok());
}

// The file reader checks the whole payload's checksum in its first pass:
// a byte flipped far past the first window fails `FromFile` with the
// checksum error, so no field is ever parsed from a corrupt file.
TEST(BinaryIoTest, FromFileVerifiesTheChecksumBeforeAnyRead) {
  const std::string path = ::testing::TempDir() + "/binary_io_flip.snap";
  SnapshotWriter memory;
  memory.WriteString("fields");
  std::vector<int64_t> ids(3 * kIoWindowBytes / 8);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  memory.WriteI64Span(ids);
  std::string framed = memory.Serialize();
  framed[SnapshotWriter::kHeaderBytes + 2 * kIoWindowBytes + 77] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << framed;
  }
  auto reader = SnapshotReader::FromFile(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("snapshot checksum mismatch"),
            std::string::npos)
      << reader.status().ToString();
  // Intact, the same file parses field by field across many windows.
  framed[SnapshotWriter::kHeaderBytes + 2 * kIoWindowBytes + 77] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << framed;
  }
  auto intact = SnapshotReader::FromFile(path);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact->PeekString(), "fields");
  EXPECT_EQ(intact->ReadString(), "fields");
  EXPECT_EQ(intact->ReadI64Vec(), ids);
  EXPECT_TRUE(intact->ok());
  EXPECT_EQ(intact->Remaining(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fdm
