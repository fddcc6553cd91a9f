#include "service/wal.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_dm.h"
#include "data/synthetic.h"
#include "file_bytes.h"
#include "replica/replication_source.h"
#include "service/session_layout.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fdm_wal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

Dataset TestData(size_t n = 120, uint64_t seed = 7) {
  BlobsOptions opt;
  opt.n = n;
  opt.seed = seed;
  return MakeBlobs(opt);
}

StreamingOptions OptionsFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  StreamingOptions o;
  o.epsilon = 0.1;
  o.d_min = b.min;
  o.d_max = b.max;
  return o;
}

// Appends rows [begin, end) of `ds` one record per `AppendBatch` call, as
// the per-element OBSERVE path writes the log.
Status AppendEach(WriteAheadLog& wal, const Dataset& ds, size_t begin,
                  size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const StreamPoint point = ds.At(i);
    if (Status s = wal.AppendBatch({&point, 1}); !s.ok()) return s;
  }
  return Status::Ok();
}

TEST_F(WalTest, AppendReplayMatchesDirectIngest) {
  const Dataset ds = TestData();
  auto wal = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(AppendEach(*wal, ds, 0, ds.size()).ok());
  EXPECT_EQ(wal->last_seq(), static_cast<int64_t>(ds.size()));
  ASSERT_TRUE(wal->Sync().ok());

  auto direct = StreamingDm::Create(5, ds.dim(), ds.metric_kind(),
                                    OptionsFor(ds));
  auto replayed = StreamingDm::Create(5, ds.dim(), ds.metric_kind(),
                                      OptionsFor(ds));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(replayed.ok());
  for (size_t i = 0; i < ds.size(); ++i) direct->Observe(ds.At(i));

  WalBatchApplier applier(*replayed, PointRule{ds.dim(), 0});
  auto count = wal->Replay(0, applier);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, static_cast<int64_t>(ds.size()));
  EXPECT_EQ(replayed->ObservedElements(), direct->ObservedElements());
  const auto a = direct->Solve();
  const auto b = replayed->Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Ids(), b->Ids());
  EXPECT_DOUBLE_EQ(a->diversity, b->diversity);
}

TEST_F(WalTest, ReplayAfterSeqSkipsPrefix) {
  const Dataset ds = TestData(40);
  auto wal = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(AppendEach(*wal, ds, 0, ds.size()).ok());
  ASSERT_TRUE(wal->Sync().ok());
  auto sink = StreamingDm::Create(3, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(sink.ok());
  WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
  auto count = wal->Replay(25, applier);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<int64_t>(ds.size()) - 25);
  EXPECT_EQ(sink->ObservedElements(), static_cast<int64_t>(ds.size()) - 25);
}

TEST_F(WalTest, RotatesSegmentsAndSurvivesReopen) {
  const Dataset ds = TestData(300, 9);
  WalOptions options;
  options.segment_bytes = 2048;  // force many rotations
  int64_t appended = 0;
  {
    auto wal = WriteAheadLog::Open(dir_, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendEach(*wal, ds, 0, 200).ok());
    appended = 200;
    EXPECT_GT(wal->SegmentPaths().size(), 2u);
  }  // destructor syncs

  auto wal = WriteAheadLog::Open(dir_, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->last_seq(), appended);
  // Appends continue the sequence.
  ASSERT_TRUE(AppendEach(*wal, ds, 200, 220).ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->last_seq(), appended + 20);

  auto sink = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(sink.ok());
  WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
  auto count = wal->Replay(0, applier);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, appended + 20);
}

TEST_F(WalTest, TornTailIsToleratedAndTruncatedOnReopen) {
  const Dataset ds = TestData(50, 11);
  {
    auto wal = WriteAheadLog::Open(dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendEach(*wal, ds, 0, ds.size()).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Tear the tail: chop a few bytes off the newest segment, as a crash
  // mid-write would.
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    segments.push_back(entry.path().string());
  }
  ASSERT_EQ(segments.size(), 1u);
  const auto full_size = std::filesystem::file_size(segments[0]);
  std::filesystem::resize_file(segments[0], full_size - 5);

  auto wal = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  // The torn record (the last one) is gone; everything before it replays.
  EXPECT_EQ(wal->last_seq(), static_cast<int64_t>(ds.size()) - 1);
  auto sink = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(sink.ok());
  WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
  auto count = wal->Replay(0, applier);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<int64_t>(ds.size()) - 1);

  // And appends after recovery land on a clean boundary.
  ASSERT_TRUE(AppendEach(*wal, ds, 0, 1).ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->last_seq(), static_cast<int64_t>(ds.size()));
}

TEST_F(WalTest, EmptyActiveSegmentIsRecoverableAndReplayable) {
  // A crash right after rotation (or right after Create) leaves a 0-byte
  // active segment — its magic was buffered but never flushed. Open must
  // re-initialize it AND Replay must skip it instead of calling it
  // corrupt.
  const Dataset ds = TestData(20, 19);
  {
    auto wal = WriteAheadLog::Open(dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendEach(*wal, ds, 0, 10).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  {  // simulate the crash artifact: an empty next segment
    std::ofstream empty(dir_ + "/wal-00000000000000000011.log",
                        std::ios::binary);
  }
  auto wal = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->last_seq(), 10);
  auto sink = StreamingDm::Create(3, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(sink.ok());
  WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
  auto count = wal->Replay(0, applier);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 10);
  // And the re-initialized segment accepts appends at the right seq.
  ASSERT_TRUE(AppendEach(*wal, ds, 10, 11).ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->last_seq(), 11);
}

TEST_F(WalTest, ZeroLengthSegmentMidLogIsSkippedNotCorruption) {
  // A crash between segment creation (open/O_CREAT) and the first flush
  // leaves a zero-length file. When such a file sits MID-log (e.g. it was
  // shipped to a follower before the primary reinitialized it, or sorting
  // places later rotations after it), enumeration and replay must skip it
  // with a warning — it holds no records — instead of calling the log
  // corrupt.
  const Dataset ds = TestData(120, 21);
  WalOptions options;
  options.segment_bytes = 1024;  // force several rotations
  {
    auto wal = WriteAheadLog::Open(dir_, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendEach(*wal, ds, 0, 60).ok());
    ASSERT_TRUE(wal->Sync().ok());
    ASSERT_GT(wal->SegmentPaths().size(), 2u);
  }
  // Forge the artifact strictly between the first seqs of the 2nd and 3rd
  // real segments, so it is unambiguously mid-log.
  auto listed = WriteAheadLog::ListSegments(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_GT(listed->size(), 2u);
  const int64_t forged = (*listed)[1].first_seq + 1;
  ASSERT_LT(forged, (*listed)[2].first_seq);
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%020lld.log",
                static_cast<long long>(forged));
  {
    std::ofstream empty(dir_ + "/" + name, std::ios::binary);
  }

  // Enumeration skips it ...
  auto relisted = WriteAheadLog::ListSegments(dir_);
  ASSERT_TRUE(relisted.ok());
  EXPECT_EQ(relisted->size(), listed->size());
  for (const auto& seg : *relisted) EXPECT_NE(seg.first_seq, forged);

  // ... and a reopened log replays through it seamlessly.
  auto wal = WriteAheadLog::Open(dir_, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->last_seq(), 60);
  auto sink = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(sink.ok());
  WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
  auto count = wal->Replay(0, applier);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 60);
  ASSERT_TRUE(AppendEach(*wal, ds, 60, 61).ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->last_seq(), 61);
}

TEST_F(WalTest, CorruptedRecordIsDetected) {
  const Dataset ds = TestData(30, 13);
  {
    auto wal = WriteAheadLog::Open(dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendEach(*wal, ds, 0, ds.size()).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    segments.push_back(entry.path().string());
  }
  ASSERT_EQ(segments.size(), 1u);
  // Flip a byte mid-file: recovery must stop at the corrupt record, not
  // hand bad coordinates to the sink.
  {
    std::fstream f(segments[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(segments[0]) / 2));
    const char byte = 0x7f;
    f.write(&byte, 1);
  }
  auto wal = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(wal.ok());
  EXPECT_LT(wal->last_seq(), static_cast<int64_t>(ds.size()));
}

TEST_F(WalTest, TruncateBeforeDropsWholeObsoleteSegments) {
  const Dataset ds = TestData(300, 15);
  WalOptions options;
  options.segment_bytes = 2048;
  auto wal = WriteAheadLog::Open(dir_, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(AppendEach(*wal, ds, 0, 250).ok());
  ASSERT_TRUE(wal->Sync().ok());
  const size_t before = wal->SegmentPaths().size();
  ASSERT_GT(before, 2u);

  ASSERT_TRUE(wal->TruncateBefore(200).ok());
  EXPECT_LT(wal->SegmentPaths().size(), before);

  // Everything at seq >= 200 must still replay.
  auto sink = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                  OptionsFor(ds));
  ASSERT_TRUE(sink.ok());
  WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
  auto count = wal->Replay(199, applier);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 250 - 199);
}

// A one-point `AppendBatch` (what OBSERVE writes) frames exactly the bytes
// that point gets inside a larger batch: the same 64 points appended as
// one batch, as 64 one-point calls, and split 1/7/56 leave byte-identical
// segment files (rotations included) and replay to the same sink.
TEST_F(WalTest, BatchAppendMatchesSingleAppends) {
  const Dataset ds = TestData(64, 17);
  std::vector<StreamPoint> points;
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  const std::span<const StreamPoint> all(points);
  const std::vector<std::vector<size_t>> splits = {
      {64}, std::vector<size_t>(64, 1), {1, 7, 56}};
  WalOptions options;
  options.segment_bytes = 1024;  // the 64 records span several segments
  std::vector<std::vector<std::string>> segments(splits.size());
  std::vector<std::string> replayed(splits.size());
  for (size_t c = 0; c < splits.size(); ++c) {
    SCOPED_TRACE(c);
    auto wal = WriteAheadLog::Open(dir_ + "/split" + std::to_string(c),
                                   options);
    ASSERT_TRUE(wal.ok());
    size_t at = 0;
    for (const size_t len : splits[c]) {
      ASSERT_TRUE(wal->AppendBatch(all.subspan(at, len)).ok());
      at += len;
    }
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->last_seq(), static_cast<int64_t>(ds.size()));
    ASSERT_GT(wal->SegmentPaths().size(), 1u);
    for (const std::string& path : wal->SegmentPaths()) {
      auto bytes = FileBytes(path);
      ASSERT_TRUE(bytes.ok());
      segments[c].push_back(
          std::filesystem::path(path).filename().string() + ":" + *bytes);
    }

    auto sink = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                    OptionsFor(ds));
    ASSERT_TRUE(sink.ok());
    WalBatchApplier applier(*sink, PointRule{ds.dim(), 0});
    auto count = wal->Replay(0, applier);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, static_cast<int64_t>(ds.size()));
    SnapshotWriter writer;
    ASSERT_TRUE(sink->Snapshot(writer).ok());
    replayed[c] = writer.Serialize();
  }
  for (size_t c = 1; c < splits.size(); ++c) {
    EXPECT_EQ(segments[c], segments[0]) << "split " << c;
    EXPECT_EQ(replayed[c], replayed[0]) << "split " << c;
  }
}

// --- The windowed cursor -------------------------------------------------
//
// A segment file is read one `kIoWindowBytes` window at a time. Each case
// below scans the same bytes through the file window and through one
// in-memory buffer (which never refills), and must get the same records,
// `valid_bytes` and torn flag from both.

struct ScannedRecord {
  int64_t seq;
  int64_t id;
  int32_t group;
  std::vector<double> coords;
  bool operator==(const ScannedRecord&) const = default;
};

struct Scan {
  std::vector<ScannedRecord> records;
  uint64_t valid_bytes = 0;
  bool torn = false;
  bool ok = true;
  bool operator==(const Scan&) const = default;
};

Scan ScanAll(WalSegmentCursor& cursor) {
  Scan scan;
  WalRecordView record;
  while (cursor.Next(record)) {
    scan.records.push_back(ScannedRecord{
        record.seq, record.id, record.group,
        std::vector<double>(record.coords.begin(), record.coords.end())});
  }
  scan.valid_bytes = cursor.valid_bytes();
  scan.torn = cursor.torn_tail();
  scan.ok = cursor.status().ok();
  return scan;
}

/// Scans `path` from `offset` through the file window and through the
/// whole buffer; expects both to agree and returns the scan.
Scan ExpectWindowMatchesBuffer(const std::string& path, uint64_t offset) {
  auto bytes = FileBytes(path);
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) return {};
  const std::string range =
      bytes->substr(std::min<size_t>(offset, bytes->size()));
  WalSegmentCursor whole(range, offset);
  const Scan expected = ScanAll(whole);
  auto file = ReadOnlyFile::Open(path);
  EXPECT_TRUE(file.ok());
  if (!file.ok()) return {};
  WalSegmentCursor windowed(std::move(file.value()), offset);
  const Scan got = ScanAll(windowed);
  EXPECT_EQ(got.records.size(), expected.records.size()) << "offset " << offset;
  EXPECT_TRUE(got == expected) << "offset " << offset;
  return got;
}

/// `n` rows of dimension `dim`, distinct within a call and across `base`s.
std::vector<std::vector<double>> Coords(size_t n, size_t dim, double base) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) rows[i][d] = base + 0.25 * i + 1e-3 * d;
  }
  return rows;
}

Status AppendRows(WriteAheadLog& wal,
                  const std::vector<std::vector<double>>& rows,
                  int64_t first_id) {
  std::vector<StreamPoint> batch;
  for (size_t i = 0; i < rows.size(); ++i) {
    batch.push_back(StreamPoint{first_id + static_cast<int64_t>(i),
                                static_cast<int32_t>(i % 3), rows[i]});
  }
  return wal.AppendBatch(batch);
}

std::string OnlySegment(const std::string& dir) {
  auto listed = WriteAheadLog::ListSegments(dir);
  EXPECT_TRUE(listed.ok());
  EXPECT_EQ(listed.ok() ? listed->size() : 0u, 1u);
  return listed.ok() && !listed->empty() ? listed->front().path : "";
}

// 84-byte dim-6 records do not divide the window, so records straddle
// every window edge; a dim-8192 record (65,572 bytes framed) is larger
// than the window and grows it to fit. Whole and ranged scans, from every
// record boundary near the big record, agree with the buffer.
TEST_F(WalTest, WindowedCursorMatchesBufferAcrossWindowEdges) {
  {
    auto wal = WriteAheadLog::Open(dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(2000, 6, 1.0), 0).ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(1, 8192, 2.0), 2000).ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(1500, 6, 3.0), 2001).ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(2, 9000, 4.0), 3501).ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(10, 6, 5.0), 3503).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  const std::string path = OnlySegment(dir_);
  ASSERT_GT(std::filesystem::file_size(path), 4 * kIoWindowBytes);
  const Scan scan = ExpectWindowMatchesBuffer(path, 0);
  ASSERT_EQ(scan.records.size(), 3513u);
  EXPECT_TRUE(scan.ok);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(path));
  EXPECT_EQ(scan.records[2000].coords.size(), 8192u);
  EXPECT_EQ(scan.records[3502].coords.size(), 9000u);
  for (size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].seq, static_cast<int64_t>(i) + 1);
  }
  // Ranged scans from record boundaries: before, at and after the big one.
  const uint64_t magic = 8;
  const uint64_t small = 84;
  for (const uint64_t at :
       {magic, magic + 780 * small, magic + 1999 * small,
        magic + 2000 * small, magic + 2000 * small + 65572,
        magic + 2000 * small + 65572 + 1499 * small}) {
    const Scan ranged = ExpectWindowMatchesBuffer(path, at);
    EXPECT_TRUE(ranged.ok);
    EXPECT_FALSE(ranged.torn);
  }
}

// A crash can cut the newest segment anywhere; cuts at, just before and
// just after a window edge, and inside the window-sized record, must read
// as the same intact prefix and torn tail through the window.
TEST_F(WalTest, TornTailAtAWindowEdgeMatchesBuffer) {
  {
    auto wal = WriteAheadLog::Open(dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(1600, 6, 1.0), 0).ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(1, 8192, 2.0), 1600).ok());
    ASSERT_TRUE(AppendRows(*wal, Coords(20, 6, 3.0), 1601).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  const std::string path = OnlySegment(dir_);
  auto full = FileBytes(path);
  ASSERT_TRUE(full.ok());
  const uint64_t big_at = 8 + 1600 * 84;
  for (const uint64_t cut :
       {kIoWindowBytes - 1, kIoWindowBytes, kIoWindowBytes + 1,
        2 * kIoWindowBytes, big_at + 3, big_at + kIoWindowBytes,
        big_at + 65572 - 1, big_at + 65572 + 50}) {
    SCOPED_TRACE(cut);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << full->substr(0, cut);
    }
    const Scan scan = ExpectWindowMatchesBuffer(path, 0);
    EXPECT_TRUE(scan.ok);
    EXPECT_TRUE(scan.torn);
    EXPECT_LT(scan.valid_bytes, cut);
  }
}

// `Open` scans the newest segment through the window and truncates a torn
// tail that sits windows past the first, then appends on the boundary.
TEST_F(WalTest, OpenTruncatesATornTailPastTheFirstWindow) {
  const std::vector<std::vector<double>> rows = Coords(3000, 6, 1.0);
  {
    auto wal = WriteAheadLog::Open(dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(AppendRows(*wal, rows, 0).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  const std::string path = OnlySegment(dir_);
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, 3 * kIoWindowBytes);
  std::filesystem::resize_file(path, size - 5);

  auto wal = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->last_seq(), 2999);
  EXPECT_EQ(std::filesystem::file_size(path), size - 84);
  ASSERT_TRUE(AppendRows(*wal, {rows.back()}, 2999).ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(std::filesystem::file_size(path), size);
  const Scan scan = ExpectWindowMatchesBuffer(path, 0);
  ASSERT_EQ(scan.records.size(), 3000u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records.back().coords, rows.back());
}

// The replication source finds the primary's durable position by scanning
// the newest segment from where its previous manifest stopped; each resumed
// scan here crosses several windows, and a torn in-flight record at the end
// is not counted.
TEST_F(WalTest, ManifestScanResumesAcrossWindows) {
  {
    std::filesystem::create_directories(dir_);
    std::ofstream spec(SessionSpecPath(dir_));
    spec << "algo=streaming_dm dim=6 k=4 dmin=0.01 dmax=100\n";
  }
  auto wal = WriteAheadLog::Open(SessionWalDir(dir_));
  ASSERT_TRUE(wal.ok());
  DirReplicationSource source(dir_);
  int64_t appended = 0;
  for (const size_t n : {10, 2000, 1, 3500}) {
    ASSERT_TRUE(AppendRows(*wal, Coords(n, 6, 1.0 * n), appended).ok());
    ASSERT_TRUE(wal->Sync().ok());
    appended += static_cast<int64_t>(n);
    auto manifest = source.GetManifest();
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest->primary_seq, appended);
  }
  // An in-flight record, torn: the position stays at the last intact one.
  {
    std::ofstream out(wal->SegmentPaths().back(),
                      std::ios::binary | std::ios::app);
    out << std::string(40, '\x55');
  }
  auto manifest = source.GetManifest();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->primary_seq, appended);
}

}  // namespace
}  // namespace fdm
