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

  auto count = wal->Replay(0, *replayed);
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
  auto count = wal->Replay(25, *sink);
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
  auto count = wal->Replay(0, *sink);
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
  auto count = wal->Replay(0, *sink);
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
  auto count = wal->Replay(0, *sink);
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
  auto count = wal->Replay(0, *sink);
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
  auto count = wal->Replay(199, *sink);
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
      auto bytes = ReadFileToString(path);
      ASSERT_TRUE(bytes.ok());
      segments[c].push_back(
          std::filesystem::path(path).filename().string() + ":" + *bytes);
    }

    auto sink = StreamingDm::Create(4, ds.dim(), ds.metric_kind(),
                                    OptionsFor(ds));
    ASSERT_TRUE(sink.ok());
    auto count = wal->Replay(0, *sink);
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

}  // namespace
}  // namespace fdm
