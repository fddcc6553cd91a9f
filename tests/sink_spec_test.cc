#include "service/sink_spec.h"

#include <string>

#include <gtest/gtest.h>

#include "core/guess_ladder.h"
#include "data/synthetic.h"

namespace fdm {
namespace {

TEST(SinkSpecTest, ParsesFullSpec) {
  auto spec = SinkSpec::Parse(
      "algo=sfdm2 dim=4 quotas=2,2,3 metric=manhattan eps=0.05 dmin=0.01 "
      "dmax=50 threads=2");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->algo, "sfdm2");
  EXPECT_EQ(spec->dim, 4u);
  EXPECT_EQ(spec->quotas, (std::vector<int>{2, 2, 3}));
  EXPECT_EQ(spec->metric, MetricKind::kManhattan);
  EXPECT_DOUBLE_EQ(spec->epsilon, 0.05);
  EXPECT_DOUBLE_EQ(spec->d_min, 0.01);
  EXPECT_DOUBLE_EQ(spec->d_max, 50);
  // `threads` is a legacy key: accepted, ignored, never written back. The
  // width is the process-wide `Parallelism` setting.
  EXPECT_EQ(spec->ToString().find("threads"), std::string::npos);
  EXPECT_TRUE(spec->MakeSink().ok());
}

TEST(SinkSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(SinkSpec::Parse("").ok());                    // no algo/dim
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2").ok());          // no dim
  EXPECT_FALSE(SinkSpec::Parse("dim=2 k=3").ok());           // no algo
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=x").ok());    // bad int
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=2 eps=abc").ok());
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=2 bogus=1").ok());
  EXPECT_FALSE(SinkSpec::Parse("algo=sfdm2 dim=2 metric=cosine").ok());
  EXPECT_FALSE(SinkSpec::Parse("justaword").ok());
}

TEST(SinkSpecTest, MakeSinkRequiresAlgoSpecificKeys) {
  // streaming_dm needs k; sfdm2 needs quotas; sliding_window needs window.
  EXPECT_FALSE(
      MakeSinkFromSpec("algo=streaming_dm dim=2 dmin=0.1 dmax=10").ok());
  EXPECT_FALSE(MakeSinkFromSpec("algo=sfdm2 dim=2 dmin=0.1 dmax=10").ok());
  EXPECT_FALSE(MakeSinkFromSpec(
                   "algo=sliding_window dim=2 k=3 dmin=0.1 dmax=10")
                   .ok());
  EXPECT_FALSE(MakeSinkFromSpec("algo=nope dim=2 k=3").ok());
}

TEST(SinkSpecTest, RejectsKAndQuotasOutsideInt) {
  // Narrowed, k=4294967297 ran as k=1 and quotas=4294967297,1 as 1,1.
  for (const char* text :
       {"algo=streaming_dm dim=2 k=4294967297 dmin=0.1 dmax=10",
        "algo=streaming_dm dim=2 k=-2147483649 dmin=0.1 dmax=10",
        "algo=sfdm2 dim=2 quotas=4294967297,1 dmin=0.1 dmax=10",
        "algo=sfdm2 dim=2 quotas=1,2147483648 dmin=0.1 dmax=10"}) {
    EXPECT_EQ(SinkSpec::Parse(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
  auto widest = SinkSpec::Parse("algo=streaming_dm dim=2 k=2147483647");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->k, 2147483647);
  // Each quota fits in an int but their sum does not.
  EXPECT_EQ(MakeSinkFromSpec("algo=sfdm2 dim=2 quotas=2000000000,2000000000 "
                             "dmin=0.1 dmax=10")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SinkSpecTest, RefusesMoreThanTwoToTheSixteenCandidates) {
  constexpr size_t kCap = size_t{1} << 16;
  const std::string bounds = " dmin=0.1 dmax=10";
  const size_t rungs = GuessLadder::Create(0.1, 10, 0.1)->size();
  // A sharded sink holds one candidate per rung in every shard.
  const auto sharded = [&](size_t shards) {
    return MakeSinkFromSpec("algo=sharded dim=2 k=5 shards=" +
                            std::to_string(shards) + bounds);
  };
  EXPECT_TRUE(sharded(kCap / rungs).ok());
  EXPECT_EQ(sharded(kCap / rungs + 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded(3000000).status().code(), StatusCode::kInvalidArgument);
  // An SFDM-2 rung holds one blind candidate and one per group.
  const auto fair = [&](size_t groups) {
    std::string quotas = "1";
    for (size_t g = 1; g < groups; ++g) quotas += ",1";
    return MakeSinkFromSpec("algo=sfdm2 dim=2 quotas=" + quotas + bounds);
  };
  EXPECT_TRUE(fair(kCap / rungs - 1).ok());
  EXPECT_EQ(fair(kCap / rungs).status().code(), StatusCode::kInvalidArgument);
  // ~9.2 M rungs, under GuessLadder's own 10^7 cap.
  EXPECT_EQ(MakeSinkFromSpec("algo=sfdm2 dim=2 quotas=1,1 eps=0.0000005" +
                             bounds)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A bad ladder is refused before a single shard is built.
  EXPECT_NE(MakeSinkFromSpec("algo=sharded dim=2 k=5 shards=3000000 "
                             "dmin=10 dmax=0.1")
                .status()
                .ToString()
                .find("d_max must be >= d_min"),
            std::string::npos);
}

TEST(SinkSpecTest, EveryAlgoBuildsAndIngests) {
  BlobsOptions opt;
  opt.n = 200;
  opt.num_groups = 2;
  opt.seed = 5;
  const Dataset ds = MakeBlobs(opt);
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  const std::string bounds = " dmin=" + std::to_string(b.min) +
                             " dmax=" + std::to_string(b.max);
  const std::vector<std::string> specs = {
      "algo=streaming_dm dim=2 k=4" + bounds,
      "algo=sfdm1 dim=2 quotas=2,2" + bounds,
      "algo=sfdm2 dim=2 quotas=2,2" + bounds,
      "algo=adaptive dim=2 k=4",
      "algo=sharded dim=2 k=4 shards=2" + bounds,
      "algo=sliding_window dim=2 k=4 window=100 checkpoints=2" + bounds,
  };
  for (const std::string& text : specs) {
    auto sink = MakeSinkFromSpec(text);
    ASSERT_TRUE(sink.ok()) << text << ": " << sink.status().ToString();
    for (size_t i = 0; i < ds.size(); ++i) (*sink)->Observe(ds.At(i));
    EXPECT_EQ((*sink)->ObservedElements(), static_cast<int64_t>(ds.size()))
        << text;
    const auto solution = (*sink)->Solve();
    ASSERT_TRUE(solution.ok()) << text << ": "
                               << solution.status().ToString();
    EXPECT_EQ(solution->points.size(), 4u) << text;
  }
}

TEST(SinkSpecTest, ToStringRoundTrips) {
  auto spec = SinkSpec::Parse(
      "algo=sliding_window dim=3 k=5 dmin=0.5 dmax=20 window=400 "
      "checkpoints=8");
  ASSERT_TRUE(spec.ok());
  auto reparsed = SinkSpec::Parse(spec->ToString());
  ASSERT_TRUE(reparsed.ok()) << spec->ToString();
  EXPECT_EQ(reparsed->algo, spec->algo);
  EXPECT_EQ(reparsed->dim, spec->dim);
  EXPECT_EQ(reparsed->k, spec->k);
  EXPECT_EQ(reparsed->window, spec->window);
  EXPECT_EQ(reparsed->checkpoints, spec->checkpoints);
}

TEST(SinkSpecTest, DedupKeyParsesAndRoundTrips) {
  auto off = SinkSpec::Parse("algo=streaming_dm dim=2 k=4 dmin=0.1 dmax=9");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->dedup);  // default off
  EXPECT_EQ(off->ToString().find("dedup"), std::string::npos);

  auto on = SinkSpec::Parse(
      "algo=streaming_dm dim=2 k=4 dmin=0.1 dmax=9 dedup=on");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_TRUE(on->dedup);
  auto reparsed = SinkSpec::Parse(on->ToString());
  ASSERT_TRUE(reparsed.ok()) << on->ToString();
  EXPECT_TRUE(reparsed->dedup);

  auto explicit_off = SinkSpec::Parse(
      "algo=streaming_dm dim=2 k=4 dmin=0.1 dmax=9 dedup=off");
  ASSERT_TRUE(explicit_off.ok());
  EXPECT_FALSE(explicit_off->dedup);

  EXPECT_FALSE(
      SinkSpec::Parse("algo=streaming_dm dim=2 k=4 dedup=yes").ok());
}

}  // namespace
}  // namespace fdm
