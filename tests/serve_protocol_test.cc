// Conformance suite for the serving protocol's request-dispatch core
// (src/net/dispatch.h): framing invariants under malformed, truncated,
// and pipelined input; byte-identical replies between the stdin and TCP
// transports; and regression tests for four protocol-hardening fixes
// (checked --metrics-dump parse, non-finite coordinate rejection,
// trailing-garbage rejection on no-payload verbs, whole-token numbers).

#include "net/dispatch.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "file_bytes.h"
#include "net/net_client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "obs/metrics_dump.h"
#include "replica/replica_manager.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "service/wal.h"
#include "util/binary_io.h"

namespace fdm {
namespace {

Dataset TestData(size_t n = 120, uint64_t seed = 71) {
  BlobsOptions opt;
  opt.n = n;
  opt.num_groups = 2;
  opt.seed = seed;
  return MakeBlobs(opt);
}

std::string SpecFor(const Dataset& ds) {
  const DistanceBounds b = ComputeDistanceBoundsExact(ds);
  return "algo=sfdm2 dim=2 quotas=2,2 dmin=" + std::to_string(b.min) +
         " dmax=" + std::to_string(b.max);
}

/// Drives the dispatcher exactly like the stdin transport and returns
/// everything it wrote.
std::string RunStdin(net::RequestDispatcher& dispatcher,
                     const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  net::ServeLines(dispatcher, in, out);
  return out.str();
}

/// Response frames the TCP transport will produce for `script`: one per
/// non-blank request, where a request consumes its announced payload
/// lines. Uses the dispatcher's own classifier so the count can never
/// drift from the server's framing rules.
size_t CountReplies(net::RequestDispatcher& dispatcher,
                    const std::string& script) {
  size_t count = 0;
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    const net::RequestInfo info = dispatcher.Classify(line);
    if (info.verb.empty()) continue;
    ++count;
    for (int64_t i = 0; i < info.payload_lines && std::getline(in, line);
         ++i) {
    }
    if (info.verb == "QUIT") break;
  }
  return count;
}

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/fdm_serve_protocol_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::unique_ptr<SessionManager> NewManager(const std::string& sub) {
    SessionManagerOptions options;
    options.root_dir = root_ + "/" + sub;
    auto manager = SessionManager::Create(options);
    EXPECT_TRUE(manager.ok()) << manager.status().ToString();
    return std::move(manager.value());
  }

  std::string root_;
};

// ---------------------------------------------------------------------------
// Byte identity: the same script through the stdin transport and as one
// pipelined TCP frame must yield byte-identical reply streams. Two fresh,
// identically-seeded server states keep the comparison honest (running
// one script twice against one state would mutate it in between).
// ---------------------------------------------------------------------------

/// Sends `script` as one pipelined frame to a TCP server over `dispatcher`
/// and appends every reply frame's payload to `*out`.
void RunTcp(net::RequestDispatcher& dispatcher, const std::string& script,
            std::string* out) {
  auto server = net::TcpServer::Start(&dispatcher, {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = net::NetClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Send(script).ok());
  const size_t frames = CountReplies(dispatcher, script);
  for (size_t i = 0; i < frames; ++i) {
    auto reply = client->Recv();
    ASSERT_TRUE(reply.ok()) << "frame " << i << ": "
                            << reply.status().ToString();
    out->append(*reply);
  }
}

class ByteIdentityTest : public ServeProtocolTest {
 protected:
  /// Returns the stdin transport's replies.
  std::string Check(const std::string& script) {
    auto stdin_manager = NewManager("stdin");
    auto tcp_manager = NewManager("tcp");
    net::RequestDispatcher stdin_dispatcher(stdin_manager.get(),
                                            root_ + "/stdin");
    net::RequestDispatcher tcp_dispatcher(tcp_manager.get(), root_ + "/tcp");
    const std::string expected = RunStdin(stdin_dispatcher, script);
    std::string actual;
    RunTcp(tcp_dispatcher, script, &actual);
    EXPECT_EQ(actual, expected);
    return expected;
  }
};

TEST_F(ByteIdentityTest, HappyPathAndQueries) {
  const Dataset ds = TestData();
  std::string script = "CREATE s " + SpecFor(ds) + "\n";
  for (size_t i = 0; i < 40; ++i) {
    const StreamPoint p = ds.At(i);
    script += "OBSERVE s " + std::to_string(p.id) + " " +
              std::to_string(p.group);
    for (const double c : p.coords) script += " " + std::to_string(c);
    script += "\n";
  }
  script += "OBSERVEB s 2\n90001 0 0.25 0.5\n90002 1 7.5 3.25\n";
  script += "STATS s\n";  // before any SOLVE: no timing samples, so
                          // the reply is deterministic across runs
  script += "SOLVE s\nSOLVE s\nLIST\n\nQUIT\n";
  Check(script);
}

TEST_F(ByteIdentityTest, ErrorPathsStayInFraming) {
  const Dataset ds = TestData();
  std::string script = "CREATE s " + SpecFor(ds) + "\n";
  // Every malformed request below must consume exactly its own input;
  // the LIST at the end only parses as a command if each drain worked.
  script += "OBSERVE s\n";                       // missing point entirely
  script += "OBSERVE s 1 0\n";                   // no coordinates
  script += "OBSERVE s 1 0 2.0 garbage\n";       // garbage mid-line
  script += "OBSERVEB s\n";                      // missing count
  script += "OBSERVEB s -3\n";                   // negative count
  script += "OBSERVEB s 2 junk\n1 0 1 2\n2 0 3 4\n";  // trailing garbage:
                                                      // both lines drained
  script += "OBSERVEB s 2\nbad payload line\n7 0 1 2\n";  // bad first line,
                                                          // second drained
  script += "OBSERVEB s 2\n8 0 1 2\n9 0 3 nope\n";  // bad second line
  script += "SOLVE ghost\n";                     // unknown session
  script += "SNAPSHOT ghost\n";
  script += "FROB s\n";                          // unknown verb
  script += "REPLICA s\nLAG s\n";                // follower verbs on primary
  script += "CREATE\n";                          // missing name
  script += "LIST\nQUIT\n";
  Check(script);
}

TEST_F(ByteIdentityTest, TruncatedBatchEndsLikeEof) {
  // A request may not span frames: a frame ending mid-batch answers
  // exactly like stdin hitting EOF mid-batch.
  const Dataset ds = TestData();
  const std::string script =
      "CREATE s " + SpecFor(ds) + "\nOBSERVEB s 3\n10 0 1 2\n";
  Check(script);
}

TEST_F(ByteIdentityTest, PartlyReadNumbersAreRejectedWhole) {
  // A number is a token that parses whole. `operator>>` read a token's
  // leading part and left the rest to the next field: `1.5` as a group
  // was stored as group 1 and coordinate 0.5, `5-3` as id 5 and group -3,
  // `1.2.3` as 1.2 and 0.3, and a trailing `1e999`, `-`, `1e`, `.`, `+` or
  // `1e+` ended the line unread, so the point was stored without it. Each
  // line is sent as an OBSERVE and as an OBSERVEB point line; every
  // request is answered ERR and no session changes.
  const struct {
    std::string session;
    std::string fields;
  } lines[] = {
      {"f", "12 1.5 3 4"},    {"g", "5-3 1 2 3"},     {"f", "1 0 1.2.3 4"},
      {"f", "1 0 1e5-3 4"},   {"t", "1 0 1 2 1e999"}, {"t", "1 0 1 2 -"},
      {"t", "1 0 1 2 1e"},    {"t", "1 0 1 2 ."},     {"t", "1 0 1 2 +"},
      {"t", "1 0 1 2 1e+"},
  };
  std::string script =
      "CREATE f algo=sfdm2 dim=3 quotas=2,2 dmin=0.01 dmax=100\n"
      "CREATE g algo=streaming_dm dim=3 k=2 dmin=0.01 dmax=100\n"
      "CREATE t algo=sfdm2 dim=2 quotas=1,1 dmin=0.01 dmax=100\n";
  for (const auto& l : lines) {
    script += "OBSERVE " + l.session + " " + l.fields + "\n";
    script += "OBSERVEB " + l.session + " 1\n" + l.fields + "\n";
  }
  script += "STATS f\nSTATS g\nSTATS t\n";
  std::istringstream replies(Check(script));
  std::string reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::getline(replies, reply));
    EXPECT_EQ(reply, "OK");
  }
  for (const auto& l : lines) {
    for (const char* verb : {"OBSERVE", "OBSERVEB"}) {
      ASSERT_TRUE(std::getline(replies, reply));
      EXPECT_EQ(reply.rfind("ERR " + std::string(verb) + " ", 0), 0u)
          << verb << " " << l.session << " " << l.fields << ": " << reply;
    }
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::getline(replies, reply));
    EXPECT_EQ(reply.rfind("OK observed=0 ", 0), 0u) << reply;
    EXPECT_NE(reply.find(" version=0 "), std::string::npos) << reply;
  }
}

TEST_F(ByteIdentityTest, OutOfRangeGroupIsRejectedBeforeTheWal) {
  // An SFDM-2 session holds groups 0..quotas.size()-1 only. A point of
  // group 7 is answered ERR before the WAL; a 256-line batch holding one
  // is rejected whole; the corrected batch and the SOLVE after it are
  // served as if the bad requests never came.
  const Dataset ds = TestData(256, 73);
  auto batch = [&ds](int bad_line) {
    std::string lines = "OBSERVEB s 256\n";
    for (size_t i = 0; i < ds.size(); ++i) {
      const StreamPoint p = ds.At(i);
      const int32_t group = static_cast<int>(i) == bad_line ? 7 : p.group;
      lines += std::to_string(p.id) + " " + std::to_string(group);
      for (const double c : p.coords) lines += " " + std::to_string(c);
      lines += "\n";
    }
    return lines;
  };
  const std::string replies =
      Check("CREATE s " + SpecFor(ds) + "\nOBSERVE s 2 7 0.5 0.25\n" +
            batch(/*bad_line=*/131) + batch(/*bad_line=*/-1) +
            "SOLVE s\nQUIT\n");
  const std::string rejected =
      "ERR InvalidArgument: point group 7 is outside the session's groups "
      "0..1\n";
  EXPECT_EQ(replies.substr(0, 3 + 2 * rejected.size()),
            "OK\n" + rejected + rejected);
  EXPECT_NE(replies.find("\nOK kept=256 dup=0\nOK "), std::string::npos)
      << replies;
}

TEST_F(ByteIdentityTest, ReplicationVerbs) {
  // Binary replies included: the manifest, the whole WAL segment in its
  // 2- and 3-argument forms, a ranged fetch, and every rejected offset.
  // (No snapshot: its stats footer records how long the write took, so
  // two servers never write the same snapshot bytes. 300 points cross the
  // WAL's fsync batch, which makes them fetchable.)
  const Dataset ds = TestData(300);
  std::string script = "CREATE s " + SpecFor(ds) + "\n";
  script += "OBSERVEB s 300\n";
  for (size_t i = 0; i < ds.size(); ++i) {
    const StreamPoint p = ds.At(i);
    script += std::to_string(p.id) + " " + std::to_string(p.group);
    for (const double c : p.coords) script += " " + std::to_string(c);
    script += "\n";
  }
  script += "RMANIFEST s\n";
  script += "RFETCHWAL s 1\nRFETCHWAL s 1 0\nRFETCHWAL s 1 60\n";
  script += "RFETCHWAL s 1 -60\nRFETCHWAL s 1 abc\n";  // not an offset
  script += "RFETCHWAL s 1 60 junk\nRFETCHWAL s\n";
  script += "RFETCHWAL s 1 99999999999999999999999\n";  // overflows u64
  script += "LIST\nQUIT\n";
  Check(script);
}

TEST_F(ByteIdentityTest, FuzzedGarbageLines) {
  // Deterministic junk: no crashes, and both transports agree byte for
  // byte on every reply. (xorshift instead of a seeded <random> engine so
  // the byte stream is fixed forever.)
  std::string script;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const std::string alphabet =
      "AZaz09 .,-+eE\t~#OBSERVE SOLVE \xff\x01";
  for (int i = 0; i < 200; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const size_t len = state % 23;
    for (size_t j = 0; j < len; ++j) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      script += alphabet[state % alphabet.size()];
    }
    script += '\n';
  }
  script += "LIST\nQUIT\n";
  Check(script);
}

TEST_F(ByteIdentityTest, TwentyThousandRequestFrame) {
  // One frame of 20,000 mixed requests, walked by offset on the TCP side:
  // OBSERVEB batches (each followed by a cold SOLVE offloaded mid-frame),
  // cached SOLVEs and LISTs.
  const Dataset ds = TestData();
  std::string script = "CREATE s " + SpecFor(ds) + "\n";
  size_t next = 0;
  for (int i = 0; i < 20000; ++i) {
    if (i % 8 == 0) {
      script += "OBSERVEB s 2\n";
      for (int j = 0; j < 2; ++j, ++next) {
        const StreamPoint p = ds.At(next % ds.size());
        script += std::to_string(next) + " " + std::to_string(p.group);
        for (const double c : p.coords) script += " " + std::to_string(c);
        script += "\n";
      }
    } else if (i % 8 < 6) {
      script += "SOLVE s\n";
    } else {
      script += "LIST\n";
    }
  }
  script += "QUIT\n";
  Check(script);
}

// ---------------------------------------------------------------------------
// Ranged RFETCHWAL: offset 0 is the old 2-argument form byte for byte, a
// ranged reply is exactly the segment's suffix, and a bad offset is an
// ERR from a checked parse (never an exception out of std::stoull).
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, RangedWalFetchIsTheSegmentSuffix) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  for (size_t i = 0; i < 30; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(manager->Ingest("s", {&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(manager->Snapshot("s").ok());  // flushes the WAL

  const std::string whole = RunStdin(dispatcher, "RFETCHWAL s 1\n");
  EXPECT_EQ(RunStdin(dispatcher, "RFETCHWAL s 1 0\n"), whole);
  const std::string header_prefix = "OK bytes=";
  ASSERT_EQ(whole.rfind(header_prefix, 0), 0u) << whole.substr(0, 40);
  const size_t nl = whole.find('\n');
  const std::string segment =
      whole.substr(nl + 1, std::stoul(whole.substr(header_prefix.size())));
  ASSERT_GT(segment.size(), 100u);
  for (const size_t offset : {size_t{8}, size_t{100}, segment.size()}) {
    const std::string tail = segment.substr(offset);
    EXPECT_EQ(RunStdin(dispatcher,
                       "RFETCHWAL s 1 " + std::to_string(offset) + "\n"),
              "OK bytes=" + std::to_string(tail.size()) + "\n" + tail + "\n")
        << "offset " << offset;
  }

  const std::string usage =
      "ERR RFETCHWAL requires <name> <first_seq> [<offset>]\n";
  for (const std::string bad :
       {"-8", "abc", "8x", "+8", "99999999999999999999999", "8 junk"}) {
    EXPECT_EQ(RunStdin(dispatcher, "RFETCHWAL s 1 " + bad + "\n"), usage)
        << bad;
  }
  const std::string past_end = RunStdin(
      dispatcher, "RFETCHWAL s 1 " + std::to_string(segment.size() + 1) +
                      "\n");
  EXPECT_EQ(past_end.rfind("ERR ", 0), 0u) << past_end;
  EXPECT_NE(past_end.find("past end"), std::string::npos) << past_end;
}

// The replication verbs only read, so both transports can run against one
// server state — which is what covers RFETCHSNAP (two servers never write
// the same snapshot bytes) and the ERR replies that name a file.
TEST_F(ServeProtocolTest, ReadOnlyReplicationVerbsMatchOverTcp) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  for (size_t i = 0; i < 30; ++i) {
    const StreamPoint pt = ds.At(i);
    ASSERT_TRUE(manager->Ingest("s", {&pt, 1}, /*as_batch=*/false).ok());
  }
  ASSERT_TRUE(manager->Snapshot("s").ok());
  const std::string script =
      "RMANIFEST s\nRFETCHSNAP s 30\nRFETCHSNAP s 29\nRFETCHWAL s 1\n"
      "RFETCHWAL s 1 0\nRFETCHWAL s 1 8\nRFETCHWAL s 1 99999999\n"
      "RFETCHWAL s 7\nRFETCHWAL s 1 -8\nRMANIFEST ghost\n";
  const std::string expected = RunStdin(dispatcher, script);
  ASSERT_NE(expected.find("OK bytes="), std::string::npos);
  std::string actual;
  RunTcp(dispatcher, script, &actual);
  EXPECT_EQ(actual, expected);
}

// Fetch replies larger than the 64 KiB read window — a whole and a ranged
// RFETCHWAL and an RFETCHSNAP, pipelined in one frame — are read straight
// into the reply (framed in place over TCP) and must carry the file's
// bytes exactly, over both transports.
TEST_F(ServeProtocolTest, FetchRepliesLargerThanTheWindowAreTheFileBytes) {
  const Dataset ds = TestData(12000, 73);
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession(
                          "s", "algo=sfdm2 dim=2 quotas=2,2 dmin=0.001 "
                               "dmax=1000 dedup=on")
                  .ok());
  std::vector<StreamPoint> batch;
  for (size_t i = 0; i < ds.size(); ++i) {
    batch.push_back(ds.At(i));
    if (batch.size() == 1000) {
      ASSERT_TRUE(manager->Ingest("s", batch, /*as_batch=*/true).ok());
      batch.clear();
    }
  }
  ASSERT_TRUE(manager->Snapshot("s").ok());  // flushes the WAL

  const std::string dir = root_ + "/p/s";
  auto segment = FileBytes(dir + "/wal/" + WalSegmentFileName(1));
  auto snapshot = FileBytes(dir + "/snap/" + SessionSnapshotFileName(12000));
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_GT(segment->size(), 4 * kIoWindowBytes);
  ASSERT_GT(snapshot->size(), kIoWindowBytes);
  const size_t offset = 1000;
  const auto reply = [](std::string_view bytes) {
    return "OK bytes=" + std::to_string(bytes.size()) + "\n" +
           std::string(bytes) + "\n";
  };
  const std::string expected = reply(*segment) +
                               reply(segment->substr(offset)) +
                               reply(*snapshot) + "OK s\n";
  const std::string script = "RFETCHWAL s 1\nRFETCHWAL s 1 " +
                             std::to_string(offset) +
                             "\nRFETCHSNAP s 12000\nLIST\n";
  EXPECT_EQ(RunStdin(dispatcher, script), expected);
  std::string tcp;
  RunTcp(dispatcher, script, &tcp);
  EXPECT_EQ(tcp, expected);
}

// A fetch whose reply would not fit one frame (64 MiB) is answered ERR,
// with the reply's size and the limit, before a byte of the file is read;
// over TCP the request pipelined behind it is still answered. The 65 MiB
// snapshot is a sparse file: it takes no disk blocks.
TEST_F(ServeProtocolTest, FetchOverTheFrameLimitIsAnErrOnBothTransports) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  const std::string snap_dir = SessionSnapDir(root_ + "/p/s");
  std::filesystem::create_directories(snap_dir);
  const std::string path = snap_dir + "/" + SessionSnapshotFileName(1);
  std::ofstream(path, std::ios::binary).close();
  std::filesystem::resize_file(path, 65u << 20);

  const std::string script = "RFETCHSNAP s 1\nLIST\n";
  const std::string expected =
      "ERR RFETCHSNAP reply of 68157459 bytes exceeds the 67108864-byte "
      "frame limit\nOK s\n";
  EXPECT_EQ(RunStdin(dispatcher, script), expected);
  std::string tcp;
  RunTcp(dispatcher, script, &tcp);
  EXPECT_EQ(tcp, expected);
}

// ---------------------------------------------------------------------------
// Regression: --metrics-dump period parse (used to call std::stoi and
// crash with an uncaught std::out_of_range on a 20-digit period).
// ---------------------------------------------------------------------------

TEST(MetricsDumpSpecTest, OverflowingPeriodIsAnErrorNotACrash) {
  auto dumper = obs::MakeMetricsDumper("/tmp/m.prom,99999999999999999999");
  ASSERT_FALSE(dumper.ok());
  EXPECT_NE(dumper.status().ToString().find("out of range"),
            std::string::npos);
}

TEST(MetricsDumpSpecTest, ZeroPeriodIsAnError) {
  EXPECT_FALSE(obs::MakeMetricsDumper("/tmp/m.prom,0").ok());
}

TEST(MetricsDumpSpecTest, EmptyPathWithPeriodIsAnError) {
  EXPECT_FALSE(obs::MakeMetricsDumper(",500").ok());
}

TEST(MetricsDumpSpecTest, ValidSpecsParse) {
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(obs::MakeMetricsDumper("").ok());  // flag absent: null dumper
  EXPECT_EQ(*obs::MakeMetricsDumper(""), nullptr);
  auto plain = obs::MakeMetricsDumper(dir + "/plain.prom");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(*plain, nullptr);
  auto with_period = obs::MakeMetricsDumper(dir + "/p.prom,500");
  ASSERT_TRUE(with_period.ok());
  // Non-digit suffix after the comma: the comma belongs to the path.
  auto comma_path = obs::MakeMetricsDumper(dir + "/odd,name.prom");
  ASSERT_TRUE(comma_path.ok());
}

// With a period the dumper rewrites its file while it lives, not only in
// its destructor: a removed dump file comes back.
TEST(MetricsDumpSpecTest, PeriodicDumpRewritesTheFile) {
  const std::string path = ::testing::TempDir() + "/fdm_periodic_dump.prom";
  std::filesystem::remove(path);
  const auto appears = [&path] {
    for (int i = 0; i < 500 && !std::filesystem::exists(path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return std::filesystem::exists(path);
  };
  auto dumper = obs::MakeMetricsDumper(path + ",5");
  ASSERT_TRUE(dumper.ok());
  ASSERT_NE(*dumper, nullptr);
  EXPECT_TRUE(appears());
  std::filesystem::remove(path);
  EXPECT_TRUE(appears());
  dumper->reset();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Regression: non-finite coordinates must never reach Ingest. This
// toolchain's operator>> already rejects "inf"/"nan" spellings, but the
// dispatcher adds an explicit isfinite() guard so the contract holds on
// standard libraries that do parse them — either way the observable
// behavior is pinned here: an ERR reply and an unchanged session.
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, NonFiniteObserveIsRejected) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  for (const std::string bad :
       {"inf", "-inf", "nan", "NaN", "Infinity", "1e999999"}) {
    const std::string out =
        RunStdin(dispatcher, "OBSERVE s 1 0 " + bad + " 2.0\n");
    EXPECT_EQ(out.rfind("ERR OBSERVE requires", 0), 0u) << bad << ": " << out;
    // At the end of the line too, where `>>` hitting the end once passed
    // for a clean read (and, with a CRLF client, before the '\r').
    for (const std::string end : {"\n", "\r\n"}) {
      const std::string trailing =
          RunStdin(dispatcher, "OBSERVE s 1 0 2.0 3.0 " + bad + end);
      EXPECT_EQ(trailing.rfind("ERR OBSERVE requires", 0), 0u)
          << bad << ": " << trailing;
    }
  }
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);  // nothing slipped past the guard
}

TEST_F(ServeProtocolTest, NonFiniteBatchLineIsRejectedAndDrained) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  const std::string out = RunStdin(
      dispatcher, "OBSERVEB s 3\n1 0 1 2\n2 0 nan 4\n3 0 5 6\nLIST\n");
  // Whole batch rejected, remaining payload drained, LIST still a command.
  EXPECT_EQ(out.rfind("ERR OBSERVEB batch line 1 requires", 0), 0u) << out;
  EXPECT_NE(out.find("OK s\n"), std::string::npos) << out;
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);
}

// ---------------------------------------------------------------------------
// Regression: no-payload verbs reject trailing garbage consistently
// (`METRICS json garbage` used to be silently accepted).
// ---------------------------------------------------------------------------

TEST_F(ServeProtocolTest, TrailingGarbageRejectedOnPrimary) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  const struct {
    std::string request;
    std::string expect;
  } cases[] = {
      {"METRICS json garbage", "ERR METRICS takes no argument or 'json'\n"},
      {"METRICS garbage", "ERR METRICS takes no argument or 'json'\n"},
      {"SOLVE s garbage", "ERR SOLVE takes only a session name\n"},
      {"STATS s garbage", "ERR STATS takes only a session name\n"},
      {"SNAPSHOT s garbage", "ERR SNAPSHOT takes only a session name\n"},
      {"RESTORE s garbage", "ERR RESTORE takes only a session name\n"},
      {"LIST garbage", "ERR LIST takes no arguments\n"},
      {"QUIT garbage", "ERR QUIT takes no arguments\n"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RunStdin(dispatcher, c.request + "\n"), c.expect) << c.request;
  }
  // `QUIT garbage` must NOT quit: the next request is still served.
  EXPECT_EQ(RunStdin(dispatcher, "QUIT garbage\nLIST\n"),
            "ERR QUIT takes no arguments\nOK s\n");
  // And the well-formed verbs still work.
  EXPECT_EQ(RunStdin(dispatcher, "LIST\n"), "OK s\n");
}

TEST_F(ServeProtocolTest, TrailingGarbageRejectedOnFollower) {
  const Dataset ds = TestData();
  auto manager = NewManager("p");
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  const StreamPoint pt = ds.At(0);
  ASSERT_TRUE(manager->Ingest("s", {&pt, 1}, /*as_batch=*/false).ok());
  ASSERT_TRUE(manager->Snapshot("s").ok());

  ReplicaManagerOptions options;
  options.primary_root = root_ + "/p";
  auto replicas = ReplicaManager::Create(options);
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();
  net::RequestDispatcher dispatcher(replicas->get(), options.primary_root);
  const struct {
    std::string request;
    std::string expect;
  } cases[] = {
      {"SOLVE s garbage", "ERR SOLVE takes only a session name\n"},
      {"STATS s garbage", "ERR STATS takes only a session name\n"},
      {"LAG s garbage", "ERR LAG takes only a session name\n"},
      {"REPLICA s garbage", "ERR REPLICA takes only a session name\n"},
      {"LIST garbage", "ERR LIST takes no arguments\n"},
      {"QUIT garbage", "ERR QUIT takes no arguments\n"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RunStdin(dispatcher, c.request + "\n"), c.expect) << c.request;
  }
}

// ---------------------------------------------------------------------------
// The event loop's SOLVE: `Execute` told to defer answers a well-formed
// SOLVE from the cache in one lookup, or hands it back deferred with
// nothing appended, computed, loaded or bootstrapped; the TCP server then
// sheds it at the cold cap or runs it on a solve worker.
// ---------------------------------------------------------------------------

class DeferredSolveTest : public ServeProtocolTest {
 protected:
  /// Runs `line` as the TCP event loop does.
  static net::RequestOutcome OnLoop(net::RequestDispatcher& dispatcher,
                                    const std::string& line,
                                    std::string* out) {
    out->clear();
    net::StringLineSource no_payload{std::string_view()};
    return dispatcher.Execute(net::RequestDispatcher::Classify(line),
                              no_payload, out, /*body=*/nullptr,
                              /*defer_cold_solve=*/true);
  }

  /// A primary session `s` holding `n` points of `TestData()`.
  std::unique_ptr<SessionManager> Primary(size_t n, size_t max_resident = 0) {
    SessionManagerOptions options;
    options.root_dir = root_ + "/p";
    options.max_resident = max_resident;
    auto manager = SessionManager::Create(options);
    EXPECT_TRUE(manager.ok()) << manager.status().ToString();
    const Dataset ds = TestData();
    EXPECT_TRUE((*manager)->CreateSession("s", SpecFor(ds)).ok());
    for (size_t i = 0; i < n; ++i) {
      const StreamPoint pt = ds.At(i);
      EXPECT_TRUE((*manager)->Ingest("s", {&pt, 1}, /*as_batch=*/false).ok());
    }
    return std::move(manager.value());
  }

  static uint64_t SolveMisses(SessionManager& manager) {
    auto stats = manager.Stats("s");
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return stats.ok() ? stats->solve_misses : 0;
  }
};

TEST_F(DeferredSolveTest, MissIsDeferredUnrunAndHitAnsweredInPlace) {
  auto manager = Primary(40);
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  std::string out;
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE s", &out),
            net::RequestOutcome::kDeferredSolve);
  EXPECT_EQ(out, "");
  EXPECT_EQ(SolveMisses(*manager), 0u);
  // An unknown session is the worker's to answer, as a miss is.
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE ghost", &out),
            net::RequestOutcome::kDeferredSolve);
  EXPECT_EQ(out, "");
  // A malformed SOLVE is answered on the spot, never deferred.
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE s extra", &out),
            net::RequestOutcome::kReply);
  EXPECT_EQ(out, "ERR SOLVE takes only a session name\n");
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE", &out), net::RequestOutcome::kReply);
  EXPECT_EQ(out, "ERR SOLVE requires a session name\n");
  EXPECT_EQ(SolveMisses(*manager), 0u);

  // The worker's path computes; the loop then answers the hit with the
  // same bytes.
  const std::string computed = RunStdin(dispatcher, "SOLVE s\n");
  ASSERT_EQ(computed.rfind("OK div=", 0), 0u) << computed;
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE s", &out), net::RequestOutcome::kReply);
  EXPECT_EQ(out, computed);
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->solve_misses, 1u);
  EXPECT_EQ(stats->solve_hits, 1u);
}

TEST_F(DeferredSolveTest, SpilledSessionIsDeferredWithoutALoad) {
  auto manager = Primary(40, /*max_resident=*/1);
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_EQ(RunStdin(dispatcher, "SOLVE s\n").rfind("OK div=", 0), 0u);
  const Dataset ds = TestData();
  ASSERT_TRUE(manager->CreateSession("other", SpecFor(ds)).ok());  // spills s
  ASSERT_EQ(manager->ResidentCount(), 1u);
  // Its solution is still cached (the cache outlives the spill), but
  // serving it would mean a reload on the event loop.
  std::string out;
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE s", &out),
            net::RequestOutcome::kDeferredSolve);
  EXPECT_EQ(out, "");
  EXPECT_EQ(manager->ResidentCount(), 1u);
  auto stats = manager->Stats("s");  // this loads it
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->resident) << "the deferred SOLVE reloaded the session";
}

TEST_F(DeferredSolveTest, IngestBetweenParseAndExecuteDefers) {
  // The request is read, then another connection's OBSERVE moves the
  // session's state before it runs: the SOLVE that was a hit when read is
  // a miss when run, and the event loop must not compute it.
  auto manager = Primary(40);
  net::RequestDispatcher dispatcher(manager.get(), root_ + "/p");
  ASSERT_EQ(RunStdin(dispatcher, "SOLVE s\n").rfind("OK div=", 0), 0u);
  const std::string line = "SOLVE s";
  const net::RequestInfo request = net::RequestDispatcher::Classify(line);
  const uint64_t version = manager->Stats("s")->state_version;
  ASSERT_EQ(RunStdin(dispatcher, "OBSERVE s 1000 1 50 -50\n"), "OK\n");
  ASSERT_NE(manager->Stats("s")->state_version, version);
  std::string out;
  net::StringLineSource no_payload{std::string_view()};
  EXPECT_EQ(dispatcher.Execute(request, no_payload, &out, /*body=*/nullptr,
                               /*defer_cold_solve=*/true),
            net::RequestOutcome::kDeferredSolve);
  EXPECT_EQ(out, "");
  EXPECT_EQ(SolveMisses(*manager), 1u);
}

TEST_F(DeferredSolveTest, FollowerDefersASessionNotBootstrapped) {
  auto manager = Primary(40);
  ASSERT_TRUE(manager->Snapshot("s").ok());
  ReplicaManagerOptions options;
  options.primary_root = root_ + "/p";
  auto replicas = ReplicaManager::Create(options);
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();
  net::RequestDispatcher dispatcher(replicas->get(), options.primary_root);
  obs::Counter& bootstraps = obs::MetricsRegistry::Global().GetCounter(
      "fdm_replica_bootstraps_total", "");
  const uint64_t bootstraps0 = bootstraps.Value();
  std::string out;
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE s", &out),
            net::RequestOutcome::kDeferredSolve);
  EXPECT_EQ(out, "");
  EXPECT_EQ(bootstraps.Value(), bootstraps0);
  // The worker's path bootstraps and computes; then the loop serves hits.
  const std::string computed = RunStdin(dispatcher, "SOLVE s\n");
  ASSERT_EQ(computed.rfind("OK div=", 0), 0u) << computed;
  EXPECT_EQ(bootstraps.Value(), bootstraps0 + (obs::kMetricsEnabled ? 1 : 0));
  EXPECT_EQ(OnLoop(dispatcher, "SOLVE s", &out), net::RequestOutcome::kReply);
  EXPECT_EQ(out, computed);
}

}  // namespace
}  // namespace fdm
