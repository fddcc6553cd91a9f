// TCP front end behavior (src/net/tcp_server.h): admission control under
// cold-SOLVE floods and per-session rate limits, framing units, and the
// socket replication transport end-to-end (a follower tailing a primary
// over `tcp://`, no shared filesystem path used for fetches).

#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "net/admission.h"
#include "net/dispatch.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "obs/metrics.h"
#include "replica/replica_manager.h"
#include "service/session_layout.h"
#include "service/session_manager.h"

namespace fdm {
namespace {

Dataset TestData(size_t n, uint64_t seed = 91) {
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

/// Feeds `ds` into session `name` through batched OBSERVEB requests.
void IngestAll(SessionManager& manager, const std::string& name,
               const Dataset& ds) {
  std::vector<StreamPoint> points;
  points.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) points.push_back(ds.At(i));
  ASSERT_TRUE(manager.Ingest(name, points, /*as_batch=*/true).ok());
}

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/fdm_net_server_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::unique_ptr<SessionManager> NewManager() {
    SessionManagerOptions options;
    options.root_dir = root_;
    auto manager = SessionManager::Create(options);
    EXPECT_TRUE(manager.ok()) << manager.status().ToString();
    return std::move(manager.value());
  }

  std::string root_;
};

TEST(FrameTest, RoundTripAndLimits) {
  std::string wire;
  net::AppendFrame("SOLVE s\n", &wire);
  net::AppendFrame("", &wire);  // empty frames are legal
  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(net::ParseFrame(wire, &payload, &consumed),
            net::FrameParse::kFrame);
  EXPECT_EQ(payload, "SOLVE s\n");
  std::string_view rest = std::string_view(wire).substr(consumed);
  ASSERT_EQ(net::ParseFrame(rest, &payload, &consumed),
            net::FrameParse::kFrame);
  EXPECT_EQ(payload, "");

  // Truncated header / payload: need more, never a false parse.
  EXPECT_EQ(net::ParseFrame(wire.substr(0, 3), &payload, &consumed),
            net::FrameParse::kNeedMore);
  EXPECT_EQ(net::ParseFrame(wire.substr(0, 6), &payload, &consumed),
            net::FrameParse::kNeedMore);

  // Oversized announced length is a protocol error.
  const std::string huge{'\xff', '\xff', '\xff', '\xff'};
  EXPECT_EQ(net::ParseFrame(huge, &payload, &consumed),
            net::FrameParse::kError);
}

// A drained buffer keeps at most 64 KiB of capacity: the bound is paid
// once per connection, and a follower opens one per replicated session.
// Anything above is given back; a buffer still holding bytes never is.
TEST(FrameTest, ReleaseIfDrainedKeepsAtMost64KiB) {
  constexpr size_t kBound = 64u << 10;
  std::string at_bound;
  at_bound.reserve(kBound);
  ASSERT_EQ(at_bound.capacity(), kBound);
  EXPECT_EQ(net::ReleaseIfDrained(at_bound), 0u);
  EXPECT_EQ(at_bound.capacity(), kBound);

  std::string above;
  above.reserve(kBound + 1);
  ASSERT_EQ(above.capacity(), kBound + 1);
  EXPECT_EQ(net::ReleaseIfDrained(above), 0u);
  EXPECT_EQ(above.capacity(), std::string().capacity());

  std::string pending(1, 'x');
  pending.reserve(4 * kBound);
  const size_t held = pending.capacity();
  EXPECT_EQ(net::ReleaseIfDrained(pending), held);
  EXPECT_EQ(pending.capacity(), held);
  EXPECT_EQ(pending, "x");
}

TEST(ParseTcpAddressTest, Forms) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(net::ParseTcpAddress("tcp://127.0.0.1:9090", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9090);
  EXPECT_FALSE(net::ParseTcpAddress("/some/dir", &host, &port));
  EXPECT_FALSE(net::ParseTcpAddress("tcp://host", &host, &port));
  EXPECT_FALSE(net::ParseTcpAddress("tcp://host:", &host, &port));
  EXPECT_FALSE(net::ParseTcpAddress("tcp://host:0", &host, &port));
  EXPECT_FALSE(net::ParseTcpAddress("tcp://host:999999", &host, &port));
  EXPECT_FALSE(net::ParseTcpAddress("tcp://:80", &host, &port));
}

TEST_F(NetServerTest, ColdSolveFloodShedsWhileCachedTrafficFlows) {
  // With cold_solve_cap=1 and the single slot held (the streaming sink
  // keeps a bounded coreset, so even a huge session's cold solve finishes
  // in sub-millisecond time — an externally claimed slot is the only
  // deterministic way to model a solve in flight), every cold SOLVE must
  // shed immediately while cached traffic keeps flowing.
  const Dataset big = TestData(400);
  const Dataset small = TestData(80, 17);
  auto manager = NewManager();
  ASSERT_TRUE(manager->CreateSession("big", SpecFor(big)).ok());
  ASSERT_TRUE(manager->CreateSession("small", SpecFor(small)).ok());
  IngestAll(*manager, "big", big);
  IngestAll(*manager, "small", small);
  ASSERT_TRUE(manager->Solve("small").ok());  // warm the small cache

  net::RequestDispatcher dispatcher(manager.get(), root_);
  net::TcpServerOptions options;
  options.admission.cold_solve_cap = 1;
  options.solve_workers = 2;
  auto server = net::TcpServer::Start(&dispatcher, std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  ASSERT_TRUE((*server)->admission().TryEnterColdSolve());  // hold the slot

  // A flood of cold SOLVEs — `big` was never solved, so it classifies
  // cache-missing — sheds instead of queueing behind the held slot.
  auto flood = net::NetClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(flood.ok());
  for (int i = 0; i < 8; ++i) {
    auto reply = flood->Call("SOLVE big");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "ERR shed cold solve capacity\n");
  }
  EXPECT_GE((*server)->admission().cold_shed_total(), 8u);

  // The cached session answers regardless of the cold flood.
  auto cached = net::NetClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(cached.ok());
  auto small_reply = cached->Call("SOLVE small");
  ASSERT_TRUE(small_reply.ok());
  EXPECT_EQ(small_reply->rfind("OK div=", 0), 0u) << *small_reply;

  // Releasing the slot restores cold-solve service on the same
  // connection — shed is per-request back-pressure, not a ban.
  (*server)->admission().LeaveColdSolve();
  auto big_reply = flood->Call("SOLVE big");
  ASSERT_TRUE(big_reply.ok());
  EXPECT_EQ(big_reply->rfind("OK div=", 0), 0u) << *big_reply;
  // Now cached on the primary: the same SOLVE no longer classifies cold,
  // so it succeeds even with the capacity re-claimed.
  ASSERT_TRUE((*server)->admission().TryEnterColdSolve());
  auto warm_reply = flood->Call("SOLVE big");
  ASSERT_TRUE(warm_reply.ok());
  EXPECT_EQ(*warm_reply, *big_reply);
  (*server)->admission().LeaveColdSolve();
}

TEST_F(NetServerTest, SessionRateLimitShedsAndPreservesFraming) {
  const Dataset ds = TestData(60, 29);
  auto manager = NewManager();
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());

  net::RequestDispatcher dispatcher(manager.get(), root_);
  net::TcpServerOptions options;
  options.admission.session_rate = 0.001;  // effectively: burst only
  options.admission.session_burst = 1.0;
  auto server = net::TcpServer::Start(&dispatcher, std::move(options));
  ASSERT_TRUE(server.ok());

  auto client = net::NetClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  // One pipelined frame: the first session request spends the only
  // token; the shed OBSERVEB must still drain its two payload lines so
  // LIST parses as a command.
  ASSERT_TRUE(
      client->Send("STATS s\nOBSERVEB s 2\n1 0 1 2\n2 0 3 4\nLIST\n").ok());
  auto first = client->Recv();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rfind("OK observed=0", 0), 0u) << *first;
  auto second = client->Recv();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "ERR shed session 's' over rate limit\n");
  auto third = client->Recv();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, "OK s\n");
  EXPECT_GE((*server)->admission().rate_shed_total(), 1u);
  // The shed batch was never applied.
  auto stats = manager->Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->observed, 0);
}

// A client cycling fresh session names cannot grow the bucket map without
// bound: at a rate that refills a spent token within a nanosecond, every
// swept bucket is full again, so the map stays at its sweep mark.
TEST(AdmissionControllerTest, DistinctNameFloodKeepsBucketsBounded) {
  net::AdmissionOptions options;
  options.session_rate = 1e9;
  options.session_burst = 1.0;
  net::AdmissionController admission(options);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(admission.AdmitSessionRequest("name" + std::to_string(i)));
  }
  EXPECT_LE(admission.buckets(), 128u);
}

// Only full buckets are swept: a session that spent its burst keeps its
// (empty) bucket through a flood of other names and is still shed.
TEST(AdmissionControllerTest, SpentBucketSurvivesSweeps) {
  net::AdmissionOptions options;
  options.session_rate = 1.0;
  options.session_burst = 2.0;
  net::AdmissionController admission(options);
  EXPECT_TRUE(admission.AdmitSessionRequest("hot"));
  EXPECT_TRUE(admission.AdmitSessionRequest("hot"));
  EXPECT_FALSE(admission.AdmitSessionRequest("hot"));
  for (int i = 0; i < 10000; ++i) {
    admission.AdmitSessionRequest("name" + std::to_string(i));
  }
  EXPECT_FALSE(admission.AdmitSessionRequest("hot"));
  EXPECT_EQ(admission.rate_shed_total(), 2u);
}

TEST_F(NetServerTest, SocketReplicationFollowsPrimaryOverTcp) {
  const Dataset ds = TestData(240, 37);
  auto manager = NewManager();
  ASSERT_TRUE(manager->CreateSession("rep", SpecFor(ds)).ok());
  const size_t half = ds.size() / 2;
  std::vector<StreamPoint> first_half;
  for (size_t i = 0; i < half; ++i) first_half.push_back(ds.At(i));
  ASSERT_TRUE(manager->Ingest("rep", first_half, true).ok());
  ASSERT_TRUE(manager->Snapshot("rep").ok());  // bootstrap point
  std::vector<StreamPoint> second_half;
  for (size_t i = half; i < ds.size(); ++i) second_half.push_back(ds.At(i));
  ASSERT_TRUE(manager->Ingest("rep", second_half, true).ok());  // WAL tail
  // A follower replicates durable state: WAL appends are buffered until
  // the next fsync point, so flush them via a graceful close (the session
  // reloads lazily on next use) before serving the manifest.
  ASSERT_TRUE(manager->DropResident("rep").ok());

  net::RequestDispatcher dispatcher(manager.get(), root_);
  auto server = net::TcpServer::Start(&dispatcher, {});
  ASSERT_TRUE(server.ok());

  ReplicaManagerOptions options;
  options.primary_root =
      "tcp://127.0.0.1:" + std::to_string((*server)->port());
  options.poll_ms = 0;  // poll on demand only
  auto replicas = ReplicaManager::Create(options);
  ASSERT_TRUE(replicas.ok()) << replicas.status().ToString();

  // Discovery over LIST, bootstrap over RFETCHSNAP, tail over RFETCHWAL.
  const auto names = (*replicas)->SessionNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "rep");
  auto follower_solve = (*replicas)->Solve("rep");
  ASSERT_TRUE(follower_solve.ok()) << follower_solve.status().ToString();
  EXPECT_EQ(follower_solve->applied_seq, static_cast<int64_t>(ds.size()));
  EXPECT_FALSE(follower_solve->stale);

  auto primary_solve = manager->Solve("rep");
  ASSERT_TRUE(primary_solve.ok());
  EXPECT_EQ(follower_solve->solution.Ids(), primary_solve->Ids());
  EXPECT_DOUBLE_EQ(follower_solve->solution.diversity,
                   primary_solve->diversity);

  // New primary writes flow to the follower on the next poll.
  const Dataset more = TestData(40, 41);
  std::vector<StreamPoint> extra;
  for (size_t i = 0; i < more.size(); ++i) {
    StreamPoint p = more.At(i);
    p.id += 1000000;  // distinct ids
    extra.push_back(p);
  }
  ASSERT_TRUE(manager->Ingest("rep", extra, true).ok());
  ASSERT_TRUE(manager->DropResident("rep").ok());  // make the tail durable
  auto before = (*replicas)->Stats("rep");
  ASSERT_TRUE(before.ok());
  auto applied = (*replicas)->Poll("rep");
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, static_cast<int64_t>(extra.size()));
  auto lag = (*replicas)->Stats("rep");
  ASSERT_TRUE(lag.ok());
  EXPECT_EQ(lag->lag, 0);
  // The poll shipped only the new records (a ranged RFETCHWAL), not the
  // whole active segment, which still holds the entire stream.
  const uint64_t record_bytes = 4 + 24 + 8 * 2 + 8;  // dim-2 WAL record
  EXPECT_LE(lag->fetched_bytes - before->fetched_bytes,
            extra.size() * record_bytes);

  // The follower survives a primary front-end restart: stop the server,
  // a poll fails, restart on a new port is NOT transparent (the address
  // changed) — but the same address coming back is. Simulate with a
  // second server on the same dispatcher and the follower's next call
  // reconnecting after the first connection died.
  const int old_port = (*server)->port();
  (*server)->Stop();
  auto down = (*replicas)->Poll("rep");
  EXPECT_FALSE(down.ok());  // primary unreachable is an error, not a hang
  net::TcpServerOptions reopen;
  reopen.port = old_port;
  auto revived = net::TcpServer::Start(&dispatcher, std::move(reopen));
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  auto healed = (*replicas)->Poll("rep");
  EXPECT_TRUE(healed.ok()) << healed.status().ToString();
}

/// A plain blocking TCP socket, for writing a frame in pieces (NetClient
/// only sends whole frames). A nonzero `rcvbuf` sets SO_RCVBUF before the
/// connect, so the window it advertises stays that small. -1 on failure.
int ConnectRaw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0 && rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Reads one reply frame's payload off a raw socket ("" on error).
std::string ReadFrame(int fd) {
  std::string buf;
  char chunk[4096];
  while (true) {
    std::string_view payload;
    size_t consumed = 0;
    if (net::ParseFrame(buf, &payload, &consumed) == net::FrameParse::kFrame) {
      return std::string(payload);
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";
    buf.append(chunk, static_cast<size_t>(n));
  }
}

// Connection buffers give back capacity past the 64 KiB retention bound
// once drained, so an idle follower connection never pins its largest
// reply. The `fdm_net_buffered_bytes` gauge shows a half-received 2 MiB
// frame held in a connection's input buffer, and falls back once that
// frame — and then a multi-MiB RFETCHSNAP reply — has been handled.
TEST_F(NetServerTest, OversizedBuffersAreReleasedOnceDrained) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "needs the metrics registry";
  const Dataset ds = TestData(60, 47);
  auto manager = NewManager();
  ASSERT_TRUE(manager->CreateSession("big", SpecFor(ds)).ok());
  // RFETCHSNAP ships a snapshot file's raw bytes, so any file under a
  // snapshot name makes a multi-MiB reply.
  const std::string snap_dir = SessionSnapDir(root_ + "/big");
  std::filesystem::create_directories(snap_dir);
  constexpr size_t kSnapBytes = 3u << 20;
  {
    std::ofstream snap(snap_dir + "/" + SessionSnapshotFileName(1),
                       std::ios::binary);
    snap << std::string(kSnapBytes, 'x');
  }

  net::RequestDispatcher dispatcher(manager.get(), root_);
  auto server = net::TcpServer::Start(&dispatcher, {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const obs::Gauge& buffered =
      obs::MetricsRegistry::Global().GetGauge("fdm_net_buffered_bytes", "");
  const double baseline = buffered.Value();
  // The loop thread moves the gauge after the client's own I/O returns.
  const auto eventually = [&buffered](auto holds) {
    for (int i = 0; i < 500 && !holds(buffered.Value()); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return holds(buffered.Value());
  };

  const int fd = ConnectRaw((*server)->port());
  ASSERT_GE(fd, 0);
  std::string frame;
  net::AppendFrame("LIST" + std::string((2u << 20) - 5, ' ') + "\n", &frame);
  ASSERT_TRUE(WriteAll(fd, std::string_view(frame).substr(0, 1u << 20)));
  EXPECT_TRUE(eventually([&](double v) { return v >= baseline + (1u << 19); }))
      << buffered.Value();
  ASSERT_TRUE(WriteAll(fd, std::string_view(frame).substr(1u << 20)));
  EXPECT_EQ(ReadFrame(fd), "OK big\n");
  EXPECT_TRUE(eventually([&](double v) { return v == baseline; }))
      << buffered.Value();
  ::close(fd);

  auto client = net::NetClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto reply = client->Call("RFETCHSNAP big 1");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->size(),
            ("OK bytes=" + std::to_string(kSnapBytes) + "\n").size() +
                kSnapBytes + 1);
  EXPECT_TRUE(eventually([&](double v) { return v == baseline; }))
      << buffered.Value();
}

// A reply far larger than the socket buffers leaves in many partial
// writes, which FlushConn walks by offset instead of erasing each written
// prefix. Read through a small receive window in 4 KiB reads, a 9 MiB
// RFETCHSNAP reply still arrives byte for byte, and the request pipelined
// behind it on the same connection is answered after it.
TEST_F(NetServerTest, LargeReplyThroughSmallWindowArrivesWhole) {
  const Dataset ds = TestData(60, 53);
  auto manager = NewManager();
  ASSERT_TRUE(manager->CreateSession("big", SpecFor(ds)).ok());
  const std::string snap_dir = SessionSnapDir(root_ + "/big");
  std::filesystem::create_directories(snap_dir);
  std::string snap(9u << 20, '\0');
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (char& c : snap) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(state >> 56);
  }
  {
    std::ofstream out(snap_dir + "/" + SessionSnapshotFileName(1),
                      std::ios::binary);
    out << snap;
  }

  net::RequestDispatcher dispatcher(manager.get(), root_);
  auto server = net::TcpServer::Start(&dispatcher, {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int fd = ConnectRaw((*server)->port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  std::string frames;
  net::AppendFrame("RFETCHSNAP big 1\n", &frames);
  net::AppendFrame("LIST\n", &frames);
  ASSERT_TRUE(WriteAll(fd, frames));

  std::string wire;
  const auto next_frame = [&]() -> std::string {
    char chunk[4096];
    while (true) {
      std::string_view payload;
      size_t consumed = 0;
      if (net::ParseFrame(wire, &payload, &consumed) ==
          net::FrameParse::kFrame) {
        std::string frame(payload);
        wire.erase(0, consumed);
        return frame;
      }
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) return "";
      wire.append(chunk, static_cast<size_t>(n));
    }
  };
  const std::string expected =
      "OK bytes=" + std::to_string(snap.size()) + "\n" + snap + "\n";
  const std::string reply = next_frame();
  ASSERT_EQ(reply.size(), expected.size());
  const auto diff =
      std::mismatch(reply.begin(), reply.end(), expected.begin()).first;
  EXPECT_TRUE(diff == reply.end())
      << "first differing byte at " << (diff - reply.begin());
  EXPECT_EQ(next_frame(), "OK big\n");
  ::close(fd);
}

TEST_F(NetServerTest, QuitOverTcpClosesOnlyThatConnection) {
  const Dataset ds = TestData(60, 43);
  auto manager = NewManager();
  ASSERT_TRUE(manager->CreateSession("s", SpecFor(ds)).ok());
  net::RequestDispatcher dispatcher(manager.get(), root_);
  auto server = net::TcpServer::Start(&dispatcher, {});
  ASSERT_TRUE(server.ok());

  auto a = net::NetClient::Connect("127.0.0.1", (*server)->port());
  auto b = net::NetClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto quit_reply = a->Call("QUIT");
  ASSERT_TRUE(quit_reply.ok());
  EXPECT_EQ(*quit_reply, "OK\n");  // SnapshotAll succeeded
  // The server closed A after the reply...
  EXPECT_FALSE(a->Recv().ok());
  // ...but B (and the server) are still alive.
  auto list = b->Call("LIST");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, "OK s\n");
}

}  // namespace
}  // namespace fdm
