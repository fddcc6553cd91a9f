#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/dataset.h"
#include "data/simulated.h"
#include "net/frame.h"

namespace fdm::bench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ThreadPlan PlanThreads() {
  ThreadPlan plan;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    plan.nproc = std::max(1, CPU_COUNT(&set));
  } else {
    plan.nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  }
  // One generator thread and one solve worker; the event loops get what
  // is left, at most two, at least one.
  plan.net_threads = std::clamp(plan.nproc - 2, 1, 2);
  return plan;
}

std::vector<TaskEntry>& TaskTable() {
  static std::vector<TaskEntry> table;
  return table;
}

bool RegisterTask(const char* name, WorkloadFn fn) {
  TaskTable().push_back(TaskEntry{name, fn});
  return true;
}

const TaskEntry* FindTask(const std::string& name) {
  for (const TaskEntry& task : TaskTable()) {
    if (task.name == name) return &task;
  }
  return nullptr;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

// ---------------------------------------------------------------------------

namespace {

/// Rounds to 6 significant digits through text, so the value the server
/// parses from the generator's line is exactly the value kept here.
double RoundThroughText(double v) {
  char buf[64];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6);
  double out = 0.0;
  std::from_chars(buf, res.ptr, out);
  return out;
}

void AppendDouble(double v, std::string* out) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

PointSet MakeAdultPoints(uint64_t seed, size_t n) {
  const Dataset ds = SimulatedAdult(AdultGrouping::kSex, seed, n);
  PointSet points;
  points.dim = ds.dim();
  points.coords.reserve(n * ds.dim());
  points.groups.reserve(n);
  for (size_t i = 0; i < ds.size(); ++i) {
    for (const double c : ds.Point(i)) {
      points.coords.push_back(RoundThroughText(c));
    }
    points.groups.push_back(ds.GroupOf(i));
  }
  return points;
}

std::string Sfdm2Spec(const PointSet& points, const std::string& quotas,
                      double eps, uint64_t seed) {
  const int32_t groups =
      *std::max_element(points.groups.begin(), points.groups.end()) + 1;
  Dataset sample("sample", points.dim, groups, MetricKind::kEuclidean);
  const size_t n = std::min<size_t>(points.size(), 5000);
  for (size_t i = 0; i < n; ++i) sample.Add(points.Row(i), points.groups[i]);
  const DistanceBounds b = EstimateDistanceBounds(sample, 1000, seed);
  char bounds[128];
  std::snprintf(bounds, sizeof(bounds), " dmin=%.6g dmax=%.6g", b.min, b.max);
  return "algo=sfdm2 dim=" + std::to_string(points.dim) +
         " metric=euclidean quotas=" + quotas +
         " eps=" + std::to_string(eps).substr(0, 4) + bounds;
}

void AppendPointLine(int64_t id, int32_t group, std::span<const double> c,
                     std::string* out) {
  out->append(std::to_string(id));
  out->push_back(' ');
  out->append(std::to_string(group));
  for (const double v : c) {
    out->push_back(' ');
    AppendDouble(v, out);
  }
  out->push_back('\n');
}

std::string SolveReplyText(const Result<Solution>& solution) {
  if (!solution.ok()) return "ERR " + solution.status().ToString();
  // Same formatting as the dispatcher: `<<` for the diversity.
  std::ostringstream text;
  text << "OK div=" << solution->diversity << " ids=";
  const auto ids = solution->Ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) text << ',';
    text << ids[i];
  }
  return text.str();
}

// ---------------------------------------------------------------------------
// ServerProcess
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const ServeOptions& options) {
  std::vector<std::string> args = {binary, "--listen=0"};
  if (!options.follow.empty()) {
    args.push_back("--follow=" + options.follow);
    args.push_back("--poll_ms=0");  // the bench drives catch-up (REPLICA)
  } else {
    args.push_back("--root=" + options.root);
    args.push_back("--snapshot_every=" +
                   std::to_string(options.snapshot_every));
    args.push_back("--max_resident=" + std::to_string(options.max_resident));
  }
  args.push_back("--net_threads=" + std::to_string(options.net_threads));
  args.push_back("--solve_workers=" + std::to_string(options.solve_workers));

  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return Status::IoError("pipe failed");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return Status::IoError("pipe failed");
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdin_fd_ = in_pipe[1];

  // Wait for the READY line (it carries the bound port).
  std::string line;
  const Clock::time_point start = Clock::now();
  bool ready = false;
  while (!ready && SecondsSince(start) < 60.0) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    char buf[512];
    const ssize_t n = read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
    ready = line.find('\n') != std::string::npos;
  }
  close(out_pipe[0]);  // fdm_serve writes stdout only for stdin requests
  const size_t at = line.find("listen=");
  if (!ready || line.rfind("READY", 0) != 0 || at == std::string::npos) {
    return Status::IoError("fdm_serve did not become ready: '" + line + "'");
  }
  server->port_ = std::atoi(line.c_str() + at + 7);
  return server;
}

ServerProcess::~ServerProcess() { Stop(); }

void ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdin_fd_ >= 0) {
    close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

int64_t ServerProcess::CpuNanos() const {
  int64_t total = 0;
  std::error_code ec;
  const std::string task_dir = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& entry :
       std::filesystem::directory_iterator(task_dir, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    long long ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

namespace {

Result<int> ConnectFd(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IoError("connect to port " + std::to_string(port) +
                           " failed: " + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string_view StripNewline(std::string_view s) {
  if (!s.empty() && s.back() == '\n') s.remove_suffix(1);
  return s;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(int port) {
  auto fd = ConnectFd(port);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<Client>(new Client(*fd));
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Status Client::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> Client::RecvFrame() {
  for (;;) {
    std::string_view payload;
    size_t consumed = 0;
    const net::FrameParse parsed = net::ParseFrame(in_, &payload, &consumed);
    if (parsed == net::FrameParse::kError) {
      return Status::IoError("malformed reply frame");
    }
    if (parsed == net::FrameParse::kFrame) {
      std::string reply(StripNewline(payload));
      in_.erase(0, consumed);
      return reply;
    }
    char buf[65536];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return Status::IoError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    in_.append(buf, static_cast<size_t>(n));
  }
}

Result<std::string> Client::Call(std::string_view request) {
  std::string frame;
  net::AppendFrame(request, &frame);
  if (Status s = SendAll(frame); !s.ok()) return s;
  return RecvFrame();
}

Result<std::vector<std::string>> Client::CallMany(
    const std::vector<std::string>& requests) {
  constexpr size_t kChunk = 64;
  std::vector<std::string> replies;
  replies.reserve(requests.size());
  for (size_t begin = 0; begin < requests.size(); begin += kChunk) {
    const size_t end = std::min(requests.size(), begin + kChunk);
    std::string frames;
    for (size_t i = begin; i < end; ++i) net::AppendFrame(requests[i], &frames);
    if (Status s = SendAll(frames); !s.ok()) return s;
    for (size_t i = begin; i < end; ++i) {
      auto reply = RecvFrame();
      if (!reply.ok()) return reply.status();
      replies.push_back(std::move(*reply));
    }
  }
  return replies;
}

Result<std::string> CallOk(Client& client, std::string_view request) {
  auto reply = client.Call(request);
  if (!reply.ok()) return reply.status();
  if (reply->rfind("OK", 0) != 0) {
    return Status::Internal("'" + std::string(request.substr(0, 60)) +
                            "' -> " + reply->substr(0, 200));
  }
  return reply;
}

// ---------------------------------------------------------------------------
// RunLoop
// ---------------------------------------------------------------------------

namespace {

struct ConnState {
  LoopConn conf;
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<std::pair<Op, Clock::time_point>> inflight;
  bool done = false;
};

}  // namespace

Result<LoopStats> RunLoop(std::vector<LoopConn> conns,
                          Clock::time_point deadline,
                          std::vector<std::string>* record) {
  std::vector<ConnState> states(conns.size());
  struct Closer {
    std::vector<ConnState>* s;
    ~Closer() {
      for (ConnState& c : *s) {
        if (c.fd >= 0) close(c.fd);
      }
    }
  } closer{&states};
  for (size_t i = 0; i < conns.size(); ++i) {
    states[i].conf = conns[i];
    auto fd = ConnectFd(conns[i].port);
    if (!fd.ok()) return fd.status();
    states[i].fd = *fd;
    fcntl(*fd, F_SETFL, fcntl(*fd, F_GETFL) | O_NONBLOCK);
  }
  LoopStats stats;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_reply = start;
  std::string text;
  std::vector<pollfd> pfds(states.size());
  char buf[1 << 16];
  for (;;) {
    const Clock::time_point now = Clock::now();
    bool timed_open = false;
    for (const ConnState& c : states) timed_open |= c.conf.timed && !c.done;
    const bool stopping = now >= deadline || !timed_open;
    bool drained = true;
    for (ConnState& c : states) {
      if (stopping) c.done = true;
      while (!c.done &&
             c.inflight.size() < static_cast<size_t>(c.conf.depth)) {
        Op op;
        text.clear();
        const Stream::Poll p = c.conf.stream->Next(&text, &op);
        if (p == Stream::Poll::kDone) c.done = true;
        if (p != Stream::Poll::kRequest) break;
        net::AppendFrame(text, &c.out);
        c.inflight.emplace_back(op, Clock::now());
        if (record != nullptr && c.conf.timed) record->push_back(text);
      }
      drained &= c.inflight.empty() && c.out_off == c.out.size();
    }
    if (stopping && drained) break;

    for (ConnState& c : states) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return Status::IoError(std::string("send failed: ") +
                                 std::strerror(errno));
        }
        c.out_off += static_cast<size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    for (size_t i = 0; i < states.size(); ++i) {
      pfds[i].fd = states[i].fd;
      pfds[i].events = POLLIN;
      if (states[i].out_off < states[i].out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    if (poll(pfds.data(), pfds.size(), 20) < 0 && errno != EINTR) {
      return Status::IoError("poll failed");
    }
    for (size_t i = 0; i < states.size(); ++i) {
      ConnState& c = states[i];
      if ((pfds[i].revents & (POLLERR | POLLHUP)) != 0 &&
          (pfds[i].revents & POLLIN) == 0) {
        return Status::IoError("server closed a connection");
      }
      if ((pfds[i].revents & POLLIN) == 0) continue;
      for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) return Status::IoError("server closed a connection");
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Status::IoError(std::string("recv failed: ") +
                               std::strerror(errno));
      }
      size_t off = 0;
      const Clock::time_point arrived = Clock::now();
      for (;;) {
        std::string_view payload;
        size_t consumed = 0;
        const net::FrameParse parsed = net::ParseFrame(
            std::string_view(c.in).substr(off), &payload, &consumed);
        if (parsed == net::FrameParse::kError) {
          return Status::IoError("malformed reply frame");
        }
        if (parsed == net::FrameParse::kNeedMore) break;
        off += consumed;
        if (c.inflight.empty()) return Status::IoError("unexpected reply");
        const auto [op, sent] = c.inflight.front();
        c.inflight.pop_front();
        const double ms =
            std::chrono::duration<double, std::milli>(arrived - sent).count();
        c.conf.stream->OnReply(op, StripNewline(payload), ms);
        if (c.conf.timed) {
          ++stats.ops;
          last_reply = arrived;
        }
      }
      c.in.erase(0, off);
    }
  }
  stats.elapsed_s = std::chrono::duration<double>(last_reply - start).count();
  return stats;
}

// ---------------------------------------------------------------------------

void Tally::Fail(std::string why) {
  ++failed;
  if (errors.size() < 5) errors.push_back(std::move(why));
}

void Tally::RecordIngest(int points, double ms) {
  ingest_ms.push_back(static_cast<float>(ms));
  ingest_points += points;
}

void Tally::RecordSolve(double ms) {
  solve_ms.push_back(static_cast<float>(ms));
}

WindowSummary Summarize(const Tally& tally, double window_s, int64_t cpu_ns) {
  const auto pct = [](const std::vector<float>& ms, double q) {
    return Percentile(std::vector<double>(ms.begin(), ms.end()), q);
  };
  const double ops =
      static_cast<double>(tally.ingest_ms.size() + tally.solve_ms.size());
  WindowSummary w;
  w.ingest_pts_per_s = static_cast<double>(tally.ingest_points) / window_s;
  w.solve_per_s = static_cast<double>(tally.solve_ms.size()) / window_s;
  w.cpu_us_per_op = ops > 0 ? static_cast<double>(cpu_ns) / 1e3 / ops : 0.0;
  w.ingest_p50_ms = pct(tally.ingest_ms, 0.50);
  w.ingest_p99_ms = pct(tally.ingest_ms, 0.99);
  w.solve_p50_ms = pct(tally.solve_ms, 0.50);
  w.solve_p99_ms = pct(tally.solve_ms, 0.99);
  return w;
}

bool IngestReplyOk(const Op& op, std::string_view reply) {
  const std::string want = "OK kept=" +
                           std::to_string(op.points - op.expect_dup) +
                           " dup=" + std::to_string(op.expect_dup);
  return reply == want;
}

double JsonScalar(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return 0.0;
  const char* p = json.c_str() + at + key.size();
  if (*p == '{' || *p == '"') return 0.0;
  return std::strtod(p, nullptr);
}

double JsonHistogram(const std::string& json, const std::string& name,
                     const std::string& field) {
  const std::string key = "\"" + name + "\":{";
  const size_t at = json.find(key);
  if (at == std::string::npos) return 0.0;
  const size_t end = json.find('}', at);
  const std::string f = "\"" + field + "\":";
  const size_t fat = json.find(f, at);
  if (fat == std::string::npos || fat > end) return 0.0;
  return std::strtod(json.c_str() + fat + f.size(), nullptr);
}

std::string JsonInfo(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":\"";
  const size_t at = json.find(key);
  if (at == std::string::npos) return "";
  const size_t begin = at + key.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

Result<std::string> ScrapeMetrics(Client& client) {
  auto reply = CallOk(client, "METRICS json");
  if (!reply.ok()) return reply.status();
  return reply->substr(3);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  return Status::Ok();
}

}  // namespace fdm::bench
