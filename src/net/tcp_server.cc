#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/dispatch.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "util/binary_io.h"

namespace fdm::net {
namespace {

struct NetCounters {
  obs::Counter& connections_total;
  obs::Gauge& connections_open;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& protocol_errors;
  obs::Gauge& buffered_bytes;
};

NetCounters& Counters() {
  auto& reg = obs::MetricsRegistry::Global();
  static NetCounters c{
      reg.GetCounter("fdm_net_connections_total", "TCP connections accepted"),
      reg.GetGauge("fdm_net_connections_open", "TCP connections currently open"),
      reg.GetCounter("fdm_net_bytes_in_total", "Bytes read from TCP clients"),
      reg.GetCounter("fdm_net_bytes_out_total", "Bytes written to TCP clients"),
      reg.GetCounter("fdm_net_protocol_errors_total",
                     "Connections closed on malformed frames"),
      reg.GetGauge("fdm_net_buffered_bytes",
                   "Capacity of connection buffers over the 64 KiB "
                   "retention bound, not yet drained"),
  };
  return c;
}

/// Bytes one read takes, and the unread input a connection that cannot run
/// its next request may hold before it stops reading.
constexpr size_t kReadBytes = 64u << 10;

/// Per-connection state. Owned by exactly one event loop; only that
/// loop's thread touches it, except that a solve worker holds a
/// shared_ptr while an offloaded SOLVE is in flight (it never mutates —
/// completions are applied by the owning loop).
struct Conn {
  int fd = -1;
  size_t loop = 0;
  // Raw input, walked by offset: [0, pos) is consumed, and while a frame
  // is in progress [pos, frame_end) holds its requests not yet run (pos ==
  // frame_end: the next frame header starts at pos). Drive compacts the
  // consumed prefix at most once per pass, so a frame of N requests costs
  // O(frame bytes), not O(N × frame bytes).
  std::string in;
  size_t pos = 0;
  size_t frame_end = 0;
  // Reply bytes, walked by offset: [0, out_pos) is already written.
  // FlushConn drops the written prefix once `out` drains or the prefix is
  // at least half the buffer, so a reply leaving in many partial writes
  // costs O(reply bytes), not O(reply bytes² / write size).
  std::string out;
  size_t out_pos = 0;
  // A fetch reply's body, still in its file: sent once `out` drains, then
  // the reply's closing '\n' is appended to `out`. The frame header
  // already counts both. Held until sent or the connection closes.
  std::optional<FileRange> range;
  size_t buffered = 0;     // this conn's share of fdm_net_buffered_bytes
  bool busy = false;       // offloaded cold SOLVE in flight
  bool want_in = true;     // EPOLLIN currently armed
  bool want_out = false;   // EPOLLOUT currently armed
  bool closing = false;    // QUIT: flush `out`, then close
  bool closed = false;     // fd gone; late completions are dropped
};

/// Whether the connection may run its next request now. Per-connection
/// replies are FIFO, so an offloaded SOLVE or a range still being sent
/// holds back every request behind it; after QUIT nothing more runs.
bool CanRun(const Conn& conn) {
  return !conn.busy && !conn.range && !conn.closing;
}

/// Reads are paced to requests: a connection that cannot run its next
/// request keeps reading only until it holds `kReadBytes` unread, so a
/// client pipelining behind a cold SOLVE or a large fetch pins a bounded
/// input buffer and the rest waits in its socket.
bool MayRead(const Conn& conn) {
  return !conn.closed &&
         (CanRun(conn) || conn.in.size() - conn.pos < kReadBytes);
}

/// Drops the consumed prefix of `conn.in` once it is at least as long as
/// what is left, so every byte is moved O(1) times however many passes a
/// frame takes (an offloaded cold SOLVE ends a pass mid-frame).
void CompactInput(Conn& conn) {
  if (conn.pos == 0 || conn.pos < conn.in.size() - conn.pos) return;
  conn.in.erase(0, conn.pos);
  conn.frame_end -= conn.pos;
  conn.pos = 0;
}

/// Releases the connection's drained oversized buffers and moves the
/// `fdm_net_buffered_bytes` gauge by however much the capacity of its
/// over-bound buffers changed — so under the bound (every cached SOLVE)
/// this costs two capacity compares and no atomic.
void SettleBuffers(Conn& conn) {
  const size_t held = ReleaseIfDrained(conn.in) + ReleaseIfDrained(conn.out);
  if (held == conn.buffered) return;
  Counters().buffered_bytes.Add(static_cast<double>(held) -
                                static_cast<double>(conn.buffered));
  conn.buffered = held;
}

/// A SOLVE the event loop's `Execute` deferred. Only a well-formed SOLVE
/// (a session name, nothing after it) is, so the name is all the worker's
/// `Execute` needs to compute, reload or bootstrap off the loop.
struct SolveTask {
  std::shared_ptr<Conn> conn;
  std::string session;
};

struct EventLoop {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::map<int, std::shared_ptr<Conn>> conns;  // loop-thread only

  std::mutex mu;  // guards the two inboxes below
  std::vector<int> incoming;
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> completions;
};

void Wake(EventLoop& loop) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop.event_fd, &one, sizeof(one));
}

/// Arms the epoll events the connection can act on: EPOLLIN while it may
/// read, EPOLLOUT while reply bytes (text or a range) wait on a full
/// socket. Every state change that moves either ends in a flush, which
/// calls this, so it is the one place the interest set changes.
void UpdateInterest(EventLoop& loop, Conn& conn) {
  const bool want_in = MayRead(conn);
  const bool want_out =
      conn.out_pos < conn.out.size() || conn.range.has_value();
  if (want_in == conn.want_in && want_out == conn.want_out) return;
  epoll_event ev{};
  ev.events = (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.want_in = want_in;
  conn.want_out = want_out;
}

}  // namespace

struct TcpServer::Impl {
  RequestDispatcher* dispatcher = nullptr;
  TcpServerOptions options;
  AdmissionController admission;
  int listen_fd = -1;
  int bound_port = 0;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::atomic<size_t> next_loop{0};
  std::atomic<bool> stopping{false};
  bool stopped = false;  // Stop() already joined everything

  std::mutex solve_mu;
  std::condition_variable solve_cv;
  std::deque<SolveTask> solve_queue;
  std::vector<std::thread> solve_threads;
  bool solve_stop = false;

  explicit Impl(RequestDispatcher* d, TcpServerOptions opts)
      : dispatcher(d),
        options(std::move(opts)),
        admission(options.admission) {}

  void AcceptReady();
  void AdoptConn(size_t loop_index, int fd);
  void ReadConn(EventLoop& loop, const std::shared_ptr<Conn>& conn);
  void Drive(EventLoop& loop, const std::shared_ptr<Conn>& conn);
  void RunRequests(EventLoop& loop, const std::shared_ptr<Conn>& conn);
  bool FlushConn(EventLoop& loop, const std::shared_ptr<Conn>& conn);
  void CloseConn(EventLoop& loop, const std::shared_ptr<Conn>& conn);
  void HandleInbox(size_t loop_index);
  void LoopRun(size_t index);
  void SolveWorker();
  void PostCompletion(const std::shared_ptr<Conn>& conn, std::string reply);
};

void TcpServer::Impl::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept error: wait for epoll
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const size_t target =
        next_loop.fetch_add(1, std::memory_order_relaxed) % loops.size();
    if (target == 0) {
      AdoptConn(0, fd);  // the accepting loop
    } else {
      EventLoop& loop = *loops[target];
      {
        std::lock_guard<std::mutex> lock(loop.mu);
        loop.incoming.push_back(fd);
      }
      Wake(loop);
    }
  }
}

void TcpServer::Impl::AdoptConn(size_t loop_index, int fd) {
  EventLoop& loop = *loops[loop_index];
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->loop = loop_index;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  loop.conns.emplace(fd, std::move(conn));
  Counters().connections_total.Inc();
  Counters().connections_open.Add(1.0);
}

void TcpServer::Impl::ReadConn(EventLoop& loop,
                               const std::shared_ptr<Conn>& conn) {
  char buf[kReadBytes];
  while (MayRead(*conn)) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      Counters().bytes_in.Add(static_cast<uint64_t>(n));
      Drive(loop, conn);  // run what arrived before reading more
      if (static_cast<size_t>(n) < sizeof(buf)) return;  // socket drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // 0 = peer closed; <0 = hard error. Either way the conversation is
    // over — replies in flight have nowhere to go.
    CloseConn(loop, conn);
    return;
  }
}

void TcpServer::Impl::Drive(EventLoop& loop,
                            const std::shared_ptr<Conn>& conn) {
  do {
    RunRequests(loop, conn);
    CompactInput(*conn);
  } while (FlushConn(loop, conn));  // a sent range frees the requests behind
}

void TcpServer::Impl::RunRequests(EventLoop& loop,
                                  const std::shared_ptr<Conn>& conn) {
  while (CanRun(*conn) && !conn->closed) {
    if (conn->pos == conn->frame_end) {
      std::string_view payload;
      size_t consumed = 0;
      const FrameParse parsed = ParseFrame(
          std::string_view(conn->in).substr(conn->pos), &payload, &consumed);
      if (parsed == FrameParse::kNeedMore) break;
      if (parsed == FrameParse::kError) {
        Counters().protocol_errors.Inc();
        CloseConn(loop, conn);
        return;
      }
      conn->frame_end = conn->pos + consumed;
      conn->pos += kFrameHeaderBytes;
      continue;  // empty frame: loop back and parse the next one
    }
    // Pop the request's command line off the frame. The line and
    // `payload_lines` view the frame in `conn->in`, which nothing appends
    // to until this pass ends; the request resumes parsing where it stops.
    const std::string_view frame = std::string_view(conn->in).substr(
        conn->pos, conn->frame_end - conn->pos);
    const size_t nl = frame.find('\n');
    const std::string_view line = frame.substr(0, nl);
    StringLineSource payload_lines(nl == std::string_view::npos
                                       ? std::string_view()
                                       : frame.substr(nl + 1));
    const auto resume = [&] {
      conn->pos = conn->frame_end - payload_lines.rest().size();
    };

    const RequestInfo request = RequestDispatcher::Classify(line);
    if (request.verb.empty()) {  // blank line: no response frame
      resume();
      continue;
    }
    if (!request.session.empty() &&
        !admission.AdmitSessionRequest(request.session)) {
      // Shed, but stay in framing: the request's announced payload lines
      // are part of this frame and must be consumed with it.
      payload_lines.Skip(request.payload_lines);
      AppendFrame("ERR shed session '" + std::string(request.session) +
                      "' over rate limit\n",
                  &conn->out);
      resume();
      continue;
    }
    // The reply is framed in place in `conn->out`. A fetch leaves its
    // range in the file: the frame counts it and its closing newline, and
    // FlushConn sends it from the file once the text ahead of it is out.
    const size_t frame_at = BeginFrame(&conn->out);
    const RequestOutcome outcome = dispatcher->Execute(
        request, payload_lines, &conn->out, &conn->range,
        /*defer_cold_solve=*/true);
    if (conn->out.size() == frame_at + kFrameHeaderBytes) {
      conn->out.resize(frame_at);  // no reply, no frame
    } else {
      EndFrame(frame_at, &conn->out,
               conn->range ? conn->range->length + 1 : 0);
    }
    resume();
    if (outcome == RequestOutcome::kDeferredSolve) {
      if (!admission.TryEnterColdSolve()) {
        AppendFrame("ERR shed cold solve capacity\n", &conn->out);
        continue;
      }
      // Admitted: run it on the solve pool, the one request whose text is
      // copied. SOLVE announces no payload lines, so the whole remainder of
      // the frame is later requests — they wait until the completion lands
      // (FIFO per connection).
      conn->busy = true;
      {
        std::lock_guard<std::mutex> lock(solve_mu);
        solve_queue.push_back(SolveTask{conn, std::string(request.session)});
      }
      solve_cv.notify_one();
      break;
    }
    if (outcome == RequestOutcome::kQuit) {
      conn->closing = true;  // flush the reply, then close
      break;
    }
  }
}

bool TcpServer::Impl::FlushConn(EventLoop& loop,
                                const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return false;
  bool range_sent = false;
  while (true) {
    ssize_t n = 0;
    if (conn->out_pos < conn->out.size()) {
      n = ::write(conn->fd, conn->out.data() + conn->out_pos,
                  conn->out.size() - conn->out_pos);
      if (n > 0) {
        Counters().bytes_out.Add(static_cast<uint64_t>(n));
        conn->out_pos += static_cast<size_t>(n);
        if (conn->out_pos == conn->out.size()) {
          conn->out.clear();
          conn->out_pos = 0;
        } else if (conn->out_pos >= conn->out.size() - conn->out_pos) {
          conn->out.erase(0, conn->out_pos);
          conn->out_pos = 0;
        }
        continue;
      }
    } else if (!conn->range) {
      break;  // everything is sent
    } else if (conn->range->length == 0) {
      conn->range.reset();  // the file is closed here
      conn->out.push_back('\n');
      range_sent = true;
      continue;
    } else {
      // The kernel copies from the page cache to the socket; the bytes
      // never pass through this process.
      FileRange& range = *conn->range;
      off_t offset = static_cast<off_t>(range.offset);
      n = ::sendfile(conn->fd, range.file.fd(), &offset, range.length);
      if (n > 0) {
        Counters().bytes_out.Add(static_cast<uint64_t>(n));
        range.offset += static_cast<uint64_t>(n);
        range.length -= static_cast<uint64_t>(n);
        continue;
      }
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // A socket error, or (n == 0 from sendfile) a file that ended before
    // the length its frame announced: a short frame would leave the
    // client misreading the stream, so the connection closes instead.
    CloseConn(loop, conn);
    return false;
  }
  UpdateInterest(loop, *conn);
  SettleBuffers(*conn);
  if (conn->closing && conn->out.empty()) CloseConn(loop, conn);
  return range_sent;
}

void TcpServer::Impl::CloseConn(EventLoop& loop,
                                const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->closed = true;
  conn->range.reset();  // an unsent range's file is closed now
  if (conn->buffered != 0) {
    Counters().buffered_bytes.Add(-static_cast<double>(conn->buffered));
    conn->buffered = 0;
  }
  // Last: `conn` may be a reference into `loop.conns` itself.
  loop.conns.erase(conn->fd);
  Counters().connections_open.Add(-1.0);
}

void TcpServer::Impl::HandleInbox(size_t loop_index) {
  EventLoop& loop = *loops[loop_index];
  std::vector<int> incoming;
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> completions;
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    incoming.swap(loop.incoming);
    completions.swap(loop.completions);
  }
  for (const int fd : incoming) AdoptConn(loop_index, fd);
  for (auto& [conn, reply] : completions) {
    if (conn->closed) continue;
    conn->busy = false;
    if (!reply.empty()) AppendFrame(reply, &conn->out);
    Drive(loop, conn);  // later pipelined requests were waiting on this
  }
}

void TcpServer::Impl::LoopRun(size_t index) {
  // A peer that resets mid-reply fails the next write or sendfile with
  // EPIPE, which also raises SIGPIPE; its default action would end the
  // process. sendfile takes no MSG_NOSIGNAL, so the loop threads, the only
  // ones writing sockets, block it and read EPIPE as a closed connection.
  sigset_t pipe_signal;
  sigemptyset(&pipe_signal);
  sigaddset(&pipe_signal, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
  EventLoop& loop = *loops[index];
  epoll_event events[64];
  while (true) {
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.event_fd) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(loop.event_fd, &drained, sizeof(drained));
        HandleInbox(index);
        continue;
      }
      if (fd == listen_fd) {
        AcceptReady();
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // closed earlier this batch
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) ReadConn(loop, conn);
      if ((events[i].events & EPOLLOUT) && FlushConn(loop, conn)) {
        Drive(loop, conn);  // the range is sent: run the requests behind it
      }
    }
    if (stopping.load(std::memory_order_acquire)) break;
  }
  // Shutdown: close every connection this loop owns, plus any accepted
  // sockets still waiting in the inbox.
  std::vector<int> incoming;
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    incoming.swap(loop.incoming);
    loop.completions.clear();
  }
  for (const int fd : incoming) ::close(fd);
  while (!loop.conns.empty()) {
    CloseConn(loop, loop.conns.begin()->second);
  }
}

void TcpServer::Impl::SolveWorker() {
  while (true) {
    SolveTask task;
    {
      std::unique_lock<std::mutex> lock(solve_mu);
      solve_cv.wait(lock,
                    [this] { return solve_stop || !solve_queue.empty(); });
      if (solve_stop) return;  // queued work is moot: connections are gone
      task = std::move(solve_queue.front());
      solve_queue.pop_front();
    }
    RequestInfo solve;
    solve.verb = "SOLVE";
    solve.session = task.session;
    std::string reply;
    StringLineSource no_payload{std::string_view()};
    dispatcher->Execute(solve, no_payload, &reply);
    admission.LeaveColdSolve();
    PostCompletion(task.conn, std::move(reply));
  }
}

void TcpServer::Impl::PostCompletion(const std::shared_ptr<Conn>& conn,
                                     std::string reply) {
  EventLoop& loop = *loops[conn->loop];
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    loop.completions.emplace_back(conn, std::move(reply));
  }
  Wake(loop);
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    RequestDispatcher* dispatcher, TcpServerOptions options) {
  if (options.event_threads < 1) options.event_threads = 1;
  if (options.solve_workers < 1) options.solve_workers = 1;

  auto impl = std::make_unique<Impl>(dispatcher, std::move(options));
  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                             0);
  if (impl->listen_fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(impl->options.port));
  if (::inet_pton(AF_INET, impl->options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl->listen_fd);
    return Status::InvalidArgument("bad listen address: " +
                                   impl->options.host);
  }
  if (::bind(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(impl->listen_fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(impl->listen_fd);
    return Status::IoError("bind/listen " + impl->options.host + ":" +
                           std::to_string(impl->options.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  impl->bound_port = ntohs(bound.sin_port);

  for (int i = 0; i < impl->options.event_threads; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->event_fd >= 0) ::close(loop->event_fd);
      ::close(impl->listen_fd);
      for (auto& l : impl->loops) {
        ::close(l->epoll_fd);
        ::close(l->event_fd);
      }
      return Status::IoError("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->event_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    impl->loops.push_back(std::move(loop));
  }
  // The first loop owns the listener.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl->listen_fd;
  ::epoll_ctl(impl->loops[0]->epoll_fd, EPOLL_CTL_ADD, impl->listen_fd, &ev);

  Impl* raw = impl.get();
  for (size_t i = 0; i < impl->loops.size(); ++i) {
    impl->loops[i]->thread = std::thread([raw, i] { raw->LoopRun(i); });
  }
  for (int i = 0; i < impl->options.solve_workers; ++i) {
    impl->solve_threads.emplace_back([raw] { raw->SolveWorker(); });
  }
  return std::unique_ptr<TcpServer>(new TcpServer(std::move(impl)));
}

TcpServer::TcpServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

TcpServer::~TcpServer() { Stop(); }

int TcpServer::port() const { return impl_->bound_port; }

const AdmissionController& TcpServer::admission() const {
  return impl_->admission;
}

AdmissionController& TcpServer::admission() { return impl_->admission; }

void TcpServer::Stop() {
  if (impl_->stopped) return;
  impl_->stopped = true;
  impl_->stopping.store(true, std::memory_order_release);
  for (auto& loop : impl_->loops) Wake(*loop);
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->solve_mu);
    impl_->solve_stop = true;
  }
  impl_->solve_cv.notify_all();
  for (auto& worker : impl_->solve_threads) {
    if (worker.joinable()) worker.join();
  }
  ::close(impl_->listen_fd);
  for (auto& loop : impl_->loops) {
    ::close(loop->epoll_fd);
    ::close(loop->event_fd);
  }
}

}  // namespace fdm::net
