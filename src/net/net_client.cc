#include "net/net_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "net/frame.h"

namespace fdm::net {

bool ParseTcpAddress(const std::string& address, std::string* host,
                     int* port) {
  constexpr std::string_view kScheme = "tcp://";
  if (address.compare(0, kScheme.size(), kScheme) != 0) return false;
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon < kScheme.size() ||
      colon + 1 >= address.size()) {
    return false;
  }
  int parsed = 0;
  for (size_t i = colon + 1; i < address.size(); ++i) {
    const char c = address[i];
    if (c < '0' || c > '9' || parsed > 65535) return false;
    parsed = parsed * 10 + (c - '0');
  }
  if (parsed < 1 || parsed > 65535) return false;
  *host = address.substr(kScheme.size(), colon - kScheme.size());
  *port = parsed;
  return !host->empty();
}

Result<NetClient> NetClient::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return NetClient(fd);
}

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), in_(std::move(other.in_)) {
  other.in_.clear();
}

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    in_ = std::move(other.in_);
    other.in_.clear();
  }
  return *this;
}

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
}

Status NetClient::Send(std::string_view payload) {
  if (fd_ < 0) return Status::IoError("not connected");
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(payload, &frame);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection is an error return,
    // not a SIGPIPE that ends the process.
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      const std::string err =
          n < 0 ? std::strerror(errno) : "connection closed";
      Close();
      return Status::IoError("send: " + err);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> NetClient::Recv() {
  if (fd_ < 0) return Status::IoError("not connected");
  while (true) {
    std::string_view payload;
    size_t consumed = 0;
    const FrameParse parsed = ParseFrame(in_, &payload, &consumed);
    if (parsed == FrameParse::kFrame) {
      if (consumed == in_.size()) {
        // The frame is all that was read (a reply to a lone request): hand
        // the buffer over, header erased in place, instead of a copy.
        in_.erase(0, kFrameHeaderBytes);
        return std::exchange(in_, std::string());
      }
      std::string reply(payload);
      in_.erase(0, consumed);
      ReleaseIfDrained(in_);  // don't pin the largest reply ever read
      return reply;
    }
    if (parsed == FrameParse::kError) {
      Close();
      return Status::IoError("oversized reply frame");
    }
    // Once the header has passed the size check, a large reply costs one
    // allocation, not a doubling per read. A server must not do this: a
    // bare header announcing 64 MiB would pin that much of it.
    in_.reserve(consumed);
    char chunk[64 << 10];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      const std::string err =
          n < 0 ? std::strerror(errno) : "connection closed mid-reply";
      Close();
      return Status::IoError("recv: " + err);
    }
    in_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::string> NetClient::Call(std::string_view request) {
  if (Status s = Send(request); !s.ok()) return s;
  return Recv();
}

Result<std::string> ReconnectingClient::Call(std::string_view request) {
  for (int attempt = 0;; ++attempt) {
    if (!client_.connected()) {
      auto connected = NetClient::Connect(host_, port_);
      if (!connected.ok()) return connected.status();
      client_ = std::move(connected.value());
    }
    auto reply = client_.Call(request);
    // A transport error closed the client: retry once on a fresh
    // connection (a primary restart between calls looks like this).
    if (reply.ok() || attempt == 1) return reply;
  }
}

}  // namespace fdm::net
