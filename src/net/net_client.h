#ifndef FDM_NET_NET_CLIENT_H_
#define FDM_NET_NET_CLIENT_H_

#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace fdm::net {

/// Parses `tcp://host:port` (the serving address form `--follow` and the
/// socket replication source accept). Returns false when `address` is not
/// of that form — callers fall back to treating it as a filesystem path.
bool ParseTcpAddress(const std::string& address, std::string* host,
                     int* port);

/// Blocking client for the framed TCP protocol (net/frame.h): each `Send`
/// writes one length-delimited frame, each `Recv` reads exactly one.
/// `Call` pairs them — correct whenever the sent text is one request
/// (the server replies one frame per request; a blank line would produce
/// none and desynchronize a Call, so don't send one).
///
/// Not thread-safe; one connection per thread. Any I/O error poisons the
/// connection (`connected()` turns false) — reconnect by `Connect`ing
/// again.
class NetClient {
 public:
  static Result<NetClient> Connect(const std::string& host, int port);

  NetClient() = default;
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  ~NetClient();

  Status Send(std::string_view payload);
  Result<std::string> Recv();
  Result<std::string> Call(std::string_view request);

  bool connected() const { return fd_ >= 0; }
  void Close();

 private:
  explicit NetClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  // Bytes read past the frame a Recv returned. Pipelined replies can land
  // in one TCP segment, so the surplus must survive until the next Recv.
  // Capacity past `kRetainedBufferBytes` is released once drained.
  std::string in_;
};

/// A `NetClient` kept to one address: dialed on first use, and redialed
/// once per call after a transport error, so a peer that restarted
/// between calls costs no failed call. `ERR` replies are replies, not
/// transport errors: they keep the connection. Not thread-safe.
class ReconnectingClient {
 public:
  ReconnectingClient(std::string host, int port)
      : host_(std::move(host)), port_(port) {}

  /// `NetClient::Call` on the kept connection.
  Result<std::string> Call(std::string_view request);
  /// Drops the connection; the next call dials again.
  void Close() { client_.Close(); }

 private:
  std::string host_;
  int port_ = 0;
  NetClient client_;
};

}  // namespace fdm::net

#endif  // FDM_NET_NET_CLIENT_H_
