#ifndef FDM_REPLICA_SOCKET_SOURCE_H_
#define FDM_REPLICA_SOCKET_SOURCE_H_

#include <cstdint>
#include <string>

#include "net/net_client.h"
#include "replica/replication_source.h"

namespace fdm {

/// Socket transport for followers: implements the `ReplicationSource`
/// interface over a primary's TCP front end (net/tcp_server.h). Each call
/// maps to exactly one request/response frame:
///
///   GetManifest()              -> `RMANIFEST <session>`
///   FetchSnapshot(seq)         -> `RFETCHSNAP <session> <seq>`
///   FetchWalSegment(s, 0)      -> `RFETCHWAL <session> <s>`
///   FetchWalSegment(s, off)    -> `RFETCHWAL <session> <s> <off>`
///
/// so a follower tails a primary it cannot share a filesystem with. The
/// primary serves these from its own durable directory, meaning a socket
/// follower sees exactly the durable prefix a shared-filesystem follower
/// would — the replica determinism story is transport-independent. A
/// tailing follower asks for the bytes past its last applied record, so
/// a poll ships only the new records.
///
/// The connection is a `net::ReconnectingClient`: established on first
/// use, re-established once per call after a transport error (a restarting
/// primary looks like one failed poll, which followers already treat as
/// ordinary control flow). `ERR` replies are returned as error Statuses
/// without dropping the connection. Not thread-safe — `ReplicaManager`
/// serializes access per session, matching `DirReplicationSource`.
class SocketReplicationSource final : public ReplicationSource {
 public:
  SocketReplicationSource(std::string host, int port, std::string session);

  Result<ReplicaManifest> GetManifest() override;
  Result<std::string> FetchSnapshot(int64_t seq) override;
  Result<std::string> FetchWalSegment(int64_t first_seq,
                                      uint64_t offset) override;
  /// Drops the connection; the next call reconnects. (Server-side
  /// manifest caches are invalidated by the primary itself — this only
  /// discards transport state.)
  void InvalidateCaches() override;

 private:
  /// Parses a `OK bytes=<n>\n<raw>\n` fetch reply into its raw bytes, in
  /// the reply's own buffer.
  static Result<std::string> ParseBytesReply(std::string reply);

  const std::string session_;
  net::ReconnectingClient client_;
};

}  // namespace fdm

#endif  // FDM_REPLICA_SOCKET_SOURCE_H_
