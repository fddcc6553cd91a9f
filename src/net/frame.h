#ifndef FDM_NET_FRAME_H_
#define FDM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fdm::net {

/// Wire framing of the TCP transport: every request and every response
/// travels as one length-delimited frame — a 4-byte big-endian payload
/// length followed by exactly that many payload bytes. The payload is the
/// same text the stdin transport speaks (a command line, plus any payload
/// lines the command announces, '\n'-separated), so a frame is just a
/// length-delimited chunk of the existing line protocol and the two
/// transports produce byte-identical replies by construction. Responses
/// may carry binary bytes (the replication fetch verbs); the length prefix
/// is what makes that safe to pipeline.
///
/// A frame must contain whole requests: a request's announced payload
/// lines (OBSERVEB) cannot spill into the next frame — the dispatcher
/// answers `ERR ... stream ended mid-batch` instead, exactly as the stdin
/// transport does when stdin ends mid-batch. One frame may carry several
/// complete requests; each produces its own response frame, in order.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Upper bound on a single frame's payload. Large enough for a bulk
/// OBSERVEB batch or a shipped snapshot, small enough that one bad client
/// cannot balloon a server buffer; oversize headers are a protocol error
/// and close the connection.
inline constexpr size_t kMaxFramePayloadBytes = 64u << 20;

/// Capacity a drained connection buffer may keep. A buffer that grew past
/// this for one large frame (a bulk OBSERVEB batch, a long pipelined run of
/// requests, a large METRICS reply) is released once empty, so an idle
/// connection never pins its largest message; below it, capacity is reused
/// and steady small traffic allocates nothing. The bound is paid once per
/// connection, so it is sized to the largest steady-state frame (a 256-line
/// OBSERVEB is ~21 KB), not to bulk transfers. A fetch reply's bytes never
/// enter a server buffer (the TCP server sends them from the file), but a
/// follower opens one client connection per replicated session and its
/// receive buffer keeps the same bound.
inline constexpr size_t kRetainedBufferBytes = 64u << 10;

/// Frees `buf` when it is empty but holds more than `kRetainedBufferBytes`
/// of capacity. Returns the capacity of a buffer still over the bound (one
/// not drained yet), else 0; the TCP server sums these into the
/// `fdm_net_buffered_bytes` gauge.
size_t ReleaseIfDrained(std::string& buf);

/// Appends the 4-byte header + payload to `*out`.
void AppendFrame(std::string_view payload, std::string* out);

/// Starts a frame in place at the end of `*out` (a header placeholder) and
/// returns its offset. The caller appends the payload straight to `*out`
/// and `EndFrame` writes its length, so a reply is built in the connection
/// buffer instead of being copied into it.
size_t BeginFrame(std::string* out);

/// Writes the header of the frame `BeginFrame` started at `at`: the
/// length of everything appended since, plus `unbuffered` payload bytes the
/// caller sends after them from elsewhere (a fetch reply's range, sent from
/// its file). The total must not exceed `kMaxFramePayloadBytes`.
void EndFrame(size_t at, std::string* out, size_t unbuffered = 0);

enum class FrameParse {
  kNeedMore,  // fewer bytes than one header + payload; read more
  kFrame,     // *payload and *consumed are set
  kError,     // malformed/oversize header; the connection must close
};

/// Parses the frame at the head of `buf` without copying. On `kFrame`,
/// `*payload` views into `buf` and `*consumed` is header + payload size.
/// `max_payload` guards the header before any allocation happens. On
/// `kNeedMore` with the header read and within `max_payload`, `*consumed`
/// is the size the whole frame will have (else 0), so a client can hold
/// it in one allocation.
FrameParse ParseFrame(std::string_view buf, std::string_view* payload,
                      size_t* consumed,
                      size_t max_payload = kMaxFramePayloadBytes);

}  // namespace fdm::net

#endif  // FDM_NET_FRAME_H_
