#ifndef FDM_NET_ADMISSION_H_
#define FDM_NET_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace fdm::net {

/// Overload policy of the TCP front end. The asymmetry that motivates it:
/// a cached SOLVE is answered in ~1µs, a cache-missing one recomputes the
/// full post-processing (~750× slower per BENCH_solve.json), so a single
/// hot key replaying cold SOLVEs can absorb every serving thread while
/// cheap traffic queues behind it. Admission keeps overload survivable by
/// answering `ERR shed ...` immediately instead of queueing unboundedly —
/// a shed reply is a complete, well-framed response, so pipelined clients
/// stay in sync and can retry.
struct AdmissionOptions {
  /// Sustained requests/second each session may issue across all
  /// connections (token bucket; 0 = unlimited). Only requests naming a
  /// session are counted — LIST/METRICS/QUIT are exempt.
  double session_rate = 0.0;
  /// Bucket depth (burst allowance). 0 = same as `session_rate`.
  double session_burst = 0.0;
  /// Cache-missing SOLVEs admitted concurrently (queued + executing)
  /// across the whole server; beyond it they shed. 0 = unlimited.
  size_t cold_solve_cap = 0;
};

/// Classic token bucket over a caller-supplied monotonic clock (seconds):
/// refills continuously at `rate`, holds at most `burst`, and admits a
/// request by spending one token.
class TokenBucket {
 public:
  TokenBucket(double rate, double burst, double now_sec)
      : rate_(rate), burst_(burst), tokens_(burst), last_sec_(now_sec) {}

  bool TryAcquire(double now_sec) {
    tokens_ += (now_sec - last_sec_) * rate_;
    if (tokens_ > burst_) tokens_ = burst_;
    last_sec_ = now_sec;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

  /// True iff the bucket has refilled to `burst` by `now_sec`. A full
  /// bucket admits exactly like a fresh one created at any later time, so
  /// dropping it changes no decision.
  bool FullAt(double now_sec) const {
    return tokens_ + (now_sec - last_sec_) * rate_ >= burst_;
  }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_sec_;
};

/// Server-wide admission state: one token bucket per session name plus the
/// global cold-SOLVE occupancy counter. Thread-safe; every event loop and
/// solve worker shares one controller. Shed decisions are counted into the
/// metrics plane (`fdm_net_shed_*_total`).
///
/// Buckets are keyed by whatever name a request carries, before the name
/// is validated, so the map is swept: when an insert finds it at the sweep
/// mark, every bucket that has refilled to `burst` is dropped (it would
/// admit exactly like the fresh bucket a later request creates) and the
/// mark becomes max(64, 2 × the buckets left). A client cycling random
/// names therefore holds the map at a size set by the request rate, not by
/// how many names it has ever sent, at amortized O(1) per insert.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Spends one token from `session`'s bucket; false = shed (rate).
  /// Always true when rate limiting is off.
  bool AdmitSessionRequest(const std::string& session);

  /// Claims a cold-SOLVE slot; false = shed (capacity). A successful
  /// claim must be paired with `LeaveColdSolve` when the solve finishes.
  bool TryEnterColdSolve();
  void LeaveColdSolve();

  uint64_t rate_shed_total() const;
  uint64_t cold_shed_total() const;

  /// Token buckets currently held.
  size_t buckets() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  static constexpr size_t kMinSweepMark = 64;

  const AdmissionOptions options_;
  mutable std::mutex mu_;  // buckets_ + counters below
  std::map<std::string, TokenBucket> buckets_;
  size_t sweep_mark_ = kMinSweepMark;  // buckets_ size that triggers a sweep
  size_t cold_in_flight_ = 0;
  uint64_t rate_shed_total_ = 0;
  uint64_t cold_shed_total_ = 0;
};

}  // namespace fdm::net

#endif  // FDM_NET_ADMISSION_H_
