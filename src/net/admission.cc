#include "net/admission.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace fdm::net {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Counter& RateShedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_net_shed_rate_total",
      "Requests shed by per-session token-bucket rate limits");
  return c;
}

obs::Counter& ColdShedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "fdm_net_shed_cold_total",
      "Cache-missing SOLVEs shed by the cold-solve capacity cap");
  return c;
}

obs::Gauge& ColdInFlightGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "fdm_net_cold_solves_in_flight",
      "Cache-missing SOLVEs currently queued or executing");
  return g;
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

bool AdmissionController::AdmitSessionRequest(const std::string& session) {
  if (options_.session_rate <= 0.0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  // Read under the lock, so buckets see time in admission order and a
  // swept (full) bucket stays full for every later request.
  const double now = NowSeconds();
  auto it = buckets_.find(session);
  if (it == buckets_.end()) {
    if (buckets_.size() >= sweep_mark_) {
      std::erase_if(buckets_, [now](const auto& entry) {
        return entry.second.FullAt(now);
      });
      sweep_mark_ = std::max(kMinSweepMark, 2 * buckets_.size());
    }
    const double burst = options_.session_burst > 0.0
                             ? options_.session_burst
                             : options_.session_rate;
    it = buckets_
             .emplace(session,
                      TokenBucket(options_.session_rate, burst, now))
             .first;
  }
  if (it->second.TryAcquire(now)) return true;
  ++rate_shed_total_;
  RateShedCounter().Inc();
  return false;
}

bool AdmissionController::TryEnterColdSolve() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.cold_solve_cap > 0 &&
      cold_in_flight_ >= options_.cold_solve_cap) {
    ++cold_shed_total_;
    ColdShedCounter().Inc();
    return false;
  }
  ++cold_in_flight_;
  ColdInFlightGauge().Set(static_cast<double>(cold_in_flight_));
  return true;
}

void AdmissionController::LeaveColdSolve() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cold_in_flight_ > 0) --cold_in_flight_;
  ColdInFlightGauge().Set(static_cast<double>(cold_in_flight_));
}

uint64_t AdmissionController::rate_shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_shed_total_;
}

uint64_t AdmissionController::cold_shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cold_shed_total_;
}

size_t AdmissionController::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_.size();
}

}  // namespace fdm::net
