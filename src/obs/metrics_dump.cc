#include "obs/metrics_dump.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.h"

namespace fdm::obs {

MetricsDumper::MetricsDumper(std::string path, int period_ms)
    : path_(std::move(path)) {
  dumps_.Start(period_ms, [this] { DumpOnce(); });
}

MetricsDumper::~MetricsDumper() {
  dumps_.Stop();
  DumpOnce();
}

void MetricsDumper::DumpOnce() const {
  const std::string text = MetricsRegistry::Global().RenderPrometheus();
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << text;
    if (!out.flush()) return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
}

Result<std::unique_ptr<MetricsDumper>> MakeMetricsDumper(
    const std::string& spec) {
  if (spec.empty()) return std::unique_ptr<MetricsDumper>();
  std::string path = spec;
  int period_ms = 0;
  const size_t comma = spec.rfind(',');
  if (comma != std::string::npos && comma + 1 < spec.size()) {
    bool digits = true;
    for (size_t i = comma + 1; i < spec.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(spec[i]))) {
        digits = false;
        break;
      }
    }
    if (digits) {
      // A digit suffix is a period. Bound it BEFORE converting: the old
      // `std::stoi` path threw std::out_of_range on a 20-digit period and
      // took the whole process down at startup.
      const std::string digits_text = spec.substr(comma + 1);
      if (digits_text.size() > 9) {
        return Status::InvalidArgument(
            "metrics-dump period out of range: " + digits_text);
      }
      int64_t parsed = 0;
      for (const char c : digits_text) parsed = parsed * 10 + (c - '0');
      if (parsed <= 0) {
        return Status::InvalidArgument(
            "metrics-dump period must be positive: " + digits_text);
      }
      path = spec.substr(0, comma);
      if (path.empty()) {
        return Status::InvalidArgument(
            "metrics-dump spec has an empty path: " + spec);
      }
      period_ms = static_cast<int>(parsed);
    }
  }
  return std::make_unique<MetricsDumper>(path, period_ms);
}

}  // namespace fdm::obs
