#ifndef FDM_OBS_METRICS_DUMP_H_
#define FDM_OBS_METRICS_DUMP_H_

#include <memory>
#include <string>

#include "util/periodic_thread.h"
#include "util/status.h"

namespace fdm::obs {

/// Writes the Prometheus rendering of the global registry to a stable
/// path, atomically (write tmp, rename over) so an external scraper never
/// reads a half-written file. With a period, a background thread
/// refreshes the file; in every mode the destructor writes one final
/// dump, so even a period-less dumper leaves a complete end-of-run
/// snapshot.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, int period_ms);
  ~MetricsDumper();

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

 private:
  void DumpOnce() const;

  const std::string path_;
  PeriodicThread dumps_;
};

/// Parses a `PATH[,PERIOD_MS]` metrics-dump spec (the serving CLI's
/// `--metrics-dump` flag). The period is split on the last comma only
/// when everything after it is digits, so paths containing commas still
/// work un-escaped; a digit run that does not fit a plausible period
/// (more than 9 digits, i.e. over ~11 days) is an error, not a path —
/// `std::stoi`'s uncaught `std::out_of_range` on exactly that input is
/// how this function earned its Status return. An empty spec yields a
/// null dumper (the flag was absent).
Result<std::unique_ptr<MetricsDumper>> MakeMetricsDumper(
    const std::string& spec);

}  // namespace fdm::obs

#endif  // FDM_OBS_METRICS_DUMP_H_
