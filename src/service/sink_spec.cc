#include "service/sink_spec.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "core/adaptive_streaming_dm.h"
#include "core/fairness.h"
#include "core/guess_ladder.h"
#include "core/sink_snapshot.h"
#include "core/sfdm1.h"
#include "core/sfdm2.h"
#include "core/sharded_stream.h"
#include "core/sliding_window.h"
#include "core/streaming_dm.h"
#include "util/stringutil.h"

namespace fdm {

namespace {

/// The most candidates one spec may allocate at Create. An empty
/// `StreamingCandidate` is 72 B, so this bounds one CREATE at ~4.7 MB
/// before its first point.
constexpr size_t kMaxCandidates = size_t{1} << 16;

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("sink spec: " + what);
}

Result<int64_t> ParseInt(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    return Invalid("bad integer for " + key + ": '" + value + "'");
  }
  return static_cast<int64_t>(v);
}

// `k` and the quotas are `int`s: a value outside `int` is an error, never
// narrowed into a different number.
Result<int> ParseIntValue(const std::string& key, const std::string& value) {
  auto v = ParseInt(key, value);
  if (!v.ok()) return v.status();
  if (*v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    return Invalid(key + " out of range: '" + value + "'");
  }
  return static_cast<int>(*v);
}

Result<double> ParseDouble(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    return Invalid("bad number for " + key + ": '" + value + "'");
  }
  return v;
}

}  // namespace

Result<SinkSpec> SinkSpec::Parse(std::string_view text) {
  SinkSpec spec;
  std::istringstream tokens{std::string(text)};
  std::string token;
  bool saw_algo = false;
  bool saw_dim = false;
  while (tokens >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Invalid("expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "algo") {
      spec.algo = value;
      saw_algo = true;
    } else if (key == "dim") {
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      if (*v < 1) return Invalid("dim must be >= 1");
      spec.dim = static_cast<size_t>(*v);
      saw_dim = true;
    } else if (key == "k") {
      auto v = ParseIntValue(key, value);
      if (!v.ok()) return v.status();
      spec.k = *v;
    } else if (key == "quotas") {
      spec.quotas.clear();
      for (const std::string& part : Split(value, ',')) {
        auto v = ParseIntValue(key, part);
        if (!v.ok()) return v.status();
        spec.quotas.push_back(*v);
      }
    } else if (key == "metric") {
      auto kind = ParseMetricKind(value);
      if (!kind.ok()) return Invalid("unknown metric '" + value + "'");
      spec.metric = *kind;
    } else if (key == "eps") {
      auto v = ParseDouble(key, value);
      if (!v.ok()) return v.status();
      spec.epsilon = *v;
    } else if (key == "dmin") {
      auto v = ParseDouble(key, value);
      if (!v.ok()) return v.status();
      spec.d_min = *v;
    } else if (key == "dmax") {
      auto v = ParseDouble(key, value);
      if (!v.ok()) return v.status();
      spec.d_max = *v;
    } else if (key == "threads") {
      // Legacy key, ignored: see the class comment.
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
    } else if (key == "solve_threads") {
      // Legacy key, ignored: see the class comment.
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      if (*v < 0) return Invalid("solve_threads must be >= 0");
    } else if (key == "shards") {
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      if (*v < 1) return Invalid("shards must be >= 1");
      spec.shards = static_cast<size_t>(*v);
    } else if (key == "window") {
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      spec.window = *v;
    } else if (key == "checkpoints") {
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      spec.checkpoints = *v;
    } else if (key == "max_rungs") {
      auto v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      if (*v < 1) return Invalid("max_rungs must be >= 1");
      spec.max_rungs = static_cast<size_t>(*v);
    } else if (key == "dedup") {
      if (value == "on") {
        spec.dedup = true;
      } else if (value == "off") {
        spec.dedup = false;
      } else {
        return Invalid("dedup must be on|off, got '" + value + "'");
      }
    } else {
      return Invalid("unknown key '" + key + "'");
    }
  }
  if (!saw_algo) return Invalid("missing required key 'algo'");
  if (!saw_dim) return Invalid("missing required key 'dim'");
  return spec;
}

std::string SinkSpec::ToString() const {
  std::ostringstream out;
  out << "algo=" << algo << " dim=" << dim;
  if (!quotas.empty()) {
    out << " quotas=";
    for (size_t i = 0; i < quotas.size(); ++i) {
      if (i > 0) out << ',';
      out << quotas[i];
    }
  } else if (k > 0) {
    out << " k=" << k;
  }
  out << " metric=" << MetricKindName(metric) << " eps=" << epsilon;
  if (algo != "adaptive") out << " dmin=" << d_min << " dmax=" << d_max;
  if (algo == "sharded") out << " shards=" << shards;
  if (algo == "sliding_window") {
    out << " window=" << window << " checkpoints=" << checkpoints;
  }
  if (algo == "adaptive") out << " max_rungs=" << max_rungs;
  if (dedup) out << " dedup=on";
  return out.str();
}

Status PointRule::Check(size_t point_dim, int32_t group) const {
  if (point_dim != dim) {
    return Status::InvalidArgument("point dimension " +
                                   std::to_string(point_dim) +
                                   " does not match session dim " +
                                   std::to_string(dim));
  }
  if (groups != 0 && (group < 0 || static_cast<size_t>(group) >= groups)) {
    return Status::InvalidArgument(
        "point group " + std::to_string(group) +
        " is outside the session's groups 0.." + std::to_string(groups - 1));
  }
  return Status::Ok();
}

size_t SinkSpec::GroupCount() const {
  return algo == "sfdm1" || algo == "sfdm2" ? quotas.size() : 0;
}

Result<std::unique_ptr<StreamSink>> SinkSpec::MakeSink() const {
  if (algo == "adaptive") {
    if (k < 1) return Invalid("algo=adaptive requires k>=1");
    return WrapSink(
        AdaptiveStreamingDm::Create(k, dim, metric, epsilon, max_rungs));
  }
  const bool fair = algo == "sfdm1" || algo == "sfdm2";
  if (!fair && algo != "streaming_dm" && algo != "sharded" &&
      algo != "sliding_window") {
    return Invalid("unknown algo '" + algo + "'");
  }
  if (fair && quotas.empty()) {
    return Invalid("algo=" + algo + " requires quotas");
  }
  if (!fair && k < 1) return Invalid("algo=" + algo + " requires k>=1");
  if (algo == "sliding_window" && window < 1) {
    return Invalid("algo=sliding_window requires window>=1");
  }
  // The fixed-ladder kinds allocate every candidate at Create: per rung, one
  // blind candidate and one per group, in every shard.
  const auto ladder = GuessLadder::Create(d_min, d_max, epsilon);
  if (!ladder.ok()) return ladder.status();
  const size_t per_rung = (1 + GroupCount()) * (algo == "sharded" ? shards : 1);
  if (static_cast<double>(ladder->size()) * static_cast<double>(per_rung) >
      kMaxCandidates) {
    return Invalid("algo=" + algo + " needs " +
                   std::to_string(ladder->size()) + " rungs x " +
                   std::to_string(per_rung) +
                   " candidates per rung, over the limit of " +
                   std::to_string(kMaxCandidates) + " candidates");
  }

  StreamingOptions streaming;
  streaming.epsilon = epsilon;
  streaming.d_min = d_min;
  streaming.d_max = d_max;
  if (fair) {
    FairnessConstraint constraint;
    constraint.quotas = quotas;
    if (algo == "sfdm1") {
      return WrapSink(Sfdm1::Create(constraint, dim, metric, streaming));
    }
    return WrapSink(Sfdm2::Create(constraint, dim, metric, streaming));
  }
  if (algo == "streaming_dm") {
    return WrapSink(StreamingDm::Create(k, dim, metric, streaming));
  }
  if (algo == "sharded") {
    ShardedStreamingOptions sharding;
    sharding.num_shards = shards;
    return WrapSink(
        ShardedStreamingDm::Create(k, dim, metric, streaming, sharding));
  }
  const int64_t cp = std::clamp<int64_t>(checkpoints, 1, window);
  const int kk = k;
  const size_t d = dim;
  const MetricKind m = metric;
  return WrapSink(SlidingWindow<StreamingDm>::Create(
      window, cp, [kk, d, m, streaming] {
        return StreamingDm::Create(kk, d, m, streaming);
      }));
}

Result<std::unique_ptr<StreamSink>> MakeSinkFromSpec(std::string_view text) {
  auto spec = SinkSpec::Parse(text);
  if (!spec.ok()) return spec.status();
  return spec->MakeSink();
}

}  // namespace fdm
