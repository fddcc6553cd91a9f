#ifndef FDM_PERFBENCH_FLEET_H_
#define FDM_PERFBENCH_FLEET_H_

// A primary `fdm_serve` plus a TCP follower of it, and the post-window
// phases every workload runs on them: settle, recovery and catch-up.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace fdm::bench {

struct Fleet {
  std::unique_ptr<ServerProcess> primary;
  std::unique_ptr<ServerProcess> follower;
  std::unique_ptr<Client> admin;           // to the primary
  std::unique_ptr<Client> follower_admin;  // to the follower
  void Stop();
};

/// Starts a primary over `root` (emptied first) and a follower that tails
/// it over TCP with background polling off: the benchmark drives every
/// follower poll with `REPLICA`, so catch-up work lands at fixed stream
/// positions instead of at timer ticks.
Result<Fleet> StartFleet(const RunContext& ctx, const std::string& root,
                         size_t snapshot_every, size_t max_resident = 0);

/// Untimed: snapshots every session on the primary (its WAL is then synced
/// through the current position) and brings the follower up to it.
Status Settle(Fleet& fleet, const std::vector<std::string>& names);

/// Timed recovery: `RESTORE` (drop, then snapshot load + WAL-tail replay)
/// followed by the first `SOLVE` (a cold solve) of each session, one after
/// another. Returns the elapsed seconds; `final_replies` receives each
/// session's SOLVE reply.
Result<double> Recover(Fleet& fleet, const std::vector<std::string>& names,
                       std::vector<std::string>* final_replies);

/// Timed catch-up: from now until the follower answers `SOLVE` for every
/// session at the primary's state version with `stale=0`, forcing polls
/// with `REPLICA`. The follower's answer must equal `final_replies` (its
/// div/ids part); a mismatch is returned as an error.
Result<double> CatchUp(Fleet& fleet, const std::vector<std::string>& names,
                       const std::vector<std::string>& final_replies);

/// One recovery and catch-up drill: `Settle`, then the requests
/// `make_tail()` returns (OBSERVEB text + point count, each reply checked
/// as `OK kept=<count> dup=0`), then `Recover`, then `CatchUp`.
/// `on_final(i, reply)` receives session i's post-recovery SOLVE reply.
struct Drill {
  double recovery_s = 0.0;
  double catchup_s = 0.0;
};
Result<Drill> RunDrill(
    Fleet& fleet, const std::vector<std::string>& names,
    const std::function<std::vector<std::pair<std::string, int>>()>& make_tail,
    const std::function<void(size_t, const std::string&)>& on_final,
    Tally* tally);

/// Replies recorded for one solve epoch (the state between two ingests of
/// a session): the first reply text and how many later ones agreed.
struct EpochReplies {
  std::string first;
  int64_t same = 0;
  int64_t diff = 0;
  void Record(std::string_view reply);
  /// Counts every reply that differs from `expected` as failed.
  void Check(const std::string& expected, const std::string& where,
             Tally* tally) const;
};

}  // namespace fdm::bench

#endif  // FDM_PERFBENCH_FLEET_H_
