#include "fleet.h"

#include <cstdlib>
#include <thread>

namespace fdm::bench {

void Fleet::Stop() {
  admin.reset();
  follower_admin.reset();
  if (follower != nullptr) follower->Stop();
  if (primary != nullptr) primary->Stop();
}

Result<Fleet> StartFleet(const RunContext& ctx, const std::string& root,
                         size_t snapshot_every, size_t max_resident) {
  if (Status s = ResetDir(root); !s.ok()) return s;
  Fleet fleet;
  ServeOptions primary;
  primary.root = root;
  primary.net_threads = ctx.threads.net_threads;
  primary.solve_workers = ctx.threads.solve_workers;
  primary.snapshot_every = snapshot_every;
  primary.max_resident = max_resident;
  auto p = ServerProcess::Start(ctx.serve_bin, primary);
  if (!p.ok()) return p.status();
  fleet.primary = std::move(*p);
  ServeOptions follower;
  follower.follow = "tcp://127.0.0.1:" + std::to_string(fleet.primary->port());
  follower.net_threads = 1;
  follower.solve_workers = 1;
  auto f = ServerProcess::Start(ctx.serve_bin, follower);
  if (!f.ok()) return f.status();
  fleet.follower = std::move(*f);
  auto a = Client::Connect(fleet.primary->port());
  if (!a.ok()) return a.status();
  fleet.admin = std::move(*a);
  auto fa = Client::Connect(fleet.follower->port());
  if (!fa.ok()) return fa.status();
  fleet.follower_admin = std::move(*fa);
  return fleet;
}

Status Settle(Fleet& fleet, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (auto r = CallOk(*fleet.admin, "SNAPSHOT " + name); !r.ok()) {
      return r.status();
    }
    if (auto r = CallOk(*fleet.follower_admin, "REPLICA " + name); !r.ok()) {
      return r.status();
    }
  }
  return Status::Ok();
}

Result<double> Recover(Fleet& fleet, const std::vector<std::string>& names,
                       std::vector<std::string>* final_replies) {
  final_replies->clear();
  const Clock::time_point start = Clock::now();
  for (const std::string& name : names) {
    if (auto r = CallOk(*fleet.admin, "RESTORE " + name); !r.ok()) {
      return r.status();
    }
    auto solve = fleet.admin->Call("SOLVE " + name);
    if (!solve.ok()) return solve.status();
    final_replies->push_back(std::move(*solve));
  }
  return SecondsSince(start);
}

namespace {

/// Value of ` key=<int>` in a reply, or -1.
int64_t FieldValue(const std::string& reply, const std::string& key) {
  const std::string token = " " + key + "=";
  const size_t at = reply.find(token);
  if (at == std::string::npos) return -1;
  return std::strtoll(reply.c_str() + at + token.size(), nullptr, 10);
}

}  // namespace

Result<double> CatchUp(Fleet& fleet, const std::vector<std::string>& names,
                       const std::vector<std::string>& final_replies) {
  std::vector<int64_t> versions;
  for (const std::string& name : names) {
    auto stats = CallOk(*fleet.admin, "STATS " + name);
    if (!stats.ok()) return stats.status();
    versions.push_back(FieldValue(*stats, "version"));
  }
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < names.size(); ++i) {
    for (;;) {
      if (auto r = CallOk(*fleet.follower_admin, "REPLICA " + names[i]);
          !r.ok()) {
        return r.status();
      }
      auto solve = CallOk(*fleet.follower_admin, "SOLVE " + names[i]);
      if (!solve.ok()) return solve.status();
      if (FieldValue(*solve, "version") == versions[i] &&
          FieldValue(*solve, "stale") == 0) {
        if (solve->rfind(final_replies[i] + " version=", 0) != 0) {
          return Status::Internal("follower answer for " + names[i] +
                                  " differs from the primary's: " +
                                  solve->substr(0, 200));
        }
        break;
      }
      if (SecondsSince(start) > 60.0) {
        return Status::Internal("follower did not catch up on " + names[i]);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return SecondsSince(start);
}

Result<Drill> RunDrill(
    Fleet& fleet, const std::vector<std::string>& names,
    const std::function<std::vector<std::pair<std::string, int>>()>& make_tail,
    const std::function<void(size_t, const std::string&)>& on_final,
    Tally* tally) {
  if (Status s = Settle(fleet, names); !s.ok()) return s;
  const std::vector<std::pair<std::string, int>> tail = make_tail();
  std::vector<std::string> texts;
  for (const auto& [text, points] : tail) texts.push_back(text);
  auto replies = fleet.admin->CallMany(texts);
  if (!replies.ok()) return replies.status();
  for (size_t i = 0; i < tail.size(); ++i) {
    ++tally->attempted;
    Op op;
    op.points = tail[i].second;
    if (!IngestReplyOk(op, (*replies)[i])) {
      tally->Fail("tail OBSERVEB: " + (*replies)[i]);
    }
  }
  std::vector<std::string> finals;
  auto recovery = Recover(fleet, names, &finals);
  if (!recovery.ok()) return recovery.status();
  for (size_t i = 0; i < finals.size(); ++i) on_final(i, finals[i]);
  auto catchup = CatchUp(fleet, names, finals);
  if (!catchup.ok()) return catchup.status();
  return Drill{*recovery, *catchup};
}

void EpochReplies::Record(std::string_view reply) {
  if (same == 0 && diff == 0) {
    first.assign(reply);
    same = 1;
  } else if (reply == first) {
    ++same;
  } else {
    ++diff;
  }
}

void EpochReplies::Check(const std::string& expected, const std::string& where,
                         Tally* tally) const {
  if (same > 0 && first != expected) {
    for (int64_t i = 0; i < same; ++i) {
      tally->Fail(where + ": got '" + first.substr(0, 80) + "' want '" +
                  expected.substr(0, 80) + "'");
    }
  }
  for (int64_t i = 0; i < diff; ++i) {
    tally->Fail(where + ": replies within one state version differ");
  }
}

}  // namespace fdm::bench
