// Walkthrough of the durable serving layer (README "Durable serving"
// section): a recommendation session that survives a process crash.
//
//  1. create a durable session from a sink spec (no dataset object — the
//     spec carries dim/metric/constraint/bounds);
//  2. stream live events into it one at a time through `Ingest` (each is
//     WAL-appended before it reaches the sink); an event the spec cannot
//     hold, here one outside the two groups, is rejected before the WAL;
//  3. snapshot mid-stream (tiny: the sink state is O(k·log∆/ε) points);
//  4. keep streaming, now in batches of 100 — the tail after the snapshot
//     lives only in the WAL;
//  5. "crash" (drop the object without snapshotting);
//  6. recover: newest snapshot + WAL tail replay, then verify the
//     recovered solution matches the uninterrupted run bit-for-bit.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "service/durable_session.h"
#include "service/sink_spec.h"

int main() {
  using namespace fdm;

  // A synthetic "user event" stream: 2-d points in two demographic groups,
  // from which the session must keep a fair, diverse panel of 6.
  BlobsOptions options;
  options.n = 4000;
  options.num_groups = 2;
  options.seed = 12;
  const Dataset events = MakeBlobs(options);
  const DistanceBounds bounds = EstimateDistanceBounds(events, 500, 1);

  const std::string spec =
      "algo=sfdm2 dim=2 quotas=3,3 dmin=" + std::to_string(bounds.min) +
      " dmax=" + std::to_string(bounds.max);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fdm_durable_example")
          .string();
  std::filesystem::remove_all(dir);

  // Uninterrupted reference: the same sink fed the whole stream in one
  // process lifetime.
  auto reference = MakeSinkFromSpec(spec);
  if (!reference.ok()) {
    std::printf("spec error: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    (*reference)->Observe(events.At(i));
  }

  // 1–4: the durable run, interrupted by a crash after the snapshot.
  {
    auto session = DurableSession::Create(dir, spec);
    if (!session.ok()) {
      std::printf("create: %s\n", session.status().ToString().c_str());
      return 1;
    }
    const size_t half = events.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      const StreamPoint event = events.At(i);
      if (!session->Ingest({&event, 1}, /*as_batch=*/false).ok()) return 1;
    }
    const std::vector<double> coords = {0.0, 0.0};
    const StreamPoint foreign{-1, /*group=*/2, coords};
    std::printf("event in group 2: %s\n",
                session->Ingest({&foreign, 1}, /*as_batch=*/false)
                    .status()
                    .ToString()
                    .c_str());
    if (!session->TakeSnapshot().ok()) return 1;
    std::printf("snapshot at %lld events (%zu stored points)\n",
                static_cast<long long>(session->SnapshotSeq()),
                session->StoredElements());
    std::vector<StreamPoint> batch;
    for (size_t i = half; i < events.size(); ++i) {
      batch.push_back(events.At(i));
      if (batch.size() == 100 || i + 1 == events.size()) {
        if (!session->Ingest(batch, /*as_batch=*/true).ok()) return 1;
        batch.clear();
      }
    }
    std::printf("streamed %lld events; %lld newest live only in the WAL\n",
                static_cast<long long>(session->ObservedElements()),
                static_cast<long long>(session->UnsnapshottedRecords()));
  }  // 5: crash — the object dies with no final snapshot

  // 6: recovery.
  auto recovered = DurableSession::Open(dir);
  if (!recovered.ok()) {
    std::printf("recover: %s\n", recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("recovered to %lld events (snapshot %lld + WAL tail)\n",
              static_cast<long long>(recovered->ObservedElements()),
              static_cast<long long>(recovered->SnapshotSeq()));

  const auto expected = (*reference)->Solve();
  const auto actual = recovered->Solve();
  if (!expected.ok() || !actual.ok()) {
    std::printf("solve failed\n");
    return 1;
  }
  const bool identical = expected->Ids() == actual->Ids() &&
                         expected->diversity == actual->diversity;
  std::printf("diversity %.6f vs uninterrupted %.6f — %s\n",
              actual->diversity, expected->diversity,
              identical ? "bit-identical" : "MISMATCH");
  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
