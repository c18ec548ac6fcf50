#pragma once

// Epoch snapshots: zero-downtime hand-off between the repair plane and the
// serving plane.
//
// The SpannerSupervisor mutates its spanner wave by wave; the QueryEngine
// answers queries continuously. Letting the engine read the supervisor's
// working copy directly would mean either a lock held across whole repair
// waves (queries stall) or torn reads (queries observe a half-repaired
// graph). The snapshot store is the RCU-style decoupling in between:
//
//  * the supervisor *publishes* immutable `{graph, spanner, certificate,
//    epoch}` snapshots through an atomic swap — publishing never waits for
//    readers;
//  * a reader *pins* the current snapshot at batch start and serves the
//    whole batch from that frozen view, even if newer epochs land
//    mid-batch;
//  * a superseded snapshot retires exactly when its last pinned reader
//    drains (shared ownership does the grace period), and the retirement
//    is tallied so leaks are visible in `serve.epoch.*`.
//
// The epoch number is the serving plane's cache-coherency token: the
// engine keys its distance-row cache and lazy next-hop tables by the epoch
// they were materialized under and drops both on the first batch that pins
// a newer one. A row computed against epoch e must never answer a query
// pinned to epoch e' > e — that is the stale-read class of bug the
// chaos-soak harness's query-certified invariant exists to catch.
//
// Obs: `serve.epoch.published` / `serve.epoch.retired` counters,
// `serve.epoch.current` / `serve.epoch.live` gauges.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "graph/graph.hpp"
#include "resilience/health_monitor.hpp"
#include "resilience/supervisor.hpp"

namespace dcs::serve {

/// The (α, β) envelope the published spanner is certified for, plus the
/// maintenance context a serving policy needs to decide served-vs-shed.
struct SpannerCertificate {
  /// Distance-stretch bound that actually holds (the measured bound when
  /// the certificate is degraded).
  double alpha = 3.0;
  /// Congestion-stretch bound (0 = not certified on this deployment).
  double beta = 0.0;
  /// Latest recertification verdict for the published spanner.
  GuaranteeStatus status = GuaranteeStatus::kHeld;
  /// Degradation-ladder state at publish time.
  SupervisorState ladder = SupervisorState::kHealthy;
  /// True when the certificate was measured against exactly this
  /// topology — false when faults or repairs landed after the last
  /// recertification (the envelope may be stale).
  bool fresh = true;
};

/// One immutable published view. Readers navigate it freely without
/// synchronization; nothing in a snapshot ever changes after publish().
struct ServeSnapshot {
  std::uint64_t epoch = 0;
  Graph graph;    ///< network view the certificate is relative to (G∖F)
  Graph spanner;  ///< serving substrate (H∖F)
  SpannerCertificate certificate;
};

/// Shared pin on a snapshot: holding one keeps the whole view (both
/// graphs, certificate) alive; dropping the last one retires it.
using SnapshotRef = std::shared_ptr<const ServeSnapshot>;

class SnapshotStore {
 public:
  /// Seeds epoch 1. `graph` is the view the certificate refers to; a
  /// standalone oracle without a maintained network can pass the spanner
  /// for both.
  SnapshotStore(Graph graph, Graph spanner, SpannerCertificate cert = {});

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Atomically replaces the published snapshot and returns its epoch.
  /// In-flight readers keep the epoch they pinned; the superseded
  /// snapshot retires when its last pin drops. Vertex count must match
  /// the seed snapshot (vertex ids are the serving plane's stable keys).
  std::uint64_t publish(Graph graph, Graph spanner, SpannerCertificate cert);

  /// Pins the currently published snapshot. Never blocks on publishers
  /// beyond the swap itself; never returns null.
  SnapshotRef pin() const;

  /// Pins only when the published epoch is newer than `epoch`; returns
  /// null (and counts a skipped pin) when it is not. This is the serving
  /// fast path: executors (the dispatcher and synchronous callers)
  /// compare epochs with one atomic load per batch, and after a publish
  /// only the first adopter pays the store mutex — one pin per epoch, not
  /// one per batch per executor. The returned snapshot's epoch is always
  /// > `epoch` (the published epoch never moves backwards).
  SnapshotRef pin_if_newer(std::uint64_t epoch) const;

  std::uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  std::size_t num_vertices() const { return n_; }

  // --- audit tallies ------------------------------------------------------
  std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  /// Snapshots whose last reader has drained (the current one never
  /// retires while the store holds it).
  std::uint64_t retired() const {
    return retired_->load(std::memory_order_relaxed);
  }
  /// Published and not yet retired (≥ 1: the current snapshot).
  std::uint64_t live() const { return published() - retired(); }
  std::uint64_t pins() const { return pins_.load(std::memory_order_relaxed); }
  /// pin_if_newer() calls answered without pinning (epoch unchanged) —
  /// the accounting that shows concurrent executors sharing one pin per
  /// epoch instead of re-pinning per batch.
  std::uint64_t pin_skips() const {
    return pin_skips_.load(std::memory_order_relaxed);
  }

 private:
  SnapshotRef wrap(ServeSnapshot&& snapshot);

  std::size_t n_ = 0;
  mutable std::mutex mutex_;  ///< guards current_ swap/copy
  SnapshotRef current_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> published_{0};
  mutable std::atomic<std::uint64_t> pins_{0};
  mutable std::atomic<std::uint64_t> pin_skips_{0};
  /// Shared with every snapshot's deleter so retirement is counted even
  /// for snapshots outliving the store.
  std::shared_ptr<std::atomic<std::uint64_t>> retired_;
};

}  // namespace dcs::serve
