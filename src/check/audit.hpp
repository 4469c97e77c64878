// InvariantAuditor: the runtime audit layer over a protected Cluster.
//
// One auditor observes one protected container end to end. It implements
// every observer seam the replication core exposes — the egress plug, the
// agent pair's commit points, the backup DRBD buffer — and routes the
// event stream into the checkers in invariants.hpp:
//
//   * output commit: no sch_plug release before the backup's ack, checked
//     per packet against an independent mirror of the plug buffer;
//   * epoch monotonicity and exactly-once commit on the backup, including
//     DRBD's buffered-write ordering inside the fold window;
//   * COW payload freeze: page payloads captured by a checkpoint (memory
//     pages and DNC file pages) or shipped as a DRBD write never change
//     bytes while any pipeline stage still references them;
//   * page-store/image equivalence after every fold, and restored-memory/
//     store equivalence after failover;
//   * delta-codec shadow replay (wire-size stamps + byte-exact decode).
//
// Cost is governed by Options::audit_level: kCommitPoints checks ordering
// and equivalence at every epoch commit and at failover; kContinuous adds
// COW re-fingerprinting (budgeted, via a periodic simulation probe) and
// the per-epoch delta replay. The auditor holds no strong references to
// page payloads and never mutates observed components, so an audited run
// takes the exact same protocol decisions as an unaudited one.
//
// A violated invariant throws nlc::InvariantError, which escapes
// Simulation::run() — an audited experiment either finishes clean or dies
// loudly at the first broken property.
#pragma once

#include "blockdev/drbd.hpp"
#include "check/invariants.hpp"
#include "core/audit_hooks.hpp"
#include "core/cluster.hpp"
#include "net/qdisc.hpp"

namespace nlc::check {

/// Byte-equivalence walk of a restored container against a committed page
/// store (shared by the auditor and the per-replica adapters, so a
/// promoted extra replica gets the same post-failover audit as replica 0).
/// Returns the number of pages compared; every resident page (content or
/// accounting) is folded into `digest`.
std::uint64_t restore_equivalence_walk(const criu::PageStore& store,
                                       const kern::Kernel& kernel,
                                       kern::ContainerId cid,
                                       MemoryDigest& digest);

/// Per-replica audit adapter for extra backup replicas (N > 1, DESIGN.md
/// §16). Each extra replica runs the same backup-side epoch lifecycle as
/// replica 0 but against its own DRBD buffer and page store, so each gets
/// its own checker mirrors — routing all replicas into one mirror would
/// interleave their (independent) epoch streams.
class ReplicaAudit final : public core::BackupAuditHooks,
                           public blk::DrbdObserver {
 public:
  ReplicaAudit(core::Cluster& cluster, int index, kern::ContainerId cid)
      : cluster_(&cluster), index_(index), cid_(cid) {}

  // core::BackupAuditHooks
  void on_ack_sent(std::uint64_t epoch, std::uint64_t last_barrier) override;
  void on_commit_begin(std::uint64_t epoch) override;
  void on_commit(const core::EpochStateMsg& msg) override;
  void on_recovery_started(std::uint64_t committed_epoch) override;
  void on_recovered(std::uint64_t committed_epoch) override;
  void on_resilver_adopted(std::uint64_t committed_epoch) override;

  // blk::DrbdObserver
  void on_drbd_epoch_applied(std::uint64_t epoch,
                             std::uint64_t writes) override;
  void on_drbd_discard(std::uint64_t writes) override;

  std::uint64_t epoch_checks() const { return epoch_.checks(); }
  std::uint64_t store_checks() const { return store_.checks(); }
  std::uint64_t restore_checks() const { return restore_equiv_checks_; }
  std::uint64_t restore_digest() const { return restore_digest_.value(); }
  std::uint64_t restore_storage_digest() const {
    return restore_storage_.value();
  }

 private:
  core::Cluster* cluster_;
  int index_;
  kern::ContainerId cid_;
  EpochCommitChecker epoch_;
  StoreEquivalenceChecker store_;
  std::uint64_t restore_equiv_checks_ = 0;
  MemoryDigest restore_digest_;
  StorageDigest restore_storage_;
};

class InvariantAuditor final : public net::PlugObserver,
                               public core::PrimaryAuditHooks,
                               public core::BackupAuditHooks,
                               public blk::DrbdObserver,
                               public blk::DrbdShipObserver {
 public:
  /// Both agents of `cluster` must exist (construct from the
  /// Cluster::on_agents_created callback). `opts` must be the Options the
  /// container is protected with.
  InvariantAuditor(core::Cluster& cluster, kern::ContainerId cid,
                   const core::Options& opts);
  ~InvariantAuditor() override;

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Installs the observers on every seam (idempotent).
  void attach();
  /// Uninstalls them; safe to call while the simulation still runs.
  void detach();

  /// End-of-run audit: full re-fingerprint of every live pinned payload
  /// plus the cross-component mirror checks. Call after Simulation::run()
  /// returns.
  void final_audit();

  AuditStats stats() const;
  core::AuditLevel level() const { return level_; }

  // net::PlugObserver
  void on_plug_enqueue(const net::Packet& p) override;
  void on_plug_marker(std::uint64_t marker) override;
  void on_plug_release(std::uint64_t marker, std::uint64_t packets) override;
  void on_plug_discard(std::uint64_t packets) override;

  // core::PrimaryAuditHooks
  void on_state_ready(const core::EpochStateMsg& msg, bool initial) override;
  void on_marker_inserted(std::uint64_t epoch, std::uint64_t marker) override;
  void on_ack_received(std::uint64_t epoch) override;
  void on_release(std::uint64_t epoch) override;
  void on_log_shipped(const core::LogSegmentMsg& seg,
                      std::uint64_t marker) override;
  void on_log_ack_received(std::uint64_t seq) override;
  void on_log_release(std::uint64_t seq) override;

  // core::BackupAuditHooks
  void on_ack_sent(std::uint64_t epoch, std::uint64_t last_barrier) override;
  void on_commit_begin(std::uint64_t epoch) override;
  void on_commit(const core::EpochStateMsg& msg) override;
  void on_recovery_started(std::uint64_t committed_epoch) override;
  void on_recovered(std::uint64_t committed_epoch) override;
  void on_resilver_adopted(std::uint64_t committed_epoch) override;
  void on_log_ingested(const core::LogSegmentMsg& seg, bool accepted) override;
  void on_replayed(std::uint64_t final_fp,
                   std::uint64_t entries_replayed) override;
  void on_replica_ack(int replica, std::uint64_t epoch) override;
  void on_replica_log_ack(int replica, std::uint64_t seq) override;

  // blk::DrbdObserver
  void on_drbd_epoch_applied(std::uint64_t epoch,
                             std::uint64_t writes) override;
  void on_drbd_discard(std::uint64_t writes) override;

  // blk::DrbdShipObserver
  void on_drbd_write_shipped(const blk::DiskWrite& w) override;

 private:
  /// Periodic probe body (kContinuous): budgeted payload re-fingerprint
  /// plus the plug-mirror cross-check.
  void sweep();
  void pin_image_payloads(const criu::CheckpointImage& img);

  /// Payloads re-hashed per budgeted verification call. Bounds the audit's
  /// per-commit/per-probe cost on working sets that keep every page of the
  /// container alive in the page store.
  static constexpr std::uint64_t kVerifyBudget = 256;
  /// Continuous-level probe period, in simulation events.
  static constexpr std::uint64_t kProbeEveryEvents = 512;

  core::Cluster* cluster_;
  kern::ContainerId cid_;
  core::AuditLevel level_;
  bool delta_enabled_;
  /// Replay commit mode: output commits per log segment, so occ_ runs on
  /// segment seq numbers and epoch acks must stay out of it (the two
  /// number spaces would interleave).
  bool replay_mode_;
  net::PlugQdisc* plug_;
  bool attached_ = false;

  OutputCommitChecker occ_;
  EpochCommitChecker epoch_;
  PayloadFreezeGuard freeze_;
  StoreEquivalenceChecker store_;
  DeltaReplayChecker delta_;
  ReplayEquivalenceChecker replay_;
  QuorumCommitChecker quorum_;
  /// One adapter per extra backup replica (index i + 1 at position i).
  std::vector<std::unique_ptr<ReplicaAudit>> replica_audits_;

  /// Marker id the plug reported last, cross-checked against the agent's
  /// marker hook.
  std::uint64_t last_plug_marker_ = 0;
  bool saw_plug_marker_ = false;
  /// Epoch the primary declared it is releasing, consumed by the plug's
  /// release notification.
  std::uint64_t pending_release_epoch_ = OutputCommitChecker::kAnyEpoch;

  std::uint64_t sweeps_ = 0;
  std::uint64_t restore_equiv_checks_ = 0;
  MemoryDigest digest_;
  StorageDigest storage_;
};

}  // namespace nlc::check
