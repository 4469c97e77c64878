#include "check/audit.hpp"

#include <utility>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/process.hpp"

namespace nlc::check {

// ---------------------------------------------------------------------------
// Shared restore-equivalence walk

std::uint64_t restore_equivalence_walk(const criu::PageStore& store,
                                       const kern::Kernel& kernel,
                                       kern::ContainerId cid,
                                       MemoryDigest& digest) {
  // Restored memory must equal the committed page store byte for byte:
  // walk the restored container's resident content pages before the
  // application resumes and compare against the store's committed copies.
  std::uint64_t compared = 0;
  for (const kern::Process* p : kernel.container_processes(cid)) {
    // page_states() is ascending: when more than one page diverges, the
    // report (and the failing-check identity a negative test asserts on)
    // does not depend on allocation addresses.
    for (const auto& [page, state] : p->mm().page_states()) {
      digest.page(page, state.version, state.payload.get(), kPageSize);
      if (!state.payload) continue;
      const criu::PageRecord* rec = store.lookup(page);
      NLC_CHECK_MSG(rec != nullptr,
                    "audit: restored content page missing from the store");
      NLC_CHECK_MSG(rec->content != nullptr,
                    "audit: restored bytes for an accounting-only page");
      if (rec->content.get() != state.payload.get()) {
        NLC_CHECK_MSG(*rec->content == *state.payload,
                      "audit: restored memory diverged from the committed "
                      "page store");
      }
      ++compared;
    }
  }
  return compared;
}

// ---------------------------------------------------------------------------
// ReplicaAudit (extra backup replicas, DESIGN.md §16)

void ReplicaAudit::on_ack_sent(std::uint64_t epoch,
                               std::uint64_t last_barrier) {
  epoch_.ack_sent(epoch, last_barrier);
}

void ReplicaAudit::on_commit_begin(std::uint64_t epoch) {
  epoch_.commit_begin(epoch);
}

void ReplicaAudit::on_commit(const core::EpochStateMsg& msg) {
  store_.check(cluster_->backup(index_).page_store(), msg.image);
  epoch_.committed(msg.epoch);
}

void ReplicaAudit::on_recovery_started(std::uint64_t committed_epoch) {
  epoch_.recovery_started(committed_epoch);
}

void ReplicaAudit::on_recovered(std::uint64_t committed_epoch) {
  epoch_.recovered(committed_epoch);
  restore_equiv_checks_ += restore_equivalence_walk(
      cluster_->backup(index_).page_store(),
      cluster_->backup_kernel_of(index_), cid_, restore_digest_);
  restore_storage_.cache(cluster_->backup_kernel_of(index_).fs());
}

void ReplicaAudit::on_resilver_adopted(std::uint64_t committed_epoch) {
  epoch_.resilver_adopted(committed_epoch);
}

void ReplicaAudit::on_drbd_epoch_applied(std::uint64_t epoch,
                                         std::uint64_t /*writes*/) {
  epoch_.drbd_applied(epoch);
}

void ReplicaAudit::on_drbd_discard(std::uint64_t /*writes*/) {
  epoch_.drbd_discarded();
}

// ---------------------------------------------------------------------------
// InvariantAuditor

InvariantAuditor::InvariantAuditor(core::Cluster& cluster,
                                   kern::ContainerId cid,
                                   const core::Options& opts)
    : cluster_(&cluster), cid_(cid), level_(opts.audit_level),
      delta_enabled_(opts.delta_compress_pages),
      replay_mode_(opts.commit_mode == core::CommitMode::kReplay),
      quorum_(opts.replicas, opts.resolved_quorum()) {
  NLC_CHECK_MSG(level_ != core::AuditLevel::kOff,
                "constructing an auditor with auditing off");
  NLC_CHECK_MSG(cluster.primary_agent != nullptr &&
                    cluster.backup_agent != nullptr,
                "auditor needs both agents (attach from on_agents_created)");
  const kern::Container* cont = cluster.primary_kernel->container(cid);
  NLC_CHECK_MSG(cont != nullptr, "auditing an unknown container");
  plug_ = &cluster.primary_tcp.plug(
      static_cast<net::IpAddr>(cont->service_ip()));
  for (int i = 1; i < cluster.replica_count(); ++i) {
    replica_audits_.push_back(
        std::make_unique<ReplicaAudit>(cluster, i, cid));
  }
}

InvariantAuditor::~InvariantAuditor() { detach(); }

void InvariantAuditor::attach() {
  if (attached_) return;
  plug_->set_observer(this);
  cluster_->primary_agent->set_audit_hooks(this);
  cluster_->backup_agent->set_audit_hooks(this);
  cluster_->drbd_backup->set_observer(this);
  cluster_->drbd_primary->set_observer(this);
  for (std::size_t i = 0; i < replica_audits_.size(); ++i) {
    core::Cluster::BackupReplica& r = *cluster_->extra_backups[i];
    r.agent->set_audit_hooks(replica_audits_[i].get());
    r.drbd->set_observer(replica_audits_[i].get());
  }
  if (cluster_->arbiter != nullptr) {
    // NLC_LINT_OK(detached-this): detach() clears the hook in ~auditor
    cluster_->arbiter->set_on_promoted(
        [this](int winner,
               const std::vector<core::PromotionCandidate>& cs) {
          std::vector<QuorumCommitChecker::Candidate> conv;
          conv.reserve(cs.size());
          for (const core::PromotionCandidate& c : cs) {
            conv.push_back(QuorumCommitChecker::Candidate{
                c.index, c.any_ack, c.acked_epoch, c.committed_nd_entries});
          }
          quorum_.promoted(winner, conv);
        });
  }
  if (level_ == core::AuditLevel::kContinuous) {
    // NLC_LINT_OK(detached-this): detach() clears the probe in ~auditor
    cluster_->sim.set_audit_probe([this] { sweep(); }, kProbeEveryEvents);
  }
  attached_ = true;
}

void InvariantAuditor::detach() {
  if (!attached_) return;
  plug_->set_observer(nullptr);
  if (cluster_->primary_agent) cluster_->primary_agent->set_audit_hooks(nullptr);
  if (cluster_->backup_agent) cluster_->backup_agent->set_audit_hooks(nullptr);
  cluster_->drbd_backup->set_observer(nullptr);
  cluster_->drbd_primary->set_observer(nullptr);
  for (std::size_t i = 0; i < replica_audits_.size(); ++i) {
    core::Cluster::BackupReplica& r = *cluster_->extra_backups[i];
    if (r.agent) r.agent->set_audit_hooks(nullptr);
    r.drbd->set_observer(nullptr);
  }
  if (cluster_->arbiter != nullptr) cluster_->arbiter->set_on_promoted({});
  if (level_ == core::AuditLevel::kContinuous) {
    cluster_->sim.set_audit_probe(nullptr);
  }
  attached_ = false;
}

AuditStats InvariantAuditor::stats() const {
  AuditStats st;
  st.output_commit_checks = occ_.checks();
  st.epoch_commit_checks = epoch_.checks();
  st.payload_pins = freeze_.pins();
  st.payload_verifications = freeze_.verifications();
  st.store_equivalence_checks = store_.checks();
  st.delta_replay_checks = delta_.checks();
  st.restore_equivalence_checks = restore_equiv_checks_;
  st.replay_equivalence_checks = replay_.checks();
  st.quorum_checks = quorum_.checks();
  st.sweeps = sweeps_;
  MemoryDigest digest = digest_;
  StorageDigest storage = storage_;
  for (const auto& ra : replica_audits_) {
    st.epoch_commit_checks += ra->epoch_checks();
    st.store_equivalence_checks += ra->store_checks();
    st.restore_equivalence_checks += ra->restore_checks();
    digest.fold(ra->restore_digest());
    storage.fold(ra->restore_storage_digest());
  }
  st.memory_digest = digest.value();
  // Final disk contents, primary first, then every replica in index order.
  auto fold_disk = [&storage](const blk::Disk& d) {
    storage.fold(d.block_count());
    d.for_each_block([&storage](kern::InodeNum ino, std::uint64_t page,
                                const kern::PageBytes& bytes) {
      storage.page(ino, page, bytes);
    });
  };
  fold_disk(cluster_->primary_disk);
  fold_disk(cluster_->backup_disk);
  for (const auto& r : cluster_->extra_backups) fold_disk(*r->disk);
  st.storage_digest = storage.value();
  return st;
}

void InvariantAuditor::final_audit() {
  freeze_.verify_all();
  NLC_CHECK_MSG(occ_.mirrored_packets() == plug_->pending_packets(),
                "audit: plug buffer diverged from the output-commit mirror");
}

// ---------------------------------------------------------------------------
// Plug (primary egress)

void InvariantAuditor::on_plug_enqueue(const net::Packet&) {
  occ_.packet_buffered();
}

void InvariantAuditor::on_plug_marker(std::uint64_t marker) {
  last_plug_marker_ = marker;
  saw_plug_marker_ = true;
}

void InvariantAuditor::on_plug_release(std::uint64_t marker,
                                       std::uint64_t packets) {
  std::uint64_t expected =
      std::exchange(pending_release_epoch_, OutputCommitChecker::kAnyEpoch);
  occ_.released(marker, packets, expected);
}

void InvariantAuditor::on_plug_discard(std::uint64_t packets) {
  occ_.discarded(packets);
}

// ---------------------------------------------------------------------------
// Primary agent

void InvariantAuditor::on_state_ready(const core::EpochStateMsg& msg,
                                      bool initial) {
  NLC_CHECK_MSG(msg.epoch == msg.image.epoch,
                "audit: state message and image disagree on the epoch");
  NLC_CHECK_MSG(msg.image.full == initial,
                "audit: only the initial synchronization ships a full image");
  if (replay_mode_) replay_.checkpoint_stamped(msg.nd_entries, msg.nd_fp);
  digest_.image(msg.image);
  storage_.image(msg.image);
  if (level_ == core::AuditLevel::kContinuous) {
    // The payloads in this image must stay frozen from here through ship,
    // fold and store residency, no matter what the container writes next.
    pin_image_payloads(msg.image);
    delta_.replay(msg.image, delta_enabled_);
  }
}

void InvariantAuditor::on_marker_inserted(std::uint64_t epoch,
                                          std::uint64_t marker) {
  NLC_CHECK_MSG(saw_plug_marker_ && marker == last_plug_marker_,
                "audit: agent marker does not match the plug's last marker");
  occ_.marker_inserted(epoch, marker);
}

void InvariantAuditor::on_ack_received(std::uint64_t epoch) {
  // Replay mode commits output per log segment: the occ_ mirror runs on
  // segment seq numbers, so epoch acks must not leak into it.
  if (!replay_mode_) occ_.ack_received(epoch);
  // With replicas > 1 this hook reports *quorum* advances; re-derive the
  // quorum cursor from the per-replica mirror. At N = 1 every ack is a
  // quorum advance and the check degenerates to cursor equality.
  quorum_.quorum_advanced(epoch);
}

void InvariantAuditor::on_release(std::uint64_t epoch) {
  pending_release_epoch_ = epoch;
}

void InvariantAuditor::on_log_shipped(const core::LogSegmentMsg& seg,
                                      std::uint64_t marker) {
  NLC_CHECK_MSG(saw_plug_marker_ && marker == last_plug_marker_,
                "audit: segment marker does not match the plug's last "
                "marker");
  // Segment seq plays the epoch role in the output-commit mirror: output
  // up to this marker may leave only after this segment's ack.
  occ_.marker_inserted(seg.seq, marker);
  replay_.log_shipped(seg);
}

void InvariantAuditor::on_log_ack_received(std::uint64_t seq) {
  occ_.ack_received(seq);
}

void InvariantAuditor::on_log_release(std::uint64_t seq) {
  pending_release_epoch_ = seq;
  quorum_.log_release(seq);
}

void InvariantAuditor::on_replica_ack(int replica, std::uint64_t epoch) {
  quorum_.replica_ack(replica, epoch);
}

void InvariantAuditor::on_replica_log_ack(int replica, std::uint64_t seq) {
  quorum_.replica_log_ack(replica, seq);
}

// ---------------------------------------------------------------------------
// Backup agent

void InvariantAuditor::on_ack_sent(std::uint64_t epoch,
                                   std::uint64_t last_barrier) {
  epoch_.ack_sent(epoch, last_barrier);
}

void InvariantAuditor::on_commit_begin(std::uint64_t epoch) {
  epoch_.commit_begin(epoch);
}

void InvariantAuditor::on_commit(const core::EpochStateMsg& msg) {
  store_.check(cluster_->backup_agent->page_store(), msg.image);
  epoch_.committed(msg.epoch);
  if (replay_mode_) replay_.committed(msg.nd_entries, msg.nd_fp);
  if (level_ == core::AuditLevel::kContinuous) {
    // The fold copied shared handles; any mutation since harvest would
    // show here and in the budgeted re-fingerprint.
    freeze_.verify_budget(kVerifyBudget);
  }
}

void InvariantAuditor::on_recovery_started(std::uint64_t committed_epoch) {
  epoch_.recovery_started(committed_epoch);
}

void InvariantAuditor::on_recovered(std::uint64_t committed_epoch) {
  epoch_.recovered(committed_epoch);
  restore_equiv_checks_ += restore_equivalence_walk(
      cluster_->backup_agent->page_store(), *cluster_->backup_kernel, cid_,
      digest_);
  storage_.cache(cluster_->backup_kernel->fs());
  if (level_ == core::AuditLevel::kContinuous) freeze_.verify_all();
}

void InvariantAuditor::on_resilver_adopted(std::uint64_t committed_epoch) {
  epoch_.resilver_adopted(committed_epoch);
}

void InvariantAuditor::on_log_ingested(const core::LogSegmentMsg& seg,
                                       bool accepted) {
  replay_.log_ingested(seg, accepted);
}

void InvariantAuditor::on_replayed(std::uint64_t final_fp,
                                   std::uint64_t entries_replayed) {
  replay_.replayed(final_fp, entries_replayed);
}

// ---------------------------------------------------------------------------
// DRBD (backup disk buffer)

void InvariantAuditor::on_drbd_epoch_applied(std::uint64_t epoch,
                                             std::uint64_t /*writes*/) {
  epoch_.drbd_applied(epoch);
}

void InvariantAuditor::on_drbd_discard(std::uint64_t /*writes*/) {
  epoch_.drbd_discarded();
}

void InvariantAuditor::on_drbd_write_shipped(const blk::DiskWrite& w) {
  // The primary disk, every replica's buffer and, after commit, every
  // backup disk share this payload; the writer's cache must copy before
  // its next write to the page.
  if (level_ == core::AuditLevel::kContinuous) freeze_.pin(w.data);
}

// ---------------------------------------------------------------------------

void InvariantAuditor::sweep() {
  ++sweeps_;
  NLC_CHECK_MSG(occ_.mirrored_packets() == plug_->pending_packets(),
                "audit: plug buffer diverged from the output-commit mirror");
  freeze_.verify_budget(kVerifyBudget);
}

void InvariantAuditor::pin_image_payloads(const criu::CheckpointImage& img) {
  for (const criu::PageRecord& rec : img.pages) freeze_.pin(rec.content);
  for (const kern::DncPageEntry& pe : img.fs_cache.pages) freeze_.pin(pe.data);
}

}  // namespace nlc::check
