// nlc_perfbench — end-to-end + per-layer benchmark driver (README.md).
//
//   nlc_perfbench --workload redis-epoch --seed 1 --seconds 20 --trace 0
//   nlc_perfbench --selfcheck
//
// Each workload is assembled from the public layer APIs (core::Cluster,
// apps::ServerApp, clients::ClosedLoopClient, kern::AddressSpace,
// Cluster::protect, sim::Simulation::run_until) in exactly the order
// harness::run_experiment uses, so a run executes the same simulated event
// stream as the harness for the same config and seed (--selfcheck proves
// it). What the harness cannot give is host time per phase: this driver
// regains control at every phase boundary and times its own calls into the
// simulator from outside — set-up (by component), the steady window (in
// fixed simulated slices), the failover, the drain and the teardown.
//
// Output: one `RESULT {...}` JSON line with the run manifest, the output
// checks and the metrics. `--trace 0` reports the end-to-end metrics (no
// flight recorder); `--trace 1` re-runs the workload with the recorder on
// and reports the per-layer metrics. perfbench/run.py turns the line into
// the benchmark's result.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/catalog.hpp"
#include "apps/kv.hpp"
#include "apps/server_app.hpp"
#include "check/audit.hpp"
#include "clients/closed_loop.hpp"
#include "core/cluster.hpp"
#include "harness/experiment.hpp"
#include "kernel/address_space.hpp"
#include "trace/critical_path.hpp"
#include "trace/recorder.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;
using namespace nlc::literals;
using util::wall_now_ns;
using util::wall_seconds_since;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Set-ups per run (odd, so the median is one of them); setup_s is their
/// median, so work moved into set-up shows even when one is disturbed.
constexpr int kSetups = 5;

struct Workload {
  std::string name;
  harness::RunConfig cfg;  // seed and measure are filled per run
  /// Host-timing slice of the steady window (simulated). host_s_per_sim_s
  /// is the median over these slices.
  Time slice = 0;
  /// Window sizing: --seconds S measures a window of S * this simulated
  /// seconds (calibrated so the window takes about S host seconds on a
  /// 4-core x86 box). Fixed per workload so the simulated metrics of a
  /// given seed never depend on host speed.
  double sim_s_per_host_s = 0;
  /// Flight-recorder events per simulated second (sizes the trace rings of
  /// the traced run so nothing is dropped).
  double trace_events_per_sim_s = 0;
};

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  harness::RunConfig& c = w.cfg;
  c.mode = harness::Mode::kNiLiCon;
  if (name == "redis-epoch") {
    // §VI YCSB-style redis at saturation (3 connections x pipeline 14),
    // the paper's NiLiCon configuration: epoch commit, fixed 30 ms epochs.
    c.spec = apps::redis_spec();
    c.client_connections = 3;
    c.client_pipeline = 14;
    c.warmup = 1_s;
    w.slice = 1_s;
    w.sim_s_per_host_s = 12.0;
    w.trace_events_per_sim_s = 600;
  } else if (name == "node-replay") {
    // HyCoR-style replay commit with adaptive epochs, 128 connections.
    // The controller converges to 2 s epochs by epoch 9 (≈4 s simulated);
    // the warm-up covers that so the window is steady state.
    c.spec = apps::node_spec();
    c.client_connections = 128;
    c.nilicon.commit_mode = core::CommitMode::kReplay;
    c.nilicon.epoch_policy = core::EpochPolicy::kAdaptive;
    c.warmup = 8_s;
    w.slice = 4_s;
    w.sim_s_per_host_s = 60.0;
    w.trace_events_per_sim_s = 7'000;
  } else if (name == "ssdb-failover-n3") {
    // ssdb with full persistence, 100 MB uploaded before protection
    // (§VII-B), KV-validating clients, N = 3 star with K = 2, and a primary
    // crash at the harness's seeded point of the window.
    c.spec = apps::ssdb_spec();
    c.kv_validation = true;
    c.prefill_kv_pages = 25'600;
    c.nilicon.replicas = 3;
    c.nilicon.quorum_k = 2;
    c.nilicon.topology = topo::Topology::kStar;
    c.inject_fault = true;
    c.fault_kind = harness::FaultKind::kPrimary;
    c.warmup = 1_s;
    w.slice = 4_s;
    w.sim_s_per_host_s = 47.0;
    w.trace_events_per_sim_s = 600;
  } else {
    return std::nullopt;
  }
  return w;
}

const char* const kWorkloadNames[] = {"redis-epoch", "node-replay",
                                      "ssdb-failover-n3"};

/// The traced run measures a quarter of the untraced window: its
/// per-layer numbers are rates and per-epoch figures, and the shorter
/// window keeps the flight recorder's rings (40 B per event) small.
constexpr double kTracedWindowShare = 0.25;

/// Window length for --seconds: a whole number of slices.
Time window_for(const Workload& w, double seconds, bool traced) {
  double sim_s = seconds * w.sim_s_per_host_s *
                 (traced ? kTracedWindowShare : 1.0);
  auto slices = static_cast<Time>(
      std::max(1.0, std::round(sim_s / to_seconds(w.slice))));
  return slices * w.slice;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  NLC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The values `s` recorded between its `from`-th and `to`-th entries
/// (Samples keeps insertion order, so a window is an index range).
Samples tail_of(const Samples& s, std::size_t from, std::size_t to) {
  Samples out;
  const auto& v = s.values();
  to = std::min(to, v.size());
  for (std::size_t i = from; i < to; ++i) out.add(v[i]);
  return out;
}

double pct(const Samples& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p);
}
double mean(const Samples& s) { return s.empty() ? 0.0 : s.mean(); }

/// Machine-speed reference for the host-time metrics.
///
/// On a shared host the same binary runs 15-25 % faster or slower from one
/// run to the next, and within a run from one slice to the next: thread CPU
/// time tracks wall time exactly, so this is core speed (frequency, SMT and
/// cache neighbours), not preemption. The reference is a fixed kernel that
/// owes nothing to the program — hash-map probes over a 4 MB table, binary
/// heap pushes/pops, small allocations, 4 KiB copies, a pointer chase over
/// 16 MB — run right before and right after every timed slice. A slice's
/// wall time divided by its reference time cancels the speed the machine
/// had during that slice; kNominalSeconds scales the ratio back to seconds.
class SpeedReference {
 public:
  /// Reference time (before + after one slice) on the 4-core x86 host the
  /// benchmark was calibrated on: normalized host seconds read as wall
  /// seconds on that host at its median speed.
  static constexpr double kNominalSeconds = 0.0114;

  SpeedReference() {
    Rng rng(0x5EED);
    table_.reserve(kKeys);
    keys_.reserve(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) table_[rng.next()] = i;
    for (const auto& [k, v] : table_) keys_.push_back(k);
    std::sort(keys_.begin(), keys_.end());
    // Sattolo's shuffle: one random cycle through all kChase slots.
    chase_.resize(kChase);
    for (std::uint32_t i = 0; i < kChase; ++i) chase_[i] = i;
    for (std::uint32_t i = kChase - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[rng.next() % i]);
    }
    src_.assign(1 << 16, std::byte{1});
    dst_.assign(1 << 16, std::byte{0});
  }

  /// Wall seconds of one pass over every kernel.
  double run() {
    std::uint64_t t0 = wall_now_ns();
    std::uint64_t acc = 0;
    Rng rng(0xC0FFEE);
    for (int i = 0; i < 12'000; ++i) {
      acc += table_.find(keys_[rng.next() % keys_.size()])->second;
    }
    std::vector<std::uint64_t> heap;
    for (int i = 0; i < 20'000; ++i) {
      heap.push_back(rng.next());
      std::push_heap(heap.begin(), heap.end());
      if (heap.size() > 2048) {
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
      }
    }
    acc += heap.front();
    for (int i = 0; i < 30'000; ++i) {
      auto v = std::make_unique<std::array<std::uint64_t, 24>>();
      (*v)[static_cast<std::size_t>(i % 24)] = acc;
      acc += (*v)[0];
    }
    for (int i = 0; i < 40; ++i) {
      std::memcpy(dst_.data(), src_.data(), src_.size());
      acc += static_cast<std::uint64_t>(dst_[static_cast<std::size_t>(i)]);
    }
    auto at = static_cast<std::uint32_t>(acc % kChase);
    for (int i = 0; i < 3000; ++i) at = chase_[at];
    sink_ = sink_ + acc + at;
    return wall_seconds_since(t0);
  }

 private:
  static constexpr std::uint64_t kKeys = 1u << 18;
  static constexpr std::uint32_t kChase = 1u << 22;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> chase_;
  std::vector<std::byte> src_, dst_;
  volatile std::uint64_t sink_ = 0;
};

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss would do, except that it survives execve and so starts at
/// the launching process's own peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---------------------------------------------------------------------------
// Trial: one run_experiment server run, driven phase by phase
// ---------------------------------------------------------------------------

/// Host seconds of each set-up component; they sum to the set-up time.
struct SetupTimes {
  double cluster_build = 0;  // Cluster + service container
  double app_setup = 0;      // ServerApp construction + setup
  double prefill = 0;        // KV upload through AddressSpace
  double client_connect = 0; // client construction + handshakes
  double protect = 0;        // agents + initial full sync
  double warmup = 0;         // warm-up to the window open
  std::uint64_t prefill_pages = 0;
  double total() const {
    return cluster_build + app_setup + prefill + client_connect + protect +
           warmup;
  }
  void scale(double f) {
    for (double* t : {&cluster_build, &app_setup, &prefill, &client_connect,
                      &protect, &warmup}) {
      *t *= f;
    }
  }
};

/// Simulated counters read between slices.
struct Snapshot {
  Time now = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t epochs = 0;
  std::uint64_t state_bytes = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t log_segments = 0;
  std::uint64_t log_entries = 0;
  std::uint64_t fanout_bytes = 0;
  core::ShardStageNanos stage{};
  std::size_t n_stop = 0, n_dirty = 0, n_quorum = 0;
};

/// The observables run_experiment returns for a server run, gathered the
/// same way; --selfcheck compares them field by field.
struct Observables {
  std::uint64_t requests_completed = 0;
  double throughput_rps = 0;
  std::vector<double> latencies_window_ms;
  std::uint64_t epochs = 0, bytes_shipped = 0, log_bytes = 0;
  std::uint64_t log_segments = 0, log_entries = 0, fanout_bytes = 0;
  std::uint64_t wire_bytes_window = 0, epochs_window = 0;
  bool fault_injected = false, recovered = false;
  int promoted_replica = -1;
  Time detection_latency = 0, restore_time = 0, resilver_time = 0;
  std::uint64_t resilver_bytes = 0, pages_restored = 0;
  std::uint64_t requests_after_fault = 0;
  Time interruption = 0;
  std::uint64_t kv_errors = 0, broken_connections = 0;
  std::uint64_t sim_events = 0;

  static Observables from(const harness::RunResult& r) {
    Observables o;
    o.requests_completed = r.requests_completed;
    o.throughput_rps = r.throughput_rps;
    o.latencies_window_ms = r.latencies_window_ms.values();
    o.epochs = r.metrics.epochs_completed;
    o.bytes_shipped = r.metrics.bytes_shipped;
    o.log_bytes = r.metrics.log_bytes_shipped;
    o.log_segments = r.metrics.log_segments_shipped;
    o.log_entries = r.metrics.log_entries_recorded;
    o.fanout_bytes = r.metrics.wire_bytes_fanout;
    o.wire_bytes_window = r.wire_bytes_window;
    o.epochs_window = r.epochs_window;
    o.fault_injected = r.fault_injected;
    o.recovered = r.recovered;
    o.promoted_replica = r.recovery.promoted_replica;
    o.detection_latency = r.recovery.detection_latency;
    o.restore_time = r.recovery.restore_time;
    o.resilver_time = r.recovery.resilver_time;
    o.resilver_bytes = r.recovery.resilver_bytes;
    o.pages_restored = r.recovery.pages_restored;
    o.requests_after_fault = r.requests_after_fault;
    o.interruption = r.interruption;
    o.kv_errors = r.kv_errors;
    o.broken_connections = r.broken_connections;
    o.sim_events = r.sim_events;
    return o;
  }

  /// Name of the first field that differs, or empty.
  std::string diff(const Observables& b) const {
#define NLC_PB_CMP(f) \
  if (!(f == b.f)) return #f
    NLC_PB_CMP(requests_completed);
    NLC_PB_CMP(throughput_rps);
    NLC_PB_CMP(latencies_window_ms);
    NLC_PB_CMP(epochs);
    NLC_PB_CMP(bytes_shipped);
    NLC_PB_CMP(log_bytes);
    NLC_PB_CMP(log_segments);
    NLC_PB_CMP(log_entries);
    NLC_PB_CMP(fanout_bytes);
    NLC_PB_CMP(wire_bytes_window);
    NLC_PB_CMP(epochs_window);
    NLC_PB_CMP(fault_injected);
    NLC_PB_CMP(recovered);
    NLC_PB_CMP(promoted_replica);
    NLC_PB_CMP(detection_latency);
    NLC_PB_CMP(restore_time);
    NLC_PB_CMP(resilver_time);
    NLC_PB_CMP(resilver_bytes);
    NLC_PB_CMP(pages_restored);
    NLC_PB_CMP(requests_after_fault);
    NLC_PB_CMP(interruption);
    NLC_PB_CMP(kv_errors);
    NLC_PB_CMP(broken_connections);
    NLC_PB_CMP(sim_events);
#undef NLC_PB_CMP
    return {};
  }
};

/// Mirrors the interactive NiLiCon path of harness::run_experiment
/// statement for statement (same construction order, same orchestrator
/// awaits, same seeded fault-time draw). The only additions are
/// Simulation::stop() calls at phase boundaries, which return control to
/// the driver without adding or reordering events, and wall-clock stamps
/// in the driver's own callbacks.
class Trial {
 public:
  enum class Phase { kBuilt, kProtected, kConnected, kWindow, kDone };
  /// Where the KV upload puts its content records (see prefill_kv).
  enum class Upload { kHarness, kClear };

  Trial(const harness::RunConfig& cfg, std::size_t trace_ring,
        Upload upload = Upload::kClear)
      : cfg_(cfg), upload_(upload), rng_(cfg.seed) {
    // Primary crashes are the only fault kind the workloads inject.
    NLC_CHECK(!cfg_.inject_fault ||
              cfg_.fault_kind == harness::FaultKind::kPrimary);
    std::uint64_t t0 = wall_now_ns();
    core::ClusterConfig ccfg;
    ccfg.replicas = cfg_.nilicon.replicas;
    ccfg.topology = cfg_.nilicon.topology;
    cl_ = std::make_unique<core::Cluster>(ccfg);
    if (cfg_.nilicon.trace_level != core::TraceLevel::kOff) {
      // protect() adopts a pre-set recorder; size its rings for the run.
      cl_->tracer = std::make_shared<trace::Recorder>(trace_ring);
    }
    cid_ = cl_->create_service_container(cfg_.spec.name).id();
    if (cfg_.nilicon.audit_level != core::AuditLevel::kOff) {
      cl_->on_agents_created = [this] {
        auditor_ = std::make_unique<check::InvariantAuditor>(*cl_, cid_,
                                                             cfg_.nilicon);
        auditor_->attach();
      };
    }
    times_.cluster_build = wall_seconds_since(t0);

    t0 = wall_now_ns();
    apps::AppEnv primary_env{&cl_->sim, cl_->primary_kernel.get(),
                             &cl_->primary_tcp, core::kServiceIp,
                             cfg_.seed ^ 0xA11};
    server_ = std::make_unique<apps::ServerApp>(primary_env, cfg_.spec);
    server_->setup(cid_);
    times_.app_setup = wall_seconds_since(t0);

    if (cfg_.prefill_kv_pages > 0) {
      t0 = wall_now_ns();
      times_.prefill_pages = prefill_kv(cfg_.prefill_kv_pages,
                                        cfg_.seed ^ 0xF111);
      times_.prefill = wall_seconds_since(t0);
    }

    t0 = wall_now_ns();
    clients::ClientConfig cc;
    cc.local_ip = core::kClientIp;
    cc.server_ip = core::kServiceIp;
    cc.port = cfg_.spec.port;
    cc.connections =
        cfg_.client_connections.value_or(cfg_.spec.saturation_clients);
    cc.request_bytes = cfg_.spec.request_bytes;
    cc.pipeline = cfg_.client_pipeline.value_or(cfg_.spec.client_pipeline);
    cc.kv_mode = cfg_.kv_validation;
    if (cc.kv_mode && cfg_.spec.kv_pages > 0) {
      std::uint64_t per_conn =
          cfg_.spec.kv_pages / static_cast<std::uint64_t>(cc.connections);
      cc.keys_per_connection = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cc.keys_per_connection,
                                  std::max<std::uint64_t>(per_conn, 1)));
    }
    if (upload_ == Upload::kClear && cc.kv_mode &&
        cfg_.prefill_kv_pages > 0) {
      NLC_CHECK_MSG(static_cast<std::uint64_t>(cc.connections) *
                            cc.keys_per_connection + 128 <=
                        cfg_.spec.kv_pages,
                    "client keys overlap the uploaded content records");
    }
    client_ = std::make_unique<clients::ClosedLoopClient>(
        cl_->sim, cl_->client_domain, cl_->client_tcp, cc,
        cfg_.seed ^ 0xC11E);
    times_.client_connect = wall_seconds_since(t0);
  }

  ~Trial() {
    // Destruction order of run_experiment's locals: client, app state
    // (kept alive by the agents' restore hooks), server, auditor, cluster.
    client_.reset();
    state_.reset();
    server_.reset();
    auditor_.reset();
    cl_.reset();
  }
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  /// Runs the simulation from construction to the window open, timing the
  /// protect, connect and warm-up phases.
  const SetupTimes& setup() {
    std::uint64_t t0 = wall_now_ns();
    cl_->sim.spawn(orchestrator());
    advance_to(Phase::kProtected);
    times_.protect = wall_seconds_since(t0);
    t0 = wall_now_ns();
    advance_to(Phase::kConnected);
    times_.client_connect += wall_seconds_since(t0);
    t0 = wall_now_ns();
    advance_to(Phase::kWindow);
    times_.warmup = wall_seconds_since(t0);
    return times_;
  }

  /// Runs to the end of the drain (the orchestrator's final stop()).
  void finish() {
    advance_to(Phase::kDone);
    if (auditor_ != nullptr) auditor_->final_audit();
  }

  Snapshot snapshot() const {
    const core::ReplicationMetrics& m = cl_->metrics;
    Snapshot s;
    s.now = cl_->sim.now();
    s.events = cl_->sim.events_processed();
    s.completed = client_->completed();
    s.epochs = m.epochs_completed;
    s.state_bytes = m.bytes_shipped;
    s.log_bytes = m.log_bytes_shipped;
    s.log_segments = m.log_segments_shipped;
    s.log_entries = m.log_entries_recorded;
    s.fanout_bytes = m.wire_bytes_fanout;
    s.stage = m.shard_stage_ns;
    s.n_stop = m.stop_time_ms.count();
    s.n_dirty = m.dirty_pages.count();
    s.n_quorum = m.quorum_wait_ms.count();
    return s;
  }

  /// run_experiment's RunResult fields for this run (after finish()).
  Observables observables() const {
    Observables o;
    const core::ReplicationMetrics& m = cl_->metrics;
    o.requests_completed = client_->completed() - win_.completed_at_start;
    o.throughput_rps = client_->throughput(win_.start, win_.end);
    for (const auto& [sent, lat] : client_->latency_trace()) {
      if (sent >= win_.start && sent < win_.end) {
        o.latencies_window_ms.push_back(to_millis(lat));
      }
    }
    o.epochs = m.epochs_completed;
    o.bytes_shipped = m.bytes_shipped;
    o.log_bytes = m.log_bytes_shipped;
    o.log_segments = m.log_segments_shipped;
    o.log_entries = m.log_entries_recorded;
    o.fanout_bytes = m.wire_bytes_fanout;
    o.wire_bytes_window = m.bytes_shipped - win_.wire_at_start;
    o.epochs_window = m.epochs_completed - win_.epochs_at_start;
    o.kv_errors = client_->kv_errors();
    o.broken_connections = client_->broken_connections();
    if (cfg_.inject_fault) {
      o.fault_injected = win_.fault_time > 0;
      const core::BackupAgent* s = survivor();
      o.recovered = s != nullptr;
      const core::RecoveryMetrics& r =
          s != nullptr ? s->recovery_metrics()
                       : cl_->backup_agent->recovery_metrics();
      o.promoted_replica = r.promoted_replica;
      o.detection_latency = r.detection_latency;
      o.restore_time = r.restore_time;
      o.resilver_time = r.resilver_time;
      o.resilver_bytes = r.resilver_bytes;
      o.pages_restored = r.pages_restored;
      o.requests_after_fault =
          client_->completed() - win_.completed_at_fault;
      o.interruption = interruption();
    }
    o.sim_events = cl_->sim.events_processed();
    return o;
  }

  /// Max post-fault latency minus the pre-fault median (harness rule).
  Time interruption() const {
    Samples pre;
    Time max_post = 0;
    for (const auto& [sent, lat] : client_->latency_trace()) {
      if (sent + lat < win_.fault_time) {
        pre.add(static_cast<double>(lat));
      } else {
        max_post = std::max(max_post, lat);
      }
    }
    if (pre.empty() || max_post == 0) return 0;
    return max_post - static_cast<Time>(pre.percentile(50));
  }

  /// The replica that took over (the last recovered one, as the harness
  /// picks it), or null.
  const core::BackupAgent* survivor() const {
    const core::BackupAgent* s = nullptr;
    if (cl_->backup_agent == nullptr) return nullptr;
    for (int i = 0; i < cl_->replica_count(); ++i) {
      if (cl_->backup(i).recovered()) s = &cl_->backup(i);
    }
    return s;
  }

  core::Cluster& cluster() { return *cl_; }
  const clients::ClosedLoopClient& client() const { return *client_; }
  kern::ContainerId cid() const { return cid_; }
  Time window_start() const { return win_.start; }
  Time window_end() const { return win_.end; }
  Time fault_time() const { return win_.fault_at; }
  std::uint64_t fault_wall_ns() const { return fault_wall_ns_; }
  std::uint64_t restored_wall_ns() const { return restored_wall_ns_; }
  std::uint64_t protocol_errors() const { return client_->protocol_errors(); }
  const check::InvariantAuditor* auditor() const { return auditor_.get(); }

 private:
  struct RestoredState {
    std::unique_ptr<apps::ServerApp> app;
  };
  struct Window {
    Time start = 0, end = 0;
    std::uint64_t completed_at_start = 0;
    std::uint64_t wire_at_start = 0, epochs_at_start = 0;
    Time fault_at = -1;  // scheduled fault time (known at window open)
    Time fault_time = -1;
    std::uint64_t completed_at_fault = 0;
  };

  void advance_to(Phase p) {
    while (phase_ < p) {
      Phase before = phase_;
      cl_->sim.run();
      NLC_CHECK_MSG(phase_ != before, "simulation drained before phase end");
    }
  }

  /// The 100 MB KV upload through AddressSpace: `pages` records, of which
  /// a 128-record slice carries real content bytes and the rest are
  /// accounting pages (harness::prefill_kv's split, same Rng stream).
  /// kHarness writes the content slice to KV pages [0, 128) exactly as
  /// harness::prefill_kv does; kClear writes it to the top 128 pages of the
  /// region, outside every validating client's key range (keys start at 0),
  /// so the clients' "never set, must be absent" expectations hold.
  /// Returns the number of pages uploaded.
  std::uint64_t prefill_kv(std::uint64_t pages, std::uint64_t seed) {
    NLC_CHECK(cl_->primary_kernel->container(server_->container()) !=
              nullptr);
    for (kern::Process* p :
         cl_->primary_kernel->container_processes(server_->container())) {
      for (const kern::Vma& v : p->mm().vmas()) {
        if (v.backing_file != apps::kKvLabel) continue;
        std::uint64_t n = std::min<std::uint64_t>(pages, v.npages);
        Rng rng(seed);
        constexpr std::uint64_t kContentSlice = 128;
        const bool clear = upload_ == Upload::kClear && n > kContentSlice;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (i < kContentSlice) {
            std::uint16_t len = 900;
            std::uint64_t s = rng.next();
            std::vector<std::byte> cell(16 + len);
            std::memcpy(cell.data(), &len, 2);
            std::memcpy(cell.data() + 2, &s, 8);
            cell[10] = std::byte{1};
            auto value = apps::kv_value_bytes(s, len);
            std::copy(value.begin(), value.end(), cell.begin() + 16);
            std::uint64_t at = clear ? v.npages - kContentSlice + i : i;
            p->mm().write(v.start + at, 0, cell);
          } else {
            p->mm().touch(v.start + (clear ? i - kContentSlice : i));
          }
        }
        return n;
      }
    }
    return 0;
  }

  void mark(Phase p) {
    phase_ = p;
    cl_->sim.stop();
  }

  sim::task<> orchestrator() {
    core::Cluster& cl = *cl_;
    co_await cl.protect(cid_, cfg_.nilicon);
    for (int i = 0; i < cl.replica_count(); ++i) {
      apps::AppEnv renv{&cl.sim, &cl.backup_kernel_of(i),
                        &cl.backup_tcp_of(i), core::kServiceIp,
                        cfg_.seed ^ 0xB22};
      cl.backup(i).set_on_restored(
          [this, state = state_, renv](const core::FailoverContext& ctx) {
            restored_wall_ns_ = wall_now_ns();
            state->app =
                apps::ServerApp::attach_restored(renv, cfg_.spec, ctx);
            state->app->set_dilation(1.0);
          });
    }
    server_->set_dilation(cfg_.spec.dilation_nilicon);
    mark(Phase::kProtected);

    client_->start();
    co_await client_->wait_connected();
    mark(Phase::kConnected);
    co_await cl.sim.sleep_for(cfg_.warmup);

    win_.start = cl.sim.now();
    win_.end = win_.start + cfg_.measure;
    win_.completed_at_start = client_->completed();
    win_.wire_at_start = cl.metrics.bytes_shipped;
    win_.epochs_at_start = cl.metrics.epochs_completed;
    if (cfg_.inject_fault) {
      double frac = 0.1 + 0.8 * rng_.uniform01();
      Time when = win_.start + static_cast<Time>(
                                   frac * static_cast<double>(cfg_.measure));
      win_.fault_at = when;
      cl.sim.call_after(when - cl.sim.now(), [this] {
        fault_wall_ns_ = wall_now_ns();
        win_.fault_time = cl_->sim.now();
        win_.completed_at_fault = client_->completed();
        cl_->fail_primary();
      });
    }
    mark(Phase::kWindow);
    co_await cl.sim.sleep_for(cfg_.measure);
    win_.end = cl.sim.now();
    client_->stop();
    co_await cl.sim.sleep_for(2_s);
    if (cl.primary_agent) cl.primary_agent->stop();
    if (cl.backup_agent) {
      for (int i = 0; i < cl.replica_count(); ++i) cl.backup(i).disarm();
    }
    phase_ = Phase::kDone;
    cl.sim.stop();
  }

  harness::RunConfig cfg_;
  Upload upload_;
  // Member order = run_experiment's local order (destroyed in reverse by
  // the destructor above).
  std::unique_ptr<core::Cluster> cl_;
  Rng rng_;
  std::unique_ptr<check::InvariantAuditor> auditor_;
  kern::ContainerId cid_{};
  std::unique_ptr<apps::ServerApp> server_;
  std::shared_ptr<RestoredState> state_ = std::make_shared<RestoredState>();
  std::unique_ptr<clients::ClosedLoopClient> client_;
  Window win_;
  Phase phase_ = Phase::kBuilt;
  SetupTimes times_;
  std::uint64_t fault_wall_ns_ = 0;
  std::uint64_t restored_wall_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Kernel micro-timing on a standalone AddressSpace (traced run)
// ---------------------------------------------------------------------------

struct KernelTiming {
  double touch_ns = 0;
  double write_ns = 0;
  std::uint64_t touches = 0, writes = 0;
};

/// Replays the app's per-request page mix — pages_per_request heap touches
/// plus kv_writes_per_request KV touches (load mode) or 16-op content
/// writes (KV-validation mode) — against a fresh AddressSpace carrying the
/// workload's VMA layout and resident set, re-arming soft-dirty tracking
/// every `per_epoch` requests as the epoch loop does.
KernelTiming time_kernel(const std::vector<kern::Vma>& layout,
                         const std::vector<kern::PageNum>& resident,
                         const apps::AppSpec& spec, bool kv_mode,
                         std::uint64_t requests, std::uint64_t per_epoch,
                         std::uint64_t seed) {
  kern::AddressSpace as;
  const kern::Vma* heap = nullptr;
  const kern::Vma* kv = nullptr;
  for (const kern::Vma& v : layout) {
    as.install_vma(v);
    if (v.backing_file == apps::kHeapLabel && heap == nullptr) heap = &v;
    if (v.backing_file == apps::kKvLabel) kv = &v;
  }
  NLC_CHECK_MSG(heap != nullptr, "workload layout has no heap VMA");
  for (kern::PageNum p : resident) as.touch(p);
  as.clear_soft_dirty();

  Rng rng(seed);
  const kern::Vma& wv = kv != nullptr ? *kv : *heap;
  std::vector<std::byte> cell(16 + 900, std::byte{0x5A});
  // KV validation: 16 ops per request, half of them sets. Load-mode apps
  // write no content; one write per request still times the write path.
  std::uint64_t writes_per_request = kv_mode ? 8 : 1;
  KernelTiming kt;
  std::uint64_t touch_ns = 0, write_ns = 0;
  std::vector<kern::PageNum> pages;
  for (std::uint64_t r = 0; r < requests; ++r) {
    if (r % per_epoch == 0) as.clear_soft_dirty();
    pages.clear();
    for (std::uint64_t i = 0; i < spec.pages_per_request; ++i) {
      pages.push_back(heap->start + static_cast<std::uint64_t>(rng.uniform(
                                        0, static_cast<std::int64_t>(
                                               heap->npages) - 1)));
    }
    if (kv != nullptr && !kv_mode) {
      for (std::uint64_t i = 0; i < spec.kv_writes_per_request; ++i) {
        pages.push_back(kv->start + static_cast<std::uint64_t>(rng.uniform(
                                        0, static_cast<std::int64_t>(
                                               kv->npages) - 1)));
      }
    }
    std::uint64_t t0 = wall_now_ns();
    for (kern::PageNum p : pages) as.touch(p);
    touch_ns += wall_now_ns() - t0;
    kt.touches += pages.size();
    for (std::uint64_t i = 0; i < writes_per_request; ++i) {
      kern::PageNum p = wv.start + static_cast<std::uint64_t>(rng.uniform(
                                       0, static_cast<std::int64_t>(
                                              wv.npages) - 1));
      t0 = wall_now_ns();
      as.write(p, 0, cell);
      write_ns += wall_now_ns() - t0;
      ++kt.writes;
    }
  }
  kt.touch_ns = kt.touches > 0 ? static_cast<double>(touch_ns) /
                                     static_cast<double>(kt.touches)
                               : 0.0;
  kt.write_ns = kt.writes > 0 ? static_cast<double>(write_ns) /
                                    static_cast<double>(kt.writes)
                              : 0.0;
  return kt;
}

// ---------------------------------------------------------------------------
// Trace reduction (traced run)
// ---------------------------------------------------------------------------

struct TraceFacts {
  std::uint64_t plug_releases = 0, released_packets = 0;
  std::uint64_t socket_repairs = 0, retransmits = 0;
  std::uint64_t drbd_commits = 0, drbd_buffered_peak = 0, drbd_discarded = 0;
  Samples barrier_wait_ms;
  double materialize_host_ms = 0;
  double cp_freeze_ms = 0, cp_harvest_ms = 0, cp_ship_ms = 0,
         cp_ack_wait_ms = 0;
  std::uint64_t cp_epochs = 0;
  Samples log_commit_ms;
};

/// Window-scoped counts from the flight recorder: instants and spans whose
/// simulated stamp lies in [from, to); failover events (socket repair,
/// retransmit, DRBD discard, materialize) are counted over the whole run.
TraceFacts reduce_trace(const std::vector<trace::Event>& ev, Time from,
                        Time to) {
  using trace::EventType;
  using trace::Stage;
  TraceFacts f;
  auto in = [&](const trace::Event& e) {
    return e.sim_ns >= from && e.sim_ns < to;
  };
  std::map<std::pair<int, int>, const trace::Event*> open;  // track, stage
  std::vector<std::uint64_t> window_epochs, window_segments;
  for (const trace::Event& e : ev) {
    auto key = std::make_pair(static_cast<int>(e.track),
                              static_cast<int>(e.stage));
    if (e.type == EventType::kSpanBegin) {
      open[key] = &e;
      if (e.stage == Stage::kPause && in(e)) window_epochs.push_back(e.arg);
      if (e.stage == Stage::kLogShip && in(e)) {
        window_segments.push_back(e.arg);
      }
      continue;
    }
    if (e.type == EventType::kSpanEnd) {
      auto it = open.find(key);
      if (it == open.end()) continue;
      const trace::Event& b = *it->second;
      open.erase(it);
      if (e.stage == Stage::kBarrierWait && in(b)) {
        f.barrier_wait_ms.add(to_millis(e.sim_ns - b.sim_ns));
      }
      if (e.stage == Stage::kMaterialize) {
        f.materialize_host_ms +=
            static_cast<double>(e.wall_ns - b.wall_ns) / 1e6;
      }
      continue;
    }
    switch (e.stage) {
      case Stage::kPlugRelease:
        if (in(e)) {
          ++f.plug_releases;
          f.released_packets += e.arg;
        }
        break;
      case Stage::kSocketRepair: ++f.socket_repairs; break;
      case Stage::kRetransmit: ++f.retransmits; break;
      case Stage::kDrbdCommit:
        if (in(e)) ++f.drbd_commits;
        break;
      case Stage::kDrbdBufferedWrites:
        if (in(e)) f.drbd_buffered_peak = std::max(f.drbd_buffered_peak, e.arg);
        break;
      case Stage::kDrbdDiscard: f.drbd_discarded += e.arg; break;
      default: break;
    }
  }
  trace::CriticalPath cp(ev);
  double n = 0;
  for (std::uint64_t epoch : window_epochs) {
    const trace::EpochAttribution* a = cp.find(epoch);
    if (a == nullptr) continue;
    f.cp_freeze_ms += to_millis(a->stage_ns[trace::kPsFreeze]);
    f.cp_harvest_ms += to_millis(a->stage_ns[trace::kPsHarvest]);
    f.cp_ship_ms += to_millis(a->stage_ns[trace::kPsShip]);
    f.cp_ack_wait_ms += to_millis(a->stage_ns[trace::kPsAckWait]);
    ++f.cp_epochs;
    n += 1;
  }
  if (n > 0) {
    f.cp_freeze_ms /= n;
    f.cp_harvest_ms /= n;
    f.cp_ship_ms /= n;
    f.cp_ack_wait_ms /= n;
  }
  std::sort(window_segments.begin(), window_segments.end());
  for (const trace::LogSegmentAttribution& s : cp.log_segments()) {
    if (std::binary_search(window_segments.begin(), window_segments.end(),
                           s.seq)) {
      f.log_commit_ms.add(to_millis(s.total_ns));
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// One benchmark run
// ---------------------------------------------------------------------------

/// Ordered name -> value map rendered as JSON.
class JsonObj {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    put(k, buf);
  }
  void integer(const std::string& k, std::uint64_t v) {
    put(k, std::to_string(v));
  }
  void boolean(const std::string& k, bool v) { put(k, v ? "true" : "false"); }
  void str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    put(k, q + "\"");
  }
  void obj(const std::string& k, const JsonObj& o) { put(k, o.render()); }
  std::string render() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += ",";
      s += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    return s + "}";
  }

 private:
  void put(const std::string& k, std::string v) {
    fields_.emplace_back(k, std::move(v));
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

JsonObj manifest(const Workload& w, const harness::RunConfig& cfg,
                 const RunArgs& a) {
  JsonObj m;
  m.str("workload", w.name);
  m.str("app", cfg.spec.name);
  m.integer("seed", cfg.seed);
  m.str("commit", cfg.nilicon.commit_mode == core::CommitMode::kReplay
                      ? "replay" : "epoch");
  m.str("epoch_policy",
        cfg.nilicon.epoch_policy == core::EpochPolicy::kAdaptive
            ? "adaptive" : "fixed");
  m.num("epoch_ms", to_millis(cfg.nilicon.epoch_length));
  m.integer("replicas", static_cast<std::uint64_t>(cfg.nilicon.replicas));
  m.integer("quorum_k",
            static_cast<std::uint64_t>(cfg.nilicon.resolved_quorum()));
  m.str("topology", topo::topology_name(cfg.nilicon.topology));
  m.integer("connections", static_cast<std::uint64_t>(
                               cfg.client_connections.value_or(
                                   cfg.spec.saturation_clients)));
  m.integer("pipeline", static_cast<std::uint64_t>(
                            cfg.client_pipeline.value_or(
                                cfg.spec.client_pipeline)));
  m.str("load", "closed-loop");
  m.boolean("kv_validation", cfg.kv_validation);
  m.integer("prefill_kv_pages", cfg.prefill_kv_pages);
  m.str("fault", cfg.inject_fault
                     ? harness::fault_kind_name(cfg.fault_kind) : "none");
  m.num("warmup_s", to_seconds(cfg.warmup));
  m.num("window_s", to_seconds(cfg.measure));
  m.num("slice_s", to_seconds(w.slice));
  m.num("seconds_arg", a.seconds);
  m.integer("setups", kSetups);
  m.boolean("traced", a.traced);
  m.integer("page_shards",
            static_cast<std::uint64_t>(cfg.nilicon.resolved_page_shards()));
  m.str("simd_tier", util::simd_tier_name(cfg.nilicon.resolved_simd_tier()));
  m.integer("nproc", std::thread::hardware_concurrency());
  m.str("build_type", NLC_BUILD_TYPE);
  m.str("compiler", NLC_COMPILER);
  return m;
}

int run_benchmark(const RunArgs& a) {
  std::optional<Workload> wl = make_workload(a.workload);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Workload& w = *wl;
  harness::RunConfig cfg = w.cfg;
  cfg.seed = a.seed;
  cfg.measure = window_for(w, a.seconds, a.traced);
  if (a.traced) cfg.nilicon.trace_level = core::TraceLevel::kFull;
  // Ring capacity: the whole run's expected events with 50 % headroom.
  std::size_t ring = std::size_t{1} << 16;
  while (static_cast<double>(ring) <
         1.5 * w.trace_events_per_sim_s *
             to_seconds(cfg.warmup + cfg.measure + 2_s)) {
    ring <<= 1;
  }

  // The speed reference's tables live for the whole process; built first,
  // its resident share is exactly the peak-RSS growth it causes, which the
  // peak_rss_mb metric leaves out.
  double rss_before_ref = peak_rss_mb();
  SpeedReference ref;
  ref.run();  // warm its table into the caches once
  const double ref_rss_mb = peak_rss_mb() - rss_before_ref;

  // ---- Set-up, kSetups times; the last one continues into the window.
  // Each set-up is speed-normalized like a window slice (see
  // SpeedReference), components included, so they still sum to the total.
  std::vector<SetupTimes> setups;
  std::vector<double> raw_setup_s;
  std::vector<double> discard_teardown_s;
  std::unique_ptr<Trial> trial;
  for (int i = 0; i < kSetups; ++i) {
    if (trial != nullptr) {
      std::uint64_t t0 = wall_now_ns();
      trial.reset();
      discard_teardown_s.push_back(wall_seconds_since(t0));
    }
    double r = ref.run();
    trial = std::make_unique<Trial>(cfg, ring);
    SetupTimes t = trial->setup();
    r += ref.run();
    raw_setup_s.push_back(t.total());
    t.scale(SpeedReference::kNominalSeconds / r);
    setups.push_back(t);
  }
  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.total());
  double setup_s = median(totals);
  const SetupTimes* med_setup = &setups.front();
  for (const SetupTimes& s : setups) {
    if (s.total() == setup_s) med_setup = &s;
  }

  // Workload layout for the kernel micro-timing, captured at window open.
  std::vector<kern::Vma> layout;
  std::vector<kern::PageNum> resident;
  std::uint64_t mapped_pages = 0;
  for (kern::Process* p :
       trial->cluster().primary_kernel->container_processes(trial->cid())) {
    for (const kern::Vma& v : p->mm().vmas()) layout.push_back(v);
    for (const auto& [page, st] : p->mm().page_states()) {
      resident.push_back(page);
    }
    mapped_pages += p->mm().mapped_pages();
  }
  std::sort(resident.begin(), resident.end());

  // ---- Steady window in fixed simulated slices.
  core::Cluster& cl = trial->cluster();
  const Time start = trial->window_start();
  const Time end = trial->window_end();
  const Time steady_limit =
      cfg.inject_fault ? trial->fault_time() : end;
  const std::int64_t n_slices = (steady_limit - start) / w.slice;
  if (n_slices < 3) {
    std::fprintf(stderr, "window too short: %lld steady slices (need 3)\n",
                 static_cast<long long>(n_slices));
    return 1;
  }
  Snapshot s0 = trial->snapshot();
  // Per slice: raw wall seconds and the speed-normalized seconds.
  std::vector<double> slice_rate, slice_norm_rate, slice_ref_s;
  double steady_host_s = 0, steady_norm_s = 0;
  for (std::int64_t i = 1; i <= n_slices; ++i) {
    double r = ref.run();
    std::uint64_t t0 = wall_now_ns();
    cl.sim.run_until(start + i * w.slice);
    double dt = wall_seconds_since(t0);
    r += ref.run();
    slice_ref_s.push_back(r);
    double norm = dt * SpeedReference::kNominalSeconds / r;
    steady_host_s += dt;
    steady_norm_s += norm;
    slice_rate.push_back(dt / to_seconds(w.slice));
    slice_norm_rate.push_back(norm / to_seconds(w.slice));
  }
  Snapshot s1 = trial->snapshot();
  const Time steady_end = s1.now;
  // Rest of the window (the failover on fault workloads), then the drain.
  std::uint64_t t_rest = wall_now_ns();
  if (cl.sim.now() < end) cl.sim.run_until(end);
  double rest_host_s = wall_seconds_since(t_rest);
  std::uint64_t t_drain = wall_now_ns();
  trial->finish();
  double drain_host_s = wall_seconds_since(t_drain);

  // ---- Output checks.
  Observables obs = trial->observables();
  const clients::ClosedLoopClient& client = trial->client();
  std::uint64_t protocol_errors = trial->protocol_errors();
  std::uint64_t failed =
      obs.kv_errors + obs.broken_connections + protocol_errors;
  std::uint64_t attempted = client.completed() + failed;
  JsonObj checks;
  bool ok = failed == 0 && obs.requests_completed > 0;
  checks.integer("kv_errors", obs.kv_errors);
  checks.integer("broken_connections", obs.broken_connections);
  checks.integer("protocol_errors", protocol_errors);
  checks.integer("steady_slices", static_cast<std::uint64_t>(n_slices));
  if (cfg.inject_fault) {
    bool failover_ok = obs.fault_injected && obs.recovered &&
                       obs.promoted_replica >= 0 &&
                       obs.requests_after_fault > 0;
    checks.boolean("fault_injected", obs.fault_injected);
    checks.boolean("recovered", obs.recovered);
    checks.integer("promoted_replica",
                   static_cast<std::uint64_t>(obs.promoted_replica + 1));
    checks.integer("requests_after_fault", obs.requests_after_fault);
    ok = ok && failover_ok;
  }

  // ---- Steady-state simulated metrics over [start, steady_end).
  const core::ReplicationMetrics& m = cl.metrics;
  const double span_s = to_seconds(steady_end - start);
  Samples lat;
  for (const auto& [sent, l] : client.latency_trace()) {
    if (sent < start || sent >= steady_end) continue;
    // Requests still in flight at the fault belong to the failover.
    if (cfg.inject_fault && sent + l >= trial->fault_time()) continue;
    lat.add(to_millis(l));
  }
  double p99 = pct(lat, 99);
  std::uint64_t above_p99 = 0;
  for (double v : lat.values()) above_p99 += v > p99 ? 1 : 0;
  checks.integer("latency_samples", lat.count());
  checks.integer("latency_samples_above_p99", above_p99);
  // The p99 latency is an end-to-end metric (untraced run): it needs at
  // least ten samples beyond it.
  if (!a.traced) ok = ok && above_p99 >= 10;
  if (a.traced) {
    // Dropped trace events would undercount the per-layer numbers.
    checks.integer("trace_dropped", cl.tracer->dropped());
    ok = ok && cl.tracer->dropped() == 0;
  }
  checks.boolean("ok", ok);

  const double window_events = static_cast<double>(s1.events - s0.events);
  const double host_rate = median(slice_norm_rate);
  const double epochs = static_cast<double>(s1.epochs - s0.epochs);
  const std::uint64_t fanout = s1.fanout_bytes - s0.fanout_bytes;
  const std::uint64_t one_copy = (s1.state_bytes - s0.state_bytes) +
                                 (s1.log_bytes - s0.log_bytes);

  JsonObj metrics;
  JsonObj detail;  // context numbers that are not benchmark metrics
  if (!a.traced) {
    metrics.num("host_s_per_sim_s", host_rate);
    metrics.num("setup_s", setup_s);
    metrics.num("peak_rss_mb", peak_rss_mb() - ref_rss_mb);
    metrics.num("sim_throughput_rps", client.throughput(start, steady_end));
    // The mean, not the median: node-replay's closed loop runs in lockstep,
    // so its median latency is the same on every seed (128 x 2.7 ms).
    metrics.num("sim_latency_mean_ms", mean(lat));
    metrics.num("sim_latency_p99_ms", p99);
    metrics.num("sim_repl_mb_per_s",
                static_cast<double>(fanout) / 1e6 / span_s);
  }
  detail.num("sim_latency_p50_ms", pct(lat, 50));
  detail.num("speed_reference_rss_mb", ref_rss_mb);
  detail.num("speed_reference_s_median", median(slice_ref_s));
  detail.num("setup_s_raw_median", median(raw_setup_s));
  detail.num("steady_window_s", span_s);
  detail.num("steady_host_s", steady_host_s);
  detail.num("steady_norm_host_s", steady_norm_s);
  {
    std::vector<double> q = slice_norm_rate;
    std::sort(q.begin(), q.end());
    detail.num("slice_norm_rate_q1", q[q.size() / 4]);
    detail.num("slice_norm_rate_q3", q[3 * q.size() / 4]);
  }
  detail.num("host_s_per_sim_s_raw", median(slice_rate));
  detail.num("rest_of_window_host_s", rest_host_s);
  detail.num("drain_host_s", drain_host_s);
  detail.integer("sim_events_total", obs.sim_events);
  detail.integer("requests_window", obs.requests_completed);
  detail.num("throughput_window_rps", obs.throughput_rps);
  if (cfg.inject_fault) {
    detail.num("fault_at_s", to_seconds(trial->fault_time() - start));
  }

  if (a.traced) {
    const core::BackupAgent* surv = trial->survivor();
    core::RecoveryMetrics rec =
        surv != nullptr ? surv->recovery_metrics() : core::RecoveryMetrics{};
    std::vector<trace::Event> ev = cl.tracer->drain();
    TraceFacts tf = reduce_trace(ev, start, steady_end);
    KernelTiming kt = time_kernel(
        layout, resident, cfg.spec, cfg.kv_validation, 4000,
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(obs.requests_completed) /
                   std::max(1.0, static_cast<double>(obs.epochs_window)))),
        cfg.seed ^ 0x7E57);

    auto ms_per_epoch = [&](std::uint64_t ns) {
      return epochs > 0 ? static_cast<double>(ns) / 1e6 / epochs : 0.0;
    };
    metrics.integer("sim.events", s1.events - s0.events);
    metrics.num("sim.host_ns_per_event",
                window_events > 0 ? steady_norm_s * 1e9 / window_events : 0);
    metrics.num("sim.warmup_s", med_setup->warmup);

    metrics.num("kernel.prefill_s", med_setup->prefill);
    metrics.num("kernel.prefill_ns_per_page",
                med_setup->prefill_pages > 0
                    ? med_setup->prefill * 1e9 /
                          static_cast<double>(med_setup->prefill_pages)
                    : 0.0);
    metrics.num("kernel.touch_ns", kt.touch_ns);
    metrics.num("kernel.write_ns", kt.write_ns);
    metrics.num("kernel.dirty_pages_mean",
                mean(tail_of(m.dirty_pages, s0.n_dirty, s1.n_dirty)));
    metrics.integer("kernel.mapped_pages", mapped_pages);

    metrics.num("criu.harvest_host_ms_per_epoch",
                ms_per_epoch(s1.stage.harvest - s0.stage.harvest));
    metrics.num("criu.encode_host_ms_per_epoch",
                ms_per_epoch(s1.stage.encode - s0.stage.encode));
    metrics.num("criu.fold_host_ms_per_epoch",
                ms_per_epoch(s1.stage.fold - s0.stage.fold));
    metrics.num("criu.state_mb_per_epoch",
                epochs > 0 ? static_cast<double>(s1.state_bytes -
                                                 s0.state_bytes) /
                                 1e6 / epochs
                           : 0.0);
    metrics.num("criu.restore_host_ms", tf.materialize_host_ms);
    metrics.num("criu.restore_sim_ms", to_millis(rec.restore_time));

    Samples stops = tail_of(m.stop_time_ms, s0.n_stop, s1.n_stop);
    metrics.integer("core.epochs", s1.epochs - s0.epochs);
    metrics.num("core.stop_ms_mean", mean(stops));
    metrics.num("core.stop_ms_p99", pct(stops, 99));
    // record_epoch() appends stop time and commit latency together, so the
    // stop-sample index range also selects the window's commit latencies.
    metrics.num("core.commit_latency_p99_ms",
                pct(tail_of(m.commit_latency_ms, s0.n_stop, s1.n_stop), 99));
    metrics.num("core.cp.freeze_ms", tf.cp_freeze_ms);
    metrics.num("core.cp.harvest_ms", tf.cp_harvest_ms);
    metrics.num("core.cp.ship_ms", tf.cp_ship_ms);
    metrics.num("core.cp.ack_wait_ms", tf.cp_ack_wait_ms);
    metrics.integer("core.log_entries", s1.log_entries - s0.log_entries);
    metrics.integer("core.log_segments", s1.log_segments - s0.log_segments);
    metrics.num("core.log_mb",
                static_cast<double>(s1.log_bytes - s0.log_bytes) / 1e6);
    metrics.num("core.log_commit_p99_ms", pct(tf.log_commit_ms, 99));
    metrics.num("core.epochctl.final_epoch_ms",
                to_millis(m.ctl_final_epoch_len));
    metrics.integer("core.epochctl.converged_epoch", m.ctl_last_change_epoch);
    metrics.num("core.cluster_build_s", med_setup->cluster_build);
    metrics.num("core.protect_s", med_setup->protect);
    metrics.num("core.failover.host_ms",
                trial->restored_wall_ns() > trial->fault_wall_ns() &&
                        trial->fault_wall_ns() > 0
                    ? static_cast<double>(trial->restored_wall_ns() -
                                          trial->fault_wall_ns()) /
                          1e6
                    : 0.0);
    metrics.num("core.failover.detect_ms", to_millis(rec.detection_latency));
    metrics.num("core.failover.resilver_ms", to_millis(rec.resilver_time));
    metrics.num("core.failover.resilver_mb",
                static_cast<double>(rec.resilver_bytes) / 1e6);
    metrics.num("core.failover.interruption_ms",
                to_millis(obs.interruption));

    metrics.integer("net.plug_releases", tf.plug_releases);
    metrics.integer("net.released_packets", tf.released_packets);
    metrics.integer("net.socket_repairs", tf.socket_repairs);
    metrics.integer("net.retransmits", tf.retransmits);

    metrics.integer("blockdev.drbd_commits", tf.drbd_commits);
    metrics.integer("blockdev.drbd_buffered_peak", tf.drbd_buffered_peak);
    metrics.integer("blockdev.drbd_discarded", tf.drbd_discarded);
    metrics.num("blockdev.barrier_wait_p99_ms", pct(tf.barrier_wait_ms, 99));

    double lag_max = 0;
    for (const Samples& s : m.replica_ack_lag) {
      if (!s.empty()) lag_max = std::max(lag_max, s.max());
    }
    metrics.num("topo.fanout_mb_per_s",
                static_cast<double>(fanout - one_copy) / 1e6 / span_s);
    metrics.num("topo.quorum_wait_p99_ms",
                pct(tail_of(m.quorum_wait_ms, s0.n_quorum, s1.n_quorum), 99));
    metrics.num("topo.ack_lag_max_epochs", lag_max);

    metrics.num("apps.setup_s", med_setup->app_setup);
    metrics.num("clients.connect_s", med_setup->client_connect);
    metrics.integer("clients.requests", s1.completed - s0.completed);
    metrics.num("clients.latency_p50_ms", pct(lat, 50));
    metrics.integer("clients.failed", failed);

    metrics.integer("trace.events", cl.tracer->recorded());
    metrics.integer("trace.dropped", cl.tracer->dropped());
    metrics.num("trace.host_s_per_sim_s", host_rate);

    detail.integer("kernel_timed_touches", kt.touches);
    detail.integer("kernel_timed_writes", kt.writes);
    detail.integer("cp_epochs", tf.cp_epochs);
  }

  // ---- Teardown of the measured trial.
  std::uint64_t t_td = wall_now_ns();
  trial.reset();
  double teardown_s = wall_seconds_since(t_td);
  if (a.traced) metrics.num("core.teardown_s", teardown_s);
  detail.num("teardown_s", teardown_s);
  detail.num("discarded_setup_teardown_s_median",
             discard_teardown_s.empty() ? 0.0 : median(discard_teardown_s));
  JsonObj setup_detail;
  setup_detail.num("cluster_build_s", med_setup->cluster_build);
  setup_detail.num("app_setup_s", med_setup->app_setup);
  setup_detail.num("prefill_s", med_setup->prefill);
  setup_detail.num("client_connect_s", med_setup->client_connect);
  setup_detail.num("protect_s", med_setup->protect);
  setup_detail.num("warmup_s", med_setup->warmup);
  setup_detail.num("total_s", med_setup->total());
  detail.obj("setup_components", setup_detail);

  JsonObj out;
  out.obj("manifest", manifest(w, cfg, a));
  out.obj("checks", checks);
  out.boolean("correct", ok);
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.obj("metrics", metrics);
  out.obj("detail", detail);
  std::printf("RESULT %s\n", out.render().c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-check
// ---------------------------------------------------------------------------

/// Runs one Trial end to end the way run_benchmark does (one set-up, the
/// window in `slice` steps) and returns its observables.
Observables sliced_run(const harness::RunConfig& cfg, Time slice,
                       Trial::Upload upload = Trial::Upload::kClear,
                       std::uint64_t* audit_checks = nullptr) {
  Trial t(cfg, std::size_t{1} << 20, upload);
  t.setup();
  for (Time at = t.window_start() + slice; at <= t.window_end(); at += slice) {
    t.cluster().sim.run_until(at);
  }
  if (t.cluster().sim.now() < t.window_end()) {
    t.cluster().sim.run_until(t.window_end());
  }
  t.finish();
  if (audit_checks != nullptr && t.auditor() != nullptr) {
    *audit_checks = t.auditor()->stats().total();
  }
  return t.observables();
}

/// Empty when the run's outputs are all correct, else the first problem.
std::string unclean(const Observables& o, bool fault) {
  if (o.kv_errors != 0) return "kv_errors=" + std::to_string(o.kv_errors);
  if (o.broken_connections != 0) return "broken connections";
  if (o.requests_completed == 0) return "no requests";
  if (fault && !(o.fault_injected && o.recovered && o.promoted_replica >= 0))
    return "no failover";
  return {};
}

int selfcheck() {
  int failures = 0;
  auto report = [&](const std::string& what, const std::string& why) {
    std::printf("%-62s %s\n", what.c_str(), why.empty() ? "ok" : why.c_str());
    if (!why.empty()) ++failures;
  };
  for (const char* name : kWorkloadNames) {
    Workload w = *make_workload(name);
    harness::RunConfig cfg = w.cfg;
    cfg.seed = 7;
    cfg.measure = 4 * w.slice;  // short window, whole slices
    std::string n = name;
    const bool upload = cfg.prefill_kv_pages > 0 && cfg.kv_validation;

    // Equivalence: with the harness's own upload layout the sliced driver
    // must reproduce run_experiment observable for observable.
    Observables want = Observables::from(harness::run_experiment(cfg));
    Observables mirror = sliced_run(cfg, w.slice, Trial::Upload::kHarness);
    std::string d = mirror.diff(want);
    report(n + ": sliced driver == run_experiment",
           d.empty() ? "" : "differs in " + d);
    if (upload) {
      // Known harness defect: prefill_kv writes its content records into
      // KV pages [0, 128), which the validating clients' keys address and
      // expect to be absent, so GETs find records nobody set. Expected to
      // fail until the harness is fixed; then the benchmark can go back to
      // the harness layout.
      report(n + ": harness upload layout shows kv_errors (known defect)",
             want.kv_errors > 0 ? "" : "no kv_errors: defect fixed?");
    } else {
      report(n + ": run_experiment runs clean",
             unclean(want, cfg.inject_fault));
    }

    // The benchmark's own run (content records outside client keys).
    Observables got = sliced_run(cfg, w.slice);
    report(n + ": benchmark run clean", unclean(got, cfg.inject_fault));
    Observables again = sliced_run(cfg, w.slice / 4);
    d = again.diff(got);
    report(n + ": repeat run (4x finer slices) identical",
           d.empty() ? "" : "differs in " + d);

    harness::RunConfig traced = cfg;
    traced.nilicon.trace_level = core::TraceLevel::kFull;
    d = sliced_run(traced, w.slice).diff(got);
    report(n + ": traced run identical", d.empty() ? "" : "differs in " + d);

    harness::RunConfig held_out = cfg;
    held_out.seed = 424242;
    report(n + ": held-out seed runs clean",
           unclean(sliced_run(held_out, w.slice), cfg.inject_fault));

    harness::RunConfig audited = cfg;
    audited.nilicon.audit_level = core::AuditLevel::kCommitPoints;
    std::uint64_t checks = 0;
    std::string why;
    try {
      Observables ao =
          sliced_run(audited, w.slice, Trial::Upload::kClear, &checks);
      why = unclean(ao, cfg.inject_fault);
      if (why.empty() && checks == 0) why = "auditor ran no checks";
    } catch (const InvariantError& e) {
      why = std::string("AUDIT VIOLATION: ") + e.what();
    }
    report(n + ": commit-level invariant audit (" + std::to_string(checks) +
               " checks)",
           why);
  }
  std::printf("selfcheck: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: nlc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       nlc_perfbench --selfcheck\n"
               "workloads: redis-epoch node-replay ssdb-failover-n3\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selfcheck") return selfcheck();
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      a.traced = v == "1";
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || a.seconds <= 0) {
    usage();
    return 2;
  }
  return run_benchmark(a);
}
