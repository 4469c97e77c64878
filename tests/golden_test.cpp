// Golden observables: short harness::run_experiment runs over the three
// shapes the benchmark exercises (redis epoch commit N = 1, node replay
// commit with adaptive epochs, ssdb N = 3 K = 2 with KV validation and a
// primary crash) plus djcms epoch commit with a primary crash (the other
// app that writes files), pinned to committed values.
//
// Each run carries the invariant auditor at commit points, whose
// MemoryDigest folds every shipped image's (page, version, content hash,
// wire size) records and every restored resident set, and whose
// StorageDigest folds every shipped DNC entry, every restored file-page
// cache and each host's final disk contents; the client-facing result
// fields are pinned as exact integers, the latency samples by the bit
// patterns of their values. Auditing is observer-only: each case also runs
// unaudited and must match field for field, so these are the run's own
// observables. A change that is meant to keep the simulated memory and
// storage models byte-identical must leave every value here unchanged; a
// change that moves the simulation on purpose re-captures them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "util/rng.hpp"

namespace nlc {
namespace {

using harness::RunConfig;
using harness::RunResult;

struct Golden {
  std::uint64_t memory_digest;
  std::uint64_t storage_digest;
  std::uint64_t latency_digest;
  std::uint64_t requests_completed;
  std::uint64_t bytes_shipped;
  std::uint64_t epochs_completed;
  std::uint64_t sim_events;
  std::uint64_t kv_errors;
  bool recovered;
};

Golden observe(const RunResult& r) {
  std::uint64_t lat = 0;
  for (double v : r.latencies_ms.values()) {
    lat = splitmix64(lat ^ std::bit_cast<std::uint64_t>(v));
  }
  return Golden{r.audit.memory_digest,      r.audit.storage_digest, lat,
                r.requests_completed,       r.metrics.bytes_shipped,
                r.metrics.epochs_completed, r.sim_events,
                r.kv_errors,                r.recovered};
}

void expect_golden(const RunConfig& cfg, const Golden& want) {
  RunResult r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.audited);
  Golden got = observe(r);
  // One line with every value, so a deliberate re-capture is a paste.
  std::printf(
      "golden {0x%016llxull, 0x%016llxull, 0x%016llxull, %llu, %llu, %llu, "
      "%llu, %llu, %s}\n",
      static_cast<unsigned long long>(got.memory_digest),
      static_cast<unsigned long long>(got.storage_digest),
      static_cast<unsigned long long>(got.latency_digest),
      static_cast<unsigned long long>(got.requests_completed),
      static_cast<unsigned long long>(got.bytes_shipped),
      static_cast<unsigned long long>(got.epochs_completed),
      static_cast<unsigned long long>(got.sim_events),
      static_cast<unsigned long long>(got.kv_errors),
      got.recovered ? "true" : "false");
  EXPECT_EQ(got.memory_digest, want.memory_digest);
  EXPECT_EQ(got.storage_digest, want.storage_digest);
  EXPECT_EQ(got.latency_digest, want.latency_digest);
  EXPECT_EQ(got.requests_completed, want.requests_completed);
  EXPECT_EQ(got.bytes_shipped, want.bytes_shipped);
  EXPECT_EQ(got.epochs_completed, want.epochs_completed);
  EXPECT_EQ(got.sim_events, want.sim_events);
  EXPECT_EQ(got.kv_errors, want.kv_errors);
  EXPECT_EQ(got.recovered, want.recovered);

  RunConfig plain = cfg;
  plain.nilicon.audit_level = core::AuditLevel::kOff;
  Golden unaudited = observe(harness::run_experiment(plain));
  EXPECT_EQ(unaudited.latency_digest, got.latency_digest);
  EXPECT_EQ(unaudited.requests_completed, got.requests_completed);
  EXPECT_EQ(unaudited.bytes_shipped, got.bytes_shipped);
  EXPECT_EQ(unaudited.epochs_completed, got.epochs_completed);
  EXPECT_EQ(unaudited.sim_events, got.sim_events);
  EXPECT_EQ(unaudited.kv_errors, got.kv_errors);
  EXPECT_EQ(unaudited.recovered, got.recovered);
}

RunConfig audited(apps::AppSpec spec) {
  RunConfig cfg;
  cfg.spec = std::move(spec);
  cfg.seed = 7;
  cfg.nilicon.audit_level = core::AuditLevel::kCommitPoints;
  return cfg;
}

TEST(GoldenObservablesTest, RedisEpochCommit) {
  RunConfig cfg = audited(apps::redis_spec());
  cfg.client_connections = 3;
  cfg.client_pipeline = 14;
  cfg.warmup = nlc::milliseconds(500);
  cfg.measure = nlc::seconds(3);
  expect_golden(cfg, Golden{0x8e39197cfb371485ull, 0xa6ea8ee5aff28e91ull,
                            0x6ea0a577ed2caed0ull, 738, 1802672832, 110,
                            10014, 0, false});
}

TEST(GoldenObservablesTest, NodeReplayCommitAdaptive) {
  RunConfig cfg = audited(apps::node_spec());
  cfg.client_connections = 32;
  cfg.nilicon.commit_mode = core::CommitMode::kReplay;
  cfg.nilicon.epoch_policy = core::EpochPolicy::kAdaptive;
  cfg.warmup = nlc::seconds(1);
  cfg.measure = nlc::seconds(6);
  expect_golden(cfg, Golden{0x1db5e56cb30d82f9ull, 0x42e744278d4d5846ull,
                            0xaaabd0abe01ead8dull, 2240, 1335760576, 12,
                            81702, 0, false});
}

TEST(GoldenObservablesTest, SsdbQuorumKvFailover) {
  RunConfig cfg = audited(apps::ssdb_spec());
  cfg.kv_validation = true;
  cfg.nilicon.replicas = 3;
  cfg.nilicon.quorum_k = 2;
  cfg.nilicon.topology = topo::Topology::kStar;
  cfg.inject_fault = true;
  cfg.warmup = nlc::milliseconds(500);
  cfg.measure = nlc::seconds(4);
  expect_golden(cfg, Golden{0x332af3a402a7e35bull, 0xd80bd71abffe00e2ull,
                            0x447b8eb9380f169eull, 72, 118676640, 91, 60663,
                            0, true});
}

TEST(GoldenObservablesTest, DjcmsEpochFailover) {
  RunConfig cfg = audited(apps::djcms_spec());
  cfg.inject_fault = true;
  cfg.warmup = nlc::milliseconds(500);
  cfg.measure = nlc::seconds(4);
  expect_golden(cfg, Golden{0x2dbbaf7e79c65126ull, 0xa85c7e65f804feb3ull,
                            0xbc53a7c6c5fe8dfdull, 48, 1110765296, 71, 9595,
                            0, true});
}

}  // namespace
}  // namespace nlc
