// Determinism regression tests for the parallel trial runner and the
// event-loop coroutine fast path: identical seeds must produce
// byte-identical metrics and event counts (a) serial vs parallel runner,
// (b) across repeats, (c) fast-path vs generic resume queue entries. Also
// unit-tests util::WorkerPool, the fan-out primitive under TrialRunner.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "util/time.hpp"
#include "util/worker_pool.hpp"

namespace nlc {
namespace {

using harness::RunConfig;
using harness::RunResult;
using harness::TrialContext;
using harness::TrialRunner;

/// Exact (bit-for-bit) fingerprint of everything the benches report.
std::string fingerprint(const RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.throughput_rps << '|' << r.requests_completed << '|'
     << r.mean_latency_ms << '|' << r.batch_runtime << '|'
     << r.metrics.epochs_completed << '|' << r.metrics.bytes_shipped << '|'
     << r.metrics.stop_time_ms.sum() << '|' << r.metrics.dirty_pages.sum()
     << '|' << r.metrics.state_bytes.sum() << '|' << r.recovered << '|'
     << r.kv_errors << '|' << r.broken_connections << '|' << r.sim_events;
  return os.str();
}

/// A small but representative trial mix: interactive + batch, protected +
/// stock, one fault-injection run.
std::vector<RunConfig> trial_mix() {
  std::vector<RunConfig> cfgs;
  {
    RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = nlc::milliseconds(800);
    cfg.client_connections = 2;
    cfg.seed = 11;
    cfgs.push_back(cfg);
  }
  {
    RunConfig cfg;
    cfg.spec = apps::streamcluster_spec();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.batch_work = nlc::milliseconds(300);
    cfg.seed = 22;
    cfgs.push_back(cfg);
  }
  {
    RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.mode = harness::Mode::kStock;
    cfg.measure = nlc::milliseconds(800);
    cfg.seed = 33;
    cfgs.push_back(cfg);
  }
  {
    RunConfig cfg;
    cfg.spec = apps::netecho_spec();
    cfg.mode = harness::Mode::kNiLiCon;
    cfg.measure = nlc::seconds(3);
    cfg.inject_fault = true;
    cfg.seed = 44;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

std::vector<std::string> run_mix(TrialRunner& runner) {
  auto cfgs = trial_mix();
  auto rs = runner.run(cfgs.size(), [&](TrialContext& ctx) {
    RunResult r = harness::run_experiment(cfgs[ctx.index]);
    ctx.sim_events = r.sim_events;
    return fingerprint(r);
  });
  return rs;
}

TEST(TrialRunnerDeterminism, SerialVsParallelByteIdentical) {
  TrialRunner serial(1);
  TrialRunner parallel(4);
  auto a = run_mix(serial);
  auto b = run_mix(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "trial " << i;
  }
  // events_processed flows through TrialContext identically.
  ASSERT_EQ(serial.stats().size(), parallel.stats().size());
  for (std::size_t i = 0; i < serial.stats().size(); ++i) {
    EXPECT_EQ(serial.stats()[i].sim_events, parallel.stats()[i].sim_events);
    EXPECT_GT(serial.stats()[i].sim_events, 0u);
  }
  EXPECT_GT(serial.total_sim_events(), 0u);
  EXPECT_EQ(serial.total_sim_events(), parallel.total_sim_events());
}

TEST(TrialRunnerDeterminism, RepeatsByteIdentical) {
  TrialRunner r1(4);
  TrialRunner r2(4);
  EXPECT_EQ(run_mix(r1), run_mix(r2));
}

TEST(TrialRunner, ResultsInSubmissionOrder) {
  TrialRunner runner(8);
  auto out = runner.run(64, [](std::size_t i) { return i * 3; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST(TrialRunner, LowestIndexExceptionPropagates) {
  TrialRunner runner(4);
  EXPECT_THROW(
      {
        try {
          runner.run(16, [](std::size_t i) -> int {
            if (i == 11) throw std::runtime_error("trial 11 failed");
            if (i == 5) throw std::runtime_error("trial 5 failed");
            return 0;
          });
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "trial 5 failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(TrialRunner, SerialPathCreatesNoThreads) {
  // NLC_JOBS=1 semantics: jobs()==1 runs inline; also n==1 with many jobs.
  TrialRunner runner(1);
  auto ids = runner.run(3, [](std::size_t) {
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(TrialRunner, WallClockAccounting) {
  TrialRunner runner(2);
  runner.run(4, [](TrialContext& ctx) {
    ctx.sim_events = 100;
    return 0;
  });
  EXPECT_EQ(runner.total_sim_events(), 400u);
  EXPECT_GE(runner.batch_wall_seconds(), 0.0);
  EXPECT_GE(runner.total_trial_seconds(), 0.0);
}

// ---- (c) fast-path vs generic resume entry --------------------------------

sim::task<> mixed_workload(sim::Simulation& sim, sim::Event& ev,
                           std::vector<int>& log, int id) {
  for (int i = 0; i < 50; ++i) {
    co_await sim.sleep_for(nlc::microseconds(7 + id));
    log.push_back(id * 1000 + i);
    if (i == 25 && id == 0) ev.set();
  }
}

sim::task<> event_waiter(sim::Event& ev, std::vector<int>& log) {
  co_await ev.wait();
  log.push_back(-1);
}

struct EngineTrace {
  std::vector<int> log;
  std::uint64_t events = 0;
  Time end_time = 0;
};

EngineTrace run_engine(bool fast_path) {
  sim::Simulation sim;
  sim.set_resume_fast_path(fast_path);
  sim::Event ev(sim);
  EngineTrace tr;
  // Mix of plain resumes, sync-primitive wakeups, timers, and a domain
  // kill mid-run (dead-domain wakeups must be skipped identically).
  auto dom = std::make_shared<sim::Domain>("victim");
  sim.spawn(event_waiter(ev, tr.log));
  for (int id = 0; id < 4; ++id) {
    sim.spawn(id == 3 ? dom : nullptr, mixed_workload(sim, ev, tr.log, id));
  }
  sim.call_after(nlc::microseconds(100),
                 [&] { tr.log.push_back(-2); });
  sim.call_after(nlc::microseconds(120), [&] { dom->kill(); });
  sim.run();
  tr.events = sim.events_processed();
  tr.end_time = sim.now();
  sim.shutdown();
  return tr;
}

TEST(SimEngineDeterminism, FastPathVsGenericEntryIdentical) {
  EngineTrace fast = run_engine(true);
  EngineTrace generic = run_engine(false);
  EXPECT_EQ(fast.log, generic.log);
  EXPECT_EQ(fast.events, generic.events);
  EXPECT_EQ(fast.end_time, generic.end_time);
  EXPECT_GT(fast.events, 0u);
}

TEST(SimEngineDeterminism, ExperimentEventsStableAcrossRepeats) {
  RunConfig cfg;
  cfg.spec = apps::netecho_spec();
  cfg.mode = harness::Mode::kNiLiCon;
  cfg.measure = nlc::milliseconds(500);
  cfg.seed = 7;
  RunResult a = harness::run_experiment(cfg);
  RunResult b = harness::run_experiment(cfg);
  EXPECT_GT(a.sim_events, 0u);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

// ----------------------------------------------------------- WorkerPool ----

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnce) {
  util::WorkerPool pool(3);
  constexpr std::size_t kN = 1000;
  // NLC_LINT_OK(concurrency-owner): exercises WorkerPool cross-thread
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPoolTest, ZeroHelpersRunsInline) {
  util::WorkerPool pool(0);
  EXPECT_EQ(pool.helpers(), 0);
  std::vector<int> hits(64, 0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, LowestIndexExceptionWins) {
  util::WorkerPool pool(3);
  try {
    pool.run(32, [](std::size_t i) {
      if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(WorkerPoolTest, NestedRunExecutesInline) {
  // "Outermost fan-out wins": a run() issued from inside a running task of
  // the same pool must not deadlock or oversubscribe — it executes inline.
  util::WorkerPool pool(2);
  // NLC_LINT_OK(concurrency-owner): exercises nested-pool concurrency
  std::atomic<int> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(WorkerPoolTest, ConcurrentCallersBothComplete) {
  // Two external threads racing for the same pool: one wins the dispatch,
  // the other falls back to its own inline loop. Both must finish with
  // exact coverage.
  util::WorkerPool pool(2);
  auto batch = [&pool]() {
    // NLC_LINT_OK(concurrency-owner): exercises concurrent pool use
    std::vector<std::atomic<int>> hits(256);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    int total = 0;
    for (auto& h : hits) total += h.load();
    return total;
  };
  // NLC_LINT_OK(concurrency-owner): two racing batches, on purpose
  auto f1 = std::async(std::launch::async, batch);
  // NLC_LINT_OK(concurrency-owner): two racing batches, on purpose
  auto f2 = std::async(std::launch::async, batch);
  EXPECT_EQ(f1.get(), 256);
  EXPECT_EQ(f2.get(), 256);
}

}  // namespace
}  // namespace nlc
