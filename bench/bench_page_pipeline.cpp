// Wall-clock microbenchmark of the zero-copy checkpoint page pipeline
// (extension; see DESIGN.md §7).
//
// Measures real ns/page (wall clock, not simulated time) for one epoch of
// harvest -> ship -> commit over N content pages, twice:
//  * zero-copy: the engine as built — payload handles flow from the address
//    space through the image into the radix store; commit is a refcount
//    bump per page.
//  * deep-copy baseline: emulates the pre-zero-copy pipeline by cloning
//    every payload at the harvest-staging step and again at store-commit
//    (the two 4 KiB copies per page the handle pipeline removed).
//
// A second, partially-overwritten epoch then runs through the delta codec
// to report encode ns/page and the achieved compression ratio.
//
// Results are printed and written to BENCH_page_pipeline.json in the
// working directory (the nlc_bench_smoke ctest target runs --smoke).
//
// Modes: default ~20K pages; --smoke 2K (CI); --full / NLC_BENCH_FULL=1
// the acceptance-scale 100K.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "blockdev/disk.hpp"
#include "criu/checkpoint.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/time.hpp"

namespace {

using namespace nlc;

double ns_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns);
}

/// One self-contained world: a frozen container with `npages` of real
/// content, every page dirty, ready to harvest.
struct World {
  sim::Simulation sim;
  blk::Disk disk;
  kern::Kernel kernel;
  net::Network net;
  net::TcpStack tcp;
  kern::ContainerId cid;
  kern::Process* proc;
  kern::Vma vma;
  criu::CheckpointEngine engine;

  explicit World(std::uint64_t npages)
      : kernel(sim, nullptr, "bench", disk), net(sim),
        tcp(sim, nullptr, net, net.add_host("h", nullptr)),
        cid(kernel.create_container("bench").id()),
        proc(&kernel.create_process(cid, "app")),
        vma(proc->mm().map(npages, kern::VmaKind::kAnon)),
        engine(kernel, tcp) {
    std::vector<std::byte> cell(nlc::kPageSize);
    for (std::uint64_t p = 0; p < npages; ++p) {
      std::memset(cell.data(), static_cast<int>(p & 0xff), cell.size());
      proc->mm().write(vma.start + p, 0, cell);
    }
    proc->mm().clear_soft_dirty();
    proc->mm().touch_range(vma.start, npages);  // all dirty, content intact
    kernel.freeze_container(cid);
  }

  criu::HarvestResult harvest(std::uint64_t epoch) {
    criu::HarvestOptions ho;
    ho.incremental = true;
    auto hr = engine.harvest(cid, epoch, nullptr, ho);
    // harvest clears soft-dirty; re-dirty for the next repetition.
    proc->mm().touch_range(vma.start, vma.npages);
    return hr;
  }
};

/// harvest -> ship (stage the message) -> commit into a fresh radix store.
/// `deep_copy` clones every payload at the staging and commit steps.
double run_pipeline_ns_per_page(World& w, std::uint64_t epoch,
                                bool deep_copy) {
  criu::RadixPageStore store;
  const std::uint64_t t0 = util::wall_now_ns();

  criu::HarvestResult hr = w.harvest(epoch);
  if (deep_copy) {
    // Staging copy: the legacy pipeline memcpy'd parasite pages into the
    // staging buffer records.
    for (criu::PageRecord& rec : hr.image.pages) {
      if (rec.has_content()) {
        rec.content = std::make_shared<kern::PageBytes>(*rec.content);
      }
    }
  }

  store.begin_checkpoint(epoch);
  std::uint64_t visits = 0;
  for (const criu::PageRecord& rec : hr.image.pages) {
    if (deep_copy && rec.has_content()) {
      // Commit copy: the legacy store duplicated the bytes again.
      criu::PageRecord copy = rec;
      copy.content = std::make_shared<kern::PageBytes>(*rec.content);
      visits += store.store(copy);
    } else {
      visits += store.store(rec);
    }
  }

  const std::uint64_t t1 = util::wall_now_ns();
  NLC_CHECK(store.page_count() == hr.image.pages.size());
  return ns_between(t0, t1) /
         static_cast<double>(hr.image.pages.size() > 0
                                 ? hr.image.pages.size()
                                 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nlc;
  using namespace nlc::bench;

  bool smoke = false;
  bool full = full_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }
  const std::uint64_t npages = smoke ? 2'000 : (full ? 100'000 : 20'000);
  const int reps = smoke ? 2 : 3;

  header("Zero-copy page pipeline: wall-clock ns/page",
         "extension beyond the paper");
  std::printf("pages/epoch: %llu, reps: %d (best-of)\n\n",
              static_cast<unsigned long long>(npages), reps);

  World w(npages);
  std::uint64_t epoch = 1;

  // Warm-up epoch: populate allocator caches and the dirty machinery.
  (void)run_pipeline_ns_per_page(w, epoch++, /*deep_copy=*/false);

  double zero_ns = 1e18;
  double deep_ns = 1e18;
  for (int r = 0; r < reps; ++r) {
    deep_ns = std::min(deep_ns,
                       run_pipeline_ns_per_page(w, epoch++, true));
    zero_ns = std::min(zero_ns,
                       run_pipeline_ns_per_page(w, epoch++, false));
  }
  double speedup = deep_ns / zero_ns;
  std::printf("%-38s | %10.1f ns/page\n", "deep-copy baseline (2 copies/page)",
              deep_ns);
  std::printf("%-38s | %10.1f ns/page\n", "zero-copy handle pipeline",
              zero_ns);
  std::printf("%-38s | %10.2fx\n\n", "speedup", speedup);

  // ---- Delta codec: encode cost + ratio on a partially-changed epoch ------
  // Overwrite ~900 bytes of every 5th page (a KV-style update pattern),
  // then encode against the previously shipped versions.
  criu::DeltaCodec codec;
  {
    criu::HarvestResult base = w.harvest(epoch++);
    codec.encode_epoch(base.image);  // first epoch: all raw, sets references
  }
  std::vector<std::byte> val(900, std::byte{0x5a});
  w.proc->mm().clear_soft_dirty();
  for (std::uint64_t p = 0; p < npages; p += 5) {
    w.proc->mm().write(w.vma.start + p, 512, val);
  }
  criu::HarvestResult delta_hr = w.harvest(epoch++);
  const std::uint64_t d0 = util::wall_now_ns();
  criu::EpochDeltaStats ds = codec.encode_epoch(delta_hr.image);
  const std::uint64_t d1 = util::wall_now_ns();
  double delta_ns =
      ns_between(d0, d1) /
      static_cast<double>(ds.content_pages > 0 ? ds.content_pages : 1);
  std::printf("%-38s | %10.1f ns/page\n", "delta encode", delta_ns);
  std::printf("%-38s | %10.3f (wire/raw, %llu pages)\n", "compression ratio",
              ds.ratio(), static_cast<unsigned long long>(ds.content_pages));

  std::FILE* f = std::fopen("BENCH_page_pipeline.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"pages_per_epoch\": %llu,\n"
                 "  \"ns_per_page_deep_copy\": %.1f,\n"
                 "  \"ns_per_page_zero_copy\": %.1f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"delta_encode_ns_per_page\": %.1f,\n"
                 "  \"compression_ratio\": %.4f\n"
                 "}\n",
                 static_cast<unsigned long long>(npages), deep_ns, zero_ns,
                 speedup, delta_ns, ds.ratio());
    std::fclose(f);
    std::printf("\nwrote BENCH_page_pipeline.json\n");
  }

  // Sanity for the smoke ctest target: the handle pipeline must beat the
  // copying one, and the delta stage must actually compress.
  NLC_CHECK_MSG(zero_ns < deep_ns, "zero-copy slower than deep copy");
  NLC_CHECK_MSG(ds.ratio() < 1.0, "delta stage failed to compress");
  return 0;
}
