// The epoch page pipeline against a byte-at-a-time oracle (DESIGN.md §10).
//
// The production path — word-wise scan primitives, the span-scanning delta
// encoder, the codec's identity short-circuit, the memoized radix fold —
// is checked against the simplest code that could compute the same
// answers: a plain byte loop for the scan primitives, a byte-at-a-time
// run-length encoder for the delta codec, and a reference map of deep page
// copies kept by the test for a whole harvest -> encode -> serialize ->
// fold pipeline over several epochs.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "blockdev/disk.hpp"
#include "criu/checkpoint.hpp"
#include "criu/delta.hpp"
#include "criu/pagestore.hpp"
#include "criu/serialize.hpp"
#include "kernel/kernel.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nlc {
namespace {

// --------------------------------------------------------------- oracles ----

std::size_t byte_find_diff(const std::byte* a, const std::byte* b,
                           std::size_t i, std::size_t n) {
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

std::size_t byte_find_same(const std::byte* a, const std::byte* b,
                           std::size_t i, std::size_t n) {
  while (i < n && a[i] != b[i]) ++i;
  return i;
}

/// Byte-at-a-time reference encoder: the codec's specification. A changed
/// run extends over differing bytes and over equal gaps no wider than the
/// framing a new run would cost; the page ships raw when framing plus run
/// bytes reach a full page (or there is no reference).
criu::PageDelta reference_delta_encode(const kern::PageBytes* prev,
                                       const kern::PageBytes& cur) {
  criu::PageDelta d;
  if (prev == nullptr) {
    d.raw = true;
    d.wire_size = static_cast<std::uint32_t>(kPageSize);
    return d;
  }
  std::uint32_t i = 0;
  const auto n = static_cast<std::uint32_t>(kPageSize);
  while (i < n) {
    if (cur[i] == (*prev)[i]) {
      ++i;
      continue;
    }
    std::uint32_t start = i;
    std::uint32_t last_diff = i;
    ++i;
    while (i < n) {
      if (cur[i] != (*prev)[i]) {
        last_diff = i++;
      } else if (i - last_diff <= criu::kDeltaRunHeader) {
        ++i;  // cheaper to include the equal gap than to open a new run
      } else {
        break;
      }
    }
    criu::PageDelta::Run run;
    run.offset = start;
    run.bytes.assign(cur.begin() + start, cur.begin() + last_diff + 1);
    d.runs.push_back(std::move(run));
  }
  std::uint32_t size = criu::kDeltaPageHeader;
  for (const criu::PageDelta::Run& r : d.runs) {
    size += criu::kDeltaRunHeader + static_cast<std::uint32_t>(r.bytes.size());
  }
  if (size >= kPageSize) {
    d.raw = true;
    d.runs.clear();
    d.wire_size = static_cast<std::uint32_t>(kPageSize);
  } else {
    d.wire_size = size;
  }
  return d;
}

kern::PageBytes random_page(Rng& rng) {
  kern::PageBytes p(kPageSize);
  for (auto& b : p) b = static_cast<std::byte>(rng.next() & 0xff);
  return p;
}

/// delta_encode() == the reference encoder (runs, raw flag, wire size),
/// and the production delta round-trips through delta_apply().
void expect_matches_oracle(const kern::PageBytes& prev,
                           const kern::PageBytes& cur) {
  const criu::PageDelta ref = reference_delta_encode(&prev, cur);
  const criu::PageDelta got = criu::delta_encode(&prev, cur);
  ASSERT_EQ(got.raw, ref.raw);
  ASSERT_EQ(got.wire_size, ref.wire_size);
  ASSERT_EQ(got.runs.size(), ref.runs.size());
  for (std::size_t i = 0; i < ref.runs.size(); ++i) {
    EXPECT_EQ(got.runs[i].offset, ref.runs[i].offset);
    EXPECT_EQ(got.runs[i].bytes, ref.runs[i].bytes);
  }
  EXPECT_EQ(criu::delta_apply(&prev, got, &cur), cur);
}

// ------------------------------------------------------ scan primitives ----

TEST(SimdKernelTest, FindPrimitivesMatchScalarOnArbitrarySpans) {
  Rng rng(0x51D0'0001);
  for (int iter = 0; iter < 300; ++iter) {
    // Lengths deliberately cover 0, sub-word (< 8) and multi-word tails.
    const auto n = static_cast<std::size_t>(rng.uniform(0, 170));
    std::vector<std::byte> a(n);
    std::vector<std::byte> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::byte>(rng.next() & 0xff);
      // Mostly-equal buffers so both primitives exercise their skip loops.
      b[i] = (rng.next() % 4 == 0)
                 ? static_cast<std::byte>(rng.next() & 0xff)
                 : a[i];
    }
    for (std::size_t start = 0; start <= n; start += 1 + (n / 7)) {
      EXPECT_EQ(util::find_diff(a.data(), b.data(), start, n),
                byte_find_diff(a.data(), b.data(), start, n))
          << "n=" << n << " start=" << start;
      EXPECT_EQ(util::find_same(a.data(), b.data(), start, n),
                byte_find_same(a.data(), b.data(), start, n))
          << "n=" << n << " start=" << start;
    }
  }
}

TEST(SimdKernelTest, FindPrimitivesExactAroundVectorEdges) {
  // A single differing (resp. equal) byte swept across every position of a
  // region spanning twelve 8-byte words: the returned index must be exact,
  // not just "somewhere in the differing word".
  constexpr std::size_t kN = 96;
  for (std::size_t pos = 0; pos < kN; ++pos) {
    std::vector<std::byte> a(kN, std::byte{0x11});
    std::vector<std::byte> b(kN, std::byte{0x11});
    b[pos] = std::byte{0x22};
    std::vector<std::byte> c(kN, std::byte{0x33});  // all-diff vs a...
    c[pos] = std::byte{0x11};                       // ...except one byte
    EXPECT_EQ(util::find_diff(a.data(), b.data(), 0, kN), pos);
    EXPECT_EQ(util::find_same(a.data(), c.data(), 0, kN), pos);
    // Starting inside a word, at or before the byte, changes nothing.
    for (std::size_t start = pos - pos % 8; start <= pos; ++start) {
      EXPECT_EQ(util::find_diff(a.data(), b.data(), start, kN), pos);
      EXPECT_EQ(util::find_same(a.data(), c.data(), start, kN), pos);
    }
  }
}

// ------------------------------------------------------- encoder kernels ----

TEST(SimdKernelTest, EncoderTiersMatchOnAdversarialPatterns) {
  Rng rng(0x51D0'0002);
  kern::PageBytes prev = random_page(rng);

  // All-same and all-diff.
  expect_matches_oracle(prev, prev);
  kern::PageBytes inv = prev;
  for (auto& b : inv) b = static_cast<std::byte>(~static_cast<int>(b));
  expect_matches_oracle(prev, inv);

  // Single-byte runs with boundaries swept across word edges.
  for (std::size_t pos :
       {0ul, 7ul, 8ul, 15ul, 16ul, 31ul, 32ul, 33ul, 63ul, 64ul, 65ul,
        kPageSize - 33, kPageSize - 32, kPageSize - 31, kPageSize - 1}) {
    kern::PageBytes cur = prev;
    cur[pos] = static_cast<std::byte>(static_cast<int>(cur[pos]) ^ 0x1);
    expect_matches_oracle(prev, cur);
  }

  // Runs that start/end exactly on word edges, and runs crossing them.
  for (auto [start, len] : std::initializer_list<std::pair<std::size_t,
                                                           std::size_t>>{
           {0, 32}, {32, 32}, {30, 4}, {31, 2}, {32, 1}, {60, 40},
           {kPageSize - 64, 64}, {kPageSize - 5, 5}}) {
    kern::PageBytes cur = prev;
    for (std::size_t j = start; j < start + len; ++j) {
      cur[j] = static_cast<std::byte>(static_cast<int>(cur[j]) ^ 0xFF);
    }
    expect_matches_oracle(prev, cur);
  }

  // Equal gaps of every width around the absorb threshold, placed so the
  // gap itself straddles a word edge.
  for (std::size_t gap = 1; gap <= criu::kDeltaRunHeader + 3; ++gap) {
    for (std::size_t base : {28ul, 30ul, 62ul, 1000ul, kPageSize - 48}) {
      kern::PageBytes cur = prev;
      cur[base] = static_cast<std::byte>(static_cast<int>(cur[base]) ^ 0xFF);
      cur[base + gap + 1] = static_cast<std::byte>(
          static_cast<int>(cur[base + gap + 1]) ^ 0xFF);
      expect_matches_oracle(prev, cur);
    }
  }

  // Alternating 1-byte stripes: worst case for the absorb logic (every
  // gap is absorbable, the whole page collapses into one run -> raw).
  kern::PageBytes stripes = prev;
  for (std::size_t j = 0; j < kPageSize; j += 2) {
    stripes[j] = static_cast<std::byte>(static_cast<int>(stripes[j]) ^ 0x55);
  }
  expect_matches_oracle(prev, stripes);
}

TEST(SimdKernelTest, EncoderTiersMatchOnRandomMutationFuzz) {
  Rng rng(0x51D0'0003);
  for (int iter = 0; iter < 150; ++iter) {
    kern::PageBytes prev = random_page(rng);
    kern::PageBytes cur = prev;
    const int nmut = static_cast<int>(rng.uniform(0, 50));
    for (int m = 0; m < nmut; ++m) {
      auto pos = static_cast<std::size_t>(rng.uniform(0, kPageSize - 1));
      auto len = static_cast<std::size_t>(rng.uniform(1, 90));
      for (std::size_t j = pos; j < std::min(pos + len, kPageSize); ++j) {
        cur[j] = static_cast<std::byte>(rng.next() & 0xff);
      }
    }
    expect_matches_oracle(prev, cur);
  }
}

TEST(DeltaKernelTest, FastMatchesReferenceOnRandomMutations) {
  Rng rng(0xD157'0001);
  for (int iter = 0; iter < 200; ++iter) {
    kern::PageBytes prev = random_page(rng);
    kern::PageBytes cur = prev;
    int nmut = static_cast<int>(rng.uniform(0, 40));
    for (int m = 0; m < nmut; ++m) {
      auto pos = static_cast<std::size_t>(rng.uniform(0, kPageSize - 1));
      auto len = static_cast<std::size_t>(rng.uniform(1, 64));
      for (std::size_t j = pos; j < std::min(pos + len, kPageSize); ++j) {
        cur[j] = static_cast<std::byte>(rng.next() & 0xff);
      }
    }
    expect_matches_oracle(prev, cur);
  }
}

TEST(DeltaKernelTest, FastMatchesReferenceOnEdgeCases) {
  Rng rng(0xD157'0002);
  kern::PageBytes prev = random_page(rng);
  // Identical pages: zero runs either way.
  expect_matches_oracle(prev, prev);
  // Fully different: raw fallback.
  kern::PageBytes inv = prev;
  for (auto& b : inv) b = static_cast<std::byte>(~static_cast<int>(b));
  expect_matches_oracle(prev, inv);
  // Single-byte diffs at word boundaries and page edges.
  for (std::size_t pos : {0ul, 1ul, 7ul, 8ul, 9ul, 63ul, 64ul, 2048ul,
                          kPageSize - 9, kPageSize - 8, kPageSize - 1}) {
    kern::PageBytes cur = prev;
    cur[pos] = static_cast<std::byte>(static_cast<int>(cur[pos]) ^ 0x1);
    expect_matches_oracle(prev, cur);
  }
  // Diff pairs separated by every gap width around the run-merge threshold
  // (kDeltaRunHeader): exercises the absorb-vs-new-run decision exactly.
  for (std::size_t gap = 1; gap <= criu::kDeltaRunHeader + 3; ++gap) {
    for (std::size_t base : {100ul, 1000ul, kPageSize - 32}) {
      kern::PageBytes cur = prev;
      cur[base] = static_cast<std::byte>(static_cast<int>(cur[base]) ^ 0xFF);
      cur[base + gap + 1] =
          static_cast<std::byte>(static_cast<int>(cur[base + gap + 1]) ^ 0xFF);
      expect_matches_oracle(prev, cur);
    }
  }
}

TEST(DeltaKernelTest, NoReferenceIsRawInBothKernels) {
  Rng rng(0xD157'0003);
  kern::PageBytes cur = random_page(rng);
  criu::PageDelta ref = reference_delta_encode(nullptr, cur);
  criu::PageDelta got = criu::delta_encode(nullptr, cur);
  EXPECT_TRUE(ref.raw);
  EXPECT_TRUE(got.raw);
  EXPECT_EQ(ref.wire_size, got.wire_size);
}

// The codec short-circuits a page whose record still carries the exact
// reference handle (identity implies byte equality under COW freezing).
// The stamped wire size and stats must match what the reference encoder
// computes by scanning the identical bytes.
TEST(DeltaKernelTest, IdentityShortCircuitMatchesReferenceCodec) {
  Rng rng(0xD157'0004);
  auto payload = std::make_shared<kern::PageBytes>(random_page(rng));

  auto make_image = [&](std::uint64_t epoch) {
    criu::CheckpointImage img;
    img.epoch = epoch;
    criu::PageRecord rec;
    rec.page = 7;
    rec.content = payload;
    img.pages.push_back(rec);
    return img;
  };

  criu::DeltaCodec codec;
  criu::CheckpointImage e0 = make_image(0);
  codec.encode_epoch(e0);

  // Second epoch ships the same handle: the codec takes the identity path.
  criu::CheckpointImage e1 = make_image(1);
  criu::EpochDeltaStats st = codec.encode_epoch(e1);
  const criu::PageDelta ref = reference_delta_encode(payload.get(), *payload);
  EXPECT_FALSE(ref.raw);
  EXPECT_EQ(e1.pages[0].wire_size, ref.wire_size);
  EXPECT_EQ(e1.pages[0].wire_size, criu::kDeltaPageHeader);
  EXPECT_EQ(st.content_pages, 1u);
  EXPECT_EQ(st.delta_pages, 1u);
  EXPECT_EQ(st.raw_pages, 0u);
  EXPECT_EQ(st.raw_bytes, kPageSize);
  EXPECT_EQ(st.wire_bytes, ref.wire_size);
}

// ------------------------------------------------ pipeline against oracle ----

/// A frozen container with `npages` of seeded content plus `acct` touched
/// accounting pages (no bytes), every page dirty.
struct PipelineRig {
  sim::Simulation sim;
  blk::Disk disk;
  kern::Kernel kernel;
  net::Network net;
  net::TcpStack tcp;
  kern::ContainerId cid;
  kern::Process* proc;
  kern::Vma vma;
  kern::Vma acct;
  criu::CheckpointEngine engine;

  PipelineRig(std::uint64_t npages, std::uint64_t acct_pages)
      : kernel(sim, nullptr, "pipe", disk), net(sim),
        tcp(sim, nullptr, net, net.add_host("h", nullptr)),
        cid(kernel.create_container("pipe").id()),
        proc(&kernel.create_process(cid, "app")),
        vma(proc->mm().map(npages, kern::VmaKind::kAnon)),
        acct(proc->mm().map(acct_pages, kern::VmaKind::kAnon)),
        engine(kernel, tcp) {
    Rng rng(0x5EED);
    std::vector<std::byte> cell(kPageSize);
    for (std::uint64_t p = 0; p < npages; ++p) {
      for (auto& b : cell) b = static_cast<std::byte>(rng.next() & 0xff);
      proc->mm().write(vma.start + p, 0, cell);
    }
    proc->mm().clear_soft_dirty();
    touch_all();
    kernel.freeze_container(cid);
  }

  void touch_all() {
    proc->mm().touch_range(vma.start, vma.npages);
    proc->mm().touch_range(acct.start, acct.npages);
  }

  /// Deterministic per-epoch mutation covering every encoder outcome: a
  /// 256-byte slice of every 3rd page (delta), every 7th page rewritten
  /// whole on odd epochs (raw fallback), and the rest dirty but unchanged
  /// (the codec's identity short-circuit).
  void mutate(std::uint64_t epoch) {
    Rng rng(0xABCD ^ epoch);
    std::vector<std::byte> val(256);
    for (auto& b : val) b = static_cast<std::byte>(rng.next() & 0xff);
    for (std::uint64_t p = 0; p < vma.npages; p += 3) {
      auto off = static_cast<std::uint64_t>(rng.uniform(0, kPageSize - 256));
      proc->mm().write(vma.start + p, static_cast<std::uint32_t>(off), val);
    }
    if (epoch % 2 == 1) {
      std::vector<std::byte> page(kPageSize);
      for (std::uint64_t p = 0; p < vma.npages; p += 7) {
        for (auto& b : page) b = static_cast<std::byte>(rng.next() & 0xff);
        proc->mm().write(vma.start + p, 0, page);
      }
    }
    touch_all();
  }
};

std::vector<std::uint64_t> stats_of(const criu::EpochDeltaStats& s) {
  return {s.content_pages, s.delta_pages, s.raw_pages, s.raw_bytes,
          s.wire_bytes};
}

TEST(PagePipelineOracleTest, EncodeSerializeFoldMatchByteOracle) {
  constexpr std::uint64_t kPages = 700;
  constexpr std::uint64_t kAcct = 40;
  constexpr int kEpochs = 5;
  PipelineRig rig(kPages, kAcct);
  criu::DeltaCodec codec;
  criu::RadixPageStore store;
  // The oracle's reference set: deep copies of the last shipped bytes.
  std::map<kern::PageNum, kern::PageBytes> shipped;
  std::uint64_t identity_pages = 0;

  for (int e = 0; e < kEpochs; ++e) {
    SCOPED_TRACE(e);
    const auto epoch = static_cast<std::uint64_t>(e);
    if (e > 0) rig.mutate(epoch);
    criu::HarvestOptions ho;
    ho.incremental = true;
    criu::HarvestResult hr = rig.engine.harvest(rig.cid, epoch, nullptr, ho);
    ASSERT_EQ(hr.image.pages.size(), kPages + kAcct);

    // What the byte-at-a-time oracle says every record should carry.
    std::vector<std::uint32_t> want_wire;
    criu::EpochDeltaStats want;
    for (const criu::PageRecord& rec : hr.image.pages) {
      if (!rec.has_content()) {
        want_wire.push_back(static_cast<std::uint32_t>(kPageSize));
        continue;
      }
      auto it = shipped.find(rec.page);
      const criu::PageDelta d = reference_delta_encode(
          it == shipped.end() ? nullptr : &it->second, *rec.content);
      want_wire.push_back(d.wire_size);
      ++want.content_pages;
      want.raw_bytes += kPageSize;
      want.wire_bytes += d.wire_size;
      if (d.raw) {
        ++want.raw_pages;
      } else {
        ++want.delta_pages;
      }
      if (it != shipped.end() && it->second == *rec.content) ++identity_pages;
      shipped[rec.page] = *rec.content;
    }

    const criu::EpochDeltaStats got = codec.encode_epoch(hr.image);
    EXPECT_EQ(stats_of(got), stats_of(want));
    for (std::size_t i = 0; i < hr.image.pages.size(); ++i) {
      ASSERT_EQ(hr.image.pages[i].wire_size, want_wire[i])
          << "page " << hr.image.pages[i].page;
    }

    // The backup folds what came over the wire.
    const std::vector<std::byte> wire = criu::serialize_image(hr.image);
    const criu::CheckpointImage back = criu::deserialize_image(wire);
    ASSERT_EQ(back.pages.size(), hr.image.pages.size());
    store.begin_checkpoint(epoch);
    std::uint64_t visits = 0;
    for (std::size_t i = 0; i < back.pages.size(); ++i) {
      const criu::PageRecord& r = back.pages[i];
      EXPECT_EQ(r.page, hr.image.pages[i].page);
      EXPECT_EQ(r.version, hr.image.pages[i].version);
      EXPECT_EQ(r.wire_size, want_wire[i]);
      ASSERT_EQ(r.has_content(), hr.image.pages[i].has_content());
      visits += store.store(r);
    }
    EXPECT_EQ(visits, criu::RadixPageStore::kLevels * back.pages.size());
  }
  // Every encoder outcome was exercised, the short-circuit included.
  EXPECT_GT(identity_pages, 0u);

  // Restore: the committed store walks back exactly the rig's memory, in
  // ascending page order.
  const std::vector<const criu::PageRecord*> all = store.all_pages();
  ASSERT_EQ(all.size(), kPages + kAcct);
  EXPECT_EQ(store.page_count(), kPages + kAcct);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const criu::PageRecord* r = all[i];
    if (i > 0) {
      EXPECT_LT(all[i - 1]->page, r->page);
    }
    EXPECT_EQ(store.lookup(r->page), r);
    EXPECT_EQ(r->version, rig.proc->mm().page_version(r->page));
    const kern::PagePayload live = rig.proc->mm().content(r->page);
    ASSERT_EQ(r->has_content(), live != nullptr) << "page " << r->page;
    if (live != nullptr) {
      EXPECT_EQ(*r->content, *live) << "page " << r->page;
    }
  }
}

}  // namespace
}  // namespace nlc
