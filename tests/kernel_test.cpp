#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/address_space.hpp"
#include "kernel/cpu.hpp"
#include "kernel/fs.hpp"
#include "kernel/kernel.hpp"
#include "sim/simulation.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nlc::kern {
namespace {

using namespace nlc::literals;

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

/// Minimal in-memory block store for kernel-level tests.
class FakeStore : public BlockStore {
 public:
  void write_block(InodeNum ino, std::uint64_t page,
                   PagePayload data) override {
    blocks_[{ino, page}] = std::move(data);
    ++writes_;
  }
  PagePayload read_block(InodeNum ino, std::uint64_t page) const override {
    auto it = blocks_.find({ino, page});
    return it == blocks_.end() ? nullptr : it->second;
  }
  std::uint64_t writes() const { return writes_; }

 private:
  std::map<std::pair<InodeNum, std::uint64_t>, PagePayload> blocks_;
  std::uint64_t writes_ = 0;
};

// ---------------------------------------------------------------- VMAs ----

TEST(AddressSpaceTest, MapAllocatesDisjointRanges) {
  AddressSpace as;
  const Vma& a = as.map(10, VmaKind::kAnon);
  const Vma& b = as.map(20, VmaKind::kStack);
  EXPECT_GE(b.start, a.end());
  EXPECT_EQ(as.mapped_pages(), 30u);
  EXPECT_EQ(as.vmas().size(), 2u);
}

TEST(AddressSpaceTest, UnmapDropsPagesAndContent) {
  AddressSpace as;
  auto id = as.map(4, VmaKind::kAnon).id;
  auto start = as.vmas()[0].start;
  as.write(start, 0, bytes_of("hi"));
  as.unmap(id);
  EXPECT_EQ(as.mapped_pages(), 0u);
  EXPECT_TRUE(as.vmas().empty());
}

TEST(AddressSpaceTest, TouchWithoutTrackingIsFree) {
  AddressSpace as;
  auto start = as.map(4, VmaKind::kAnon).start;
  EXPECT_FALSE(as.touch(start));
  EXPECT_TRUE(as.dirty_pages().empty());
}

TEST(AddressSpaceTest, SoftDirtyTrackingReportsWriteFaultOncePerPage) {
  AddressSpace as;
  auto start = as.map(4, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  EXPECT_TRUE(as.touch(start));    // first write: fault
  EXPECT_FALSE(as.touch(start));   // subsequent writes: no fault
  EXPECT_TRUE(as.touch(start + 1));
  EXPECT_EQ(as.dirty_pages().size(), 2u);
}

TEST(AddressSpaceTest, ClearSoftDirtyRearmsFaults) {
  AddressSpace as;
  auto start = as.map(2, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  as.touch(start);
  as.clear_soft_dirty();
  EXPECT_TRUE(as.dirty_pages().empty());
  EXPECT_TRUE(as.touch(start));
}

TEST(AddressSpaceTest, TouchRangeCountsFreshFaults) {
  AddressSpace as;
  auto start = as.map(10, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  EXPECT_EQ(as.touch_range(start, 5), 5u);
  EXPECT_EQ(as.touch_range(start + 3, 5), 3u);  // 3,4 already dirty
}

TEST(AddressSpaceTest, ContentRoundTrip) {
  AddressSpace as;
  auto start = as.map(2, VmaKind::kAnon).start;
  as.write(start, 100, bytes_of("payload"));
  auto back = as.read(start, 100, 7);
  EXPECT_EQ(0, std::memcmp(back.data(), "payload", 7));
  // Unwritten bytes read as zero.
  auto zeros = as.read(start + 1, 0, 4);
  for (auto b : zeros) EXPECT_EQ(b, std::byte{0});
}

TEST(AddressSpaceTest, ContentPageHasFullPageBuffer) {
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  as.write(start, 0, bytes_of("x"));
  PagePayload c = as.content(start);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->size(), kPageSize);
  EXPECT_EQ(as.content(start + 100), nullptr);
}

TEST(AddressSpaceTest, ContentHandleIsImmutableAcrossWrites) {
  // The zero-copy pipeline's core guarantee: a handle taken at checkpoint
  // time pins the bytes; a later write clones (copy-on-write) instead of
  // mutating the shared payload.
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  as.write(start, 0, bytes_of("before"));
  PagePayload snapshot = as.content(start);
  EXPECT_EQ(as.cow_clones(), 0u);

  as.write(start, 0, bytes_of("AFTER!"));
  EXPECT_EQ(as.cow_clones(), 1u);
  EXPECT_EQ(0, std::memcmp(snapshot->data(), "before", 6));
  auto now = as.read(start, 0, 6);
  EXPECT_EQ(0, std::memcmp(now.data(), "AFTER!", 6));
  // The clone broke sharing: further writes mutate in place.
  as.write(start, 0, bytes_of("third!"));
  EXPECT_EQ(as.cow_clones(), 1u);
}

TEST(AddressSpaceTest, DroppingHandlesRestoresInPlaceWrites) {
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  as.write(start, 0, bytes_of("a"));
  { PagePayload h = as.content(start); }  // handle dropped immediately
  as.write(start, 1, bytes_of("b"));
  EXPECT_EQ(as.cow_clones(), 0u);
}

TEST(AddressSpaceTest, AccessToUnmappedPageThrows) {
  AddressSpace as;
  as.map(2, VmaKind::kAnon);
  EXPECT_THROW(as.touch(1), InvariantError);
}

TEST(AddressSpaceTest, InstallVmaPreservesPageIdentity) {
  AddressSpace src;
  const Vma v = src.map(8, VmaKind::kAnon);
  AddressSpace dst;
  dst.install_vma(v);
  EXPECT_EQ(dst.vmas()[0].start, v.start);
  EXPECT_NO_THROW(dst.touch(v.start + 7));
}

TEST(AddressSpaceTest, InstallVmaRejectsOverlap) {
  AddressSpace as;
  const Vma v = as.map(8, VmaKind::kAnon);
  Vma overlap = v;
  overlap.id = v.id + 100;
  overlap.start = v.start + 4;
  EXPECT_THROW(as.install_vma(overlap), InvariantError);
}

TEST(AddressSpaceTest, PageVersionMonotone) {
  AddressSpace as;
  auto start = as.map(1, VmaKind::kAnon).start;
  auto v0 = as.page_version(start);
  as.touch(start);
  as.touch(start);
  EXPECT_EQ(as.page_version(start), v0 + 2);
}

TEST(AddressSpaceTest, TouchRangePastVmaEndThrowsBeforeTouching) {
  AddressSpace as;
  auto start = as.map(4, VmaKind::kAnon).start;
  as.clear_soft_dirty();
  EXPECT_THROW(as.touch_range(start + 2, 3), InvariantError);
  EXPECT_TRUE(as.dirty_pages().empty());
  EXPECT_EQ(as.page_version(start + 2), 0u);
  EXPECT_EQ(as.page_version(start + 3), 0u);
  EXPECT_EQ(as.page_states().size(), 0u);
  EXPECT_EQ(as.touch_range(start + 2, 2), 2u);  // exactly to the end: fine
}

TEST(AddressSpaceTest, DirtyListAndResidentViewAreAscending) {
  // VMAs installed in descending start order, as a restore may do.
  AddressSpace as;
  Vma hi;
  hi.id = 1;
  hi.start = 0x9000;
  hi.npages = 100;
  Vma lo = hi;
  lo.id = 2;
  lo.start = 0x5000;
  as.install_vma(hi);
  as.install_vma(lo);
  EXPECT_EQ(as.vmas()[0].start, 0x9000u);  // insertion order kept
  as.clear_soft_dirty();
  for (PageNum p : {0x9063ull, 0x5000ull, 0x9000ull, 0x5040ull, 0x503Full}) {
    as.touch(p);
  }
  std::vector<PageNum> dirty;
  for (const AddressSpace::DirtyRef& d : as.dirty_pages()) {
    dirty.push_back(d.page);
  }
  std::vector<PageNum> want{0x5000, 0x503F, 0x5040, 0x9000, 0x9063};
  EXPECT_EQ(dirty, want);
  std::vector<PageNum> resident;
  for (const auto& [page, st] : as.page_states()) {
    EXPECT_EQ(st.version, 1u);
    resident.push_back(page);
  }
  EXPECT_EQ(resident, want);
}

/// Reference model of an address space: one std::map entry per resident
/// page, VMAs in a plain list. Everything AddressSpace answers is derived
/// here independently, without tables or bitmaps.
class AddressSpaceModel {
 public:
  struct Page {
    std::uint64_t version = 0;
    std::shared_ptr<const PageBytes> bytes;  // null for accounting pages
    bool dirty = false;
  };

  std::vector<Vma> vmas;
  std::map<PageNum, Page> pages;  // resident pages only
  /// Handles the test holds on page payloads (what a checkpoint image or
  /// page store would pin); a write to such a page must clone.
  std::map<PageNum, PagePayload> held;
  bool tracking = false;
  std::uint64_t cow_clones = 0;
  std::uint64_t next_id = 1;
  PageNum next_page = 0x1000;

  const Vma* vma_of(PageNum p) const {
    for (const Vma& v : vmas) {
      if (v.contains(p)) return &v;
    }
    return nullptr;
  }
  bool overlaps(PageNum start, std::uint64_t n) const {
    for (const Vma& v : vmas) {
      if (start < v.end() && v.start < start + n) return true;
    }
    return false;
  }
  /// One page dirtied; returns the expected write-fault result.
  bool dirty_page(Page& pg) {
    ++pg.version;
    if (!tracking || pg.dirty) return false;
    pg.dirty = true;
    return true;
  }
  void clear_dirty() {
    for (auto& [p, pg] : pages) pg.dirty = false;
  }
};

/// Compares every observable of `as` with the model.
void expect_matches(const AddressSpace& as, const AddressSpaceModel& m,
                    Rng& rng) {
  ASSERT_EQ(as.vmas().size(), m.vmas.size());
  std::uint64_t mapped = 0;
  for (std::size_t i = 0; i < m.vmas.size(); ++i) {
    EXPECT_EQ(as.vmas()[i].id, m.vmas[i].id);
    EXPECT_EQ(as.vmas()[i].start, m.vmas[i].start);
    EXPECT_EQ(as.vmas()[i].npages, m.vmas[i].npages);
    mapped += m.vmas[i].npages;
  }
  EXPECT_EQ(as.mapped_pages(), mapped);
  EXPECT_EQ(as.tracking(), m.tracking);
  EXPECT_EQ(as.cow_clones(), m.cow_clones);

  // Dirty list: ascending, exactly the model's dirty set, state pointers
  // live and current.
  std::vector<AddressSpace::DirtyRef> dirty = as.dirty_pages();
  std::vector<PageNum> want_dirty;
  for (const auto& [p, pg] : m.pages) {
    if (pg.dirty) want_dirty.push_back(p);
  }
  ASSERT_EQ(dirty.size(), want_dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    ASSERT_EQ(dirty[i].page, want_dirty[i]);
    EXPECT_EQ(dirty[i].state->version, m.pages.at(want_dirty[i]).version);
  }

  // Resident view: ascending, same pages, versions and content handles.
  EXPECT_EQ(as.page_states().size(), m.pages.size());
  auto mit = m.pages.begin();
  for (const auto& [page, st] : as.page_states()) {
    ASSERT_NE(mit, m.pages.end());
    ASSERT_EQ(page, mit->first);
    EXPECT_EQ(st.version, mit->second.version);
    EXPECT_EQ(st.payload == nullptr, mit->second.bytes == nullptr);
    ++mit;
  }
  EXPECT_EQ(mit, m.pages.end());

  for (const auto& [p, pg] : m.pages) {
    EXPECT_EQ(as.page_version(p), pg.version);
    PagePayload c = as.content(p);
    ASSERT_EQ(c == nullptr, pg.bytes == nullptr);
    if (c != nullptr) {
      EXPECT_EQ(*c, *pg.bytes);
    }
  }

  // A few probes: mapped-but-never-touched and unmapped pages read as
  // null / zeros / version 0, and content reads match byte for byte.
  for (int i = 0; i < 4; ++i) {
    auto p = static_cast<PageNum>(rng.uniform(0, 0x1000 + 4000));
    if (m.pages.count(p) != 0) continue;
    EXPECT_EQ(as.page_version(p), 0u);
    EXPECT_EQ(as.content(p), nullptr);
    std::vector<std::byte> z = as.read(p, 100, 8);
    EXPECT_EQ(z, std::vector<std::byte>(8, std::byte{0}));
  }
  if (!m.pages.empty()) {
    auto it = m.pages.begin();
    std::advance(it, rng.uniform(0, static_cast<std::int64_t>(
                                        m.pages.size()) - 1));
    auto off = static_cast<std::uint32_t>(rng.uniform(0, kPageSize - 64));
    std::vector<std::byte> got = as.read(it->first, off, 64);
    std::vector<std::byte> want(64, std::byte{0});
    if (it->second.bytes) {
      std::copy_n(it->second.bytes->begin() + off, 64, want.begin());
    }
    EXPECT_EQ(got, want);
  }
}

TEST(AddressSpaceDifferentialTest, RandomOpsMatchReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    AddressSpace as;
    AddressSpaceModel m;

    // A page inside a random VMA (or null if nothing is mapped).
    auto mapped_page = [&]() -> std::optional<PageNum> {
      if (m.vmas.empty()) return std::nullopt;
      const Vma& v = m.vmas[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(m.vmas.size()) - 1))];
      return v.start + static_cast<PageNum>(
                           rng.uniform(0, static_cast<std::int64_t>(
                                              v.npages) - 1));
    };
    auto random_bytes = [&](std::size_t n) {
      std::vector<std::byte> b(n);
      for (auto& x : b) x = static_cast<std::byte>(rng.uniform(0, 255));
      return b;
    };

    for (int step = 0; step < 1500; ++step) {
      int op = static_cast<int>(rng.uniform(0, 99));
      if (op < 6 && m.vmas.size() < 10) {
        // map
        auto n = static_cast<std::uint64_t>(rng.uniform(1, 150));
        Vma v = as.map(n, VmaKind::kAnon);
        EXPECT_EQ(v.id, m.next_id);
        EXPECT_EQ(v.start, m.next_page);
        m.next_id = v.id + 1;
        m.next_page = v.end() + 16;
        m.vmas.push_back(v);
      } else if (op < 12 && m.vmas.size() < 10) {
        // install_vma: below the lowest mapping (descending starts, as a
        // restore does), adjacent to one, or anywhere (may overlap).
        auto n = static_cast<std::uint64_t>(rng.uniform(1, 150));
        PageNum lowest = m.next_page;
        for (const Vma& e : m.vmas) lowest = std::min(lowest, e.start);
        Vma v;
        // Any id at or past the model's cursor is unused.
        v.id = m.next_id + static_cast<std::uint64_t>(rng.uniform(0, 3));
        v.npages = n;
        int where = static_cast<int>(rng.uniform(0, 2));
        if (where == 0 && lowest > n + 32) {
          v.start = lowest - n - static_cast<PageNum>(rng.uniform(0, 16));
        } else if (where == 1 && !m.vmas.empty()) {
          v.start = m.vmas[static_cast<std::size_t>(rng.uniform(
                               0, static_cast<std::int64_t>(m.vmas.size()) -
                                      1))]
                        .end();
        } else {
          v.start = static_cast<PageNum>(rng.uniform(0x100, 0x1000 + 3000));
        }
        if (m.overlaps(v.start, n)) {
          EXPECT_THROW(as.install_vma(v), InvariantError);
        } else {
          as.install_vma(v);
          m.next_id = std::max(m.next_id, v.id + 1);
          m.next_page = std::max(m.next_page, v.end() + 16);
          m.vmas.push_back(v);
        }
      } else if (op < 16 && !m.vmas.empty()) {
        // unmap, preferring a VMA that holds dirty pages
        std::size_t pick = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(m.vmas.size()) - 1));
        for (std::size_t i = 0; i < m.vmas.size(); ++i) {
          const Vma& v = m.vmas[i];
          auto it = m.pages.lower_bound(v.start);
          if (it != m.pages.end() && it->first < v.end() &&
              it->second.dirty) {
            pick = i;
            break;
          }
        }
        Vma v = m.vmas[pick];
        as.unmap(v.id);
        for (PageNum p = v.start; p < v.end(); ++p) {
          m.pages.erase(p);
          m.held.erase(p);
        }
        m.vmas.erase(m.vmas.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (op < 45) {
        // touch, sometimes of an unmapped page
        std::optional<PageNum> p = mapped_page();
        if (!p || rng.chance(0.1)) {
          auto q = static_cast<PageNum>(rng.uniform(0, 0x1000 + 4000));
          if (m.vma_of(q) == nullptr) {
            EXPECT_THROW(as.touch(q), InvariantError);
            continue;
          }
          p = q;
        }
        bool fault = m.dirty_page(m.pages[*p]);
        EXPECT_EQ(as.touch(*p), fault);
      } else if (op < 58) {
        // touch_range, sometimes overrunning its VMA (must not mutate)
        std::optional<PageNum> p = mapped_page();
        if (!p) continue;
        const Vma& v = *m.vma_of(*p);
        std::uint64_t room = v.end() - *p;
        auto count = static_cast<std::uint64_t>(
            rng.uniform(0, static_cast<std::int64_t>(room) + 3));
        if (count > room) {
          EXPECT_THROW(as.touch_range(*p, count), InvariantError);
        } else {
          std::uint64_t faults = 0;
          for (std::uint64_t i = 0; i < count; ++i) {
            faults += m.dirty_page(m.pages[*p + i]) ? 1 : 0;
          }
          EXPECT_EQ(as.touch_range(*p, count), faults);
        }
      } else if (op < 75) {
        // write
        std::optional<PageNum> p = mapped_page();
        if (!p) continue;
        auto len = static_cast<std::size_t>(rng.uniform(1, 64));
        auto off = static_cast<std::uint32_t>(
            rng.uniform(0, static_cast<std::int64_t>(kPageSize - len)));
        std::vector<std::byte> data = random_bytes(len);
        AddressSpaceModel::Page& pg = m.pages[*p];
        auto next = std::make_shared<PageBytes>(
            pg.bytes ? *pg.bytes : PageBytes(kPageSize, std::byte{0}));
        std::copy(data.begin(), data.end(), next->begin() + off);
        auto h = m.held.find(*p);
        if (h != m.held.end() && pg.bytes && h->second == as.content(*p)) {
          ++m.cow_clones;
        }
        pg.bytes = next;
        bool fault = m.dirty_page(pg);
        EXPECT_EQ(as.write(*p, off, data), fault);
        if (h != m.held.end()) {
          // The held handle still shows the bytes from before the write.
          EXPECT_NE(h->second.get(), as.content(*p).get());
        }
      } else if (op < 82) {
        // install_content (restore path); the test may keep the handle
        std::optional<PageNum> p = mapped_page();
        if (!p) continue;
        auto bytes =
            std::make_shared<const PageBytes>(random_bytes(kPageSize));
        AddressSpaceModel::Page& pg = m.pages[*p];
        pg.bytes = bytes;
        m.dirty_page(pg);
        as.install_content(*p, bytes);
        if (rng.chance(0.5)) {
          m.held[*p] = bytes;
        } else {
          m.held.erase(*p);
        }
      } else if (op < 88) {
        // take or drop a checkpoint-style handle on a content page
        std::optional<PageNum> p = mapped_page();
        if (!p) continue;
        if (m.held.count(*p) != 0) {
          m.held.erase(*p);
        } else if (PagePayload c = as.content(*p)) {
          m.held[*p] = c;
        }
      } else if (op < 96) {
        as.clear_soft_dirty();
        m.tracking = true;
        m.clear_dirty();
      } else {
        as.disable_tracking();
        m.tracking = false;
        m.clear_dirty();
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(as, m, rng)) << "step " << step;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ----------------------------------------------------------------- CPU ----

TEST(CpuSetTest, ConsumeAdvancesUsage) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  s.spawn([](CpuSet& c) -> sim::task<> { co_await c.consume(10_ms); }(cpu));
  s.run();
  EXPECT_EQ(cpu.usage(), 10_ms);
  EXPECT_EQ(s.now(), 10_ms);
}

TEST(CpuSetTest, FreezeSuspendsBurst) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  Time finished = -1;
  s.spawn([](sim::Simulation& ss, CpuSet& c, Time& f) -> sim::task<> {
    co_await c.consume(10_ms);
    f = ss.now();
  }(s, cpu, finished));
  s.call_after(4_ms, [&] { cpu.freeze(); });
  s.call_after(9_ms, [&] { cpu.unfreeze(); });
  s.run();
  // 4ms ran, frozen for 5ms, then the remaining 6ms: ends at 15ms.
  EXPECT_EQ(finished, 15_ms);
  EXPECT_EQ(cpu.usage(), 10_ms);
}

TEST(CpuSetTest, UsageExcludesFrozenTime) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  s.spawn([](CpuSet& c) -> sim::task<> { co_await c.consume(20_ms); }(cpu));
  s.call_after(5_ms, [&] { cpu.freeze(); });
  s.run_until(10_ms);
  EXPECT_EQ(cpu.usage(), 5_ms);  // only pre-freeze time counted
  cpu.unfreeze();
  s.run();
  EXPECT_EQ(cpu.usage(), 20_ms);
}

TEST(CpuSetTest, ConsumeWhileFrozenWaitsForThaw) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  cpu.freeze();
  Time finished = -1;
  s.spawn([](sim::Simulation& ss, CpuSet& c, Time& f) -> sim::task<> {
    co_await c.consume(3_ms);
    f = ss.now();
  }(s, cpu, finished));
  s.call_after(10_ms, [&] { cpu.unfreeze(); });
  s.run();
  EXPECT_EQ(finished, 13_ms);
}

TEST(CpuSetTest, ParallelBurstsOnDedicatedCores) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    s.spawn([](CpuSet& c, int& d) -> sim::task<> {
      co_await c.consume(10_ms);
      ++d;
    }(cpu, done));
  }
  s.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(s.now(), 10_ms);        // parallel, not serialized
  EXPECT_EQ(cpu.usage(), 40_ms);    // 4 cores x 10ms
}

TEST(CpuSetTest, FreezeAtExactCompletionInstant) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  bool finished = false;
  s.spawn([](CpuSet& c, bool& f) -> sim::task<> {
    co_await c.consume(5_ms);
    f = true;
  }(cpu, finished));
  s.call_after(5_ms, [&] { cpu.freeze(); });
  s.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cpu.usage(), 5_ms);
}

TEST(CpuSetTest, ZeroConsumeCompletesInline) {
  sim::Simulation s;
  CpuSet cpu(s, nullptr);
  bool finished = false;
  s.spawn([](CpuSet& c, bool& f) -> sim::task<> {
    co_await c.consume(0);
    f = true;
  }(cpu, finished));
  EXPECT_TRUE(finished);
}

// ---------------------------------------------------------- Filesystem ----

TEST(FilesystemTest, CreateLookupRoundTrip) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/data/file.db");
  EXPECT_EQ(fs.lookup("/data/file.db"), ino);
  EXPECT_EQ(fs.lookup("/missing"), 0u);
  EXPECT_EQ(fs.attr(ino)->size, 0u);
}

TEST(FilesystemTest, WriteReadThroughCache) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 10, bytes_of("hello"), 1);
  auto back = fs.read(ino, 10, 5);
  EXPECT_EQ(0, std::memcmp(back.data(), "hello", 5));
  EXPECT_EQ(fs.attr(ino)->size, 15u);
  EXPECT_EQ(store.writes(), 0u);  // nothing flushed yet
}

TEST(FilesystemTest, WriteSpanningPages) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  std::vector<std::byte> big(kPageSize + 100, std::byte{0xAB});
  fs.write(ino, kPageSize - 50, big, 1);
  auto back = fs.read(ino, kPageSize - 50, big.size());
  EXPECT_EQ(back, big);
  EXPECT_EQ(fs.cached_page_count(), 3u);
}

TEST(FilesystemTest, WritebackFlushesDirtyKeepsDnc) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("x"), 1);
  EXPECT_EQ(fs.dirty_page_count(), 1u);
  EXPECT_EQ(fs.dnc_page_count(), 1u);
  EXPECT_EQ(fs.writeback(100), 1u);
  EXPECT_EQ(fs.dirty_page_count(), 0u);
  EXPECT_EQ(fs.dnc_page_count(), 1u);  // DNC survives writeback (§III)
  EXPECT_EQ(store.writes(), 1u);
}

TEST(FilesystemTest, HarvestDncClearsOnlyDnc) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("abc"), 1);
  auto h = fs.harvest_dnc();
  EXPECT_EQ(h.pages.size(), 1u);
  EXPECT_GE(h.inodes.size(), 1u);
  EXPECT_EQ(fs.dnc_page_count(), 0u);
  EXPECT_EQ(fs.dirty_page_count(), 1u);  // still needs writeback
  // Second harvest with no new writes is empty.
  auto h2 = fs.harvest_dnc();
  EXPECT_TRUE(h2.pages.empty());
  EXPECT_TRUE(h2.inodes.empty());
}

TEST(FilesystemTest, RewriteAfterHarvestSetsDncAgain) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("a"), 1);
  fs.harvest_dnc();
  fs.write(ino, 0, bytes_of("b"), 2);
  EXPECT_EQ(fs.dnc_page_count(), 1u);
}

TEST(FilesystemTest, ApplyDncReconstitutesFileOnBackup) {
  FakeStore store_p, store_b;
  Filesystem primary(store_p), backup(store_b);
  auto ino = primary.create("/db");
  primary.write(ino, 100, bytes_of("committed"), 1);
  auto h = primary.harvest_dnc();

  backup.apply_dnc(h, 2);
  auto back = backup.read(ino, 100, 9);
  EXPECT_EQ(0, std::memcmp(back.data(), "committed", 9));
  EXPECT_EQ(backup.lookup("/db"), ino);
  EXPECT_EQ(backup.attr(ino)->size, 109u);
}

TEST(FilesystemTest, ReadFallsBackToDiskAfterCacheFlush) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.write(ino, 0, bytes_of("disk-data"), 1);
  fs.sync_all();
  // Simulate cache eviction by reading through a fresh Filesystem over the
  // same store: block must come from disk.
  Filesystem fs2(store);
  auto ino2 = fs2.create("/f");
  (void)ino2;
  auto back = fs2.read(ino2, 0, 9);
  EXPECT_EQ(0, std::memcmp(back.data(), "disk-data", 9));
}

TEST(FilesystemTest, SetAttrMarksInodeDnc) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  fs.harvest_dnc();
  fs.set_attr(ino, 1000, 1000, 0600);
  auto h = fs.harvest_dnc();
  ASSERT_EQ(h.inodes.size(), 1u);
  EXPECT_EQ(h.inodes[0].attr.uid, 1000u);
  EXPECT_EQ(h.inodes[0].attr.mode, 0600u);
}

TEST(FilesystemTest, FullPageOverwriteOfSharedPageKeepsOldBytes) {
  FakeStore store;
  Filesystem fs(store);
  auto ino = fs.create("/f");
  std::vector<std::byte> a(kPageSize, std::byte{0xAA});
  fs.write(ino, 0, a, 1);
  DncHarvest h = fs.harvest_dnc();
  ASSERT_EQ(h.pages.size(), 1u);
  fs.sync_all();
  PagePayload on_disk = store.read_block(ino, 0);
  EXPECT_EQ(on_disk, h.pages[0].data);  // flushed by handle, not copied
  std::vector<std::byte> b(kPageSize, std::byte{0xBB});
  fs.write(ino, 0, b, 2);
  EXPECT_EQ(fs.cow_clones(), 1u);
  EXPECT_EQ(*h.pages[0].data, a);
  EXPECT_EQ(*on_disk, a);
  EXPECT_EQ(fs.read(ino, 0, kPageSize), b);
  // Unshared again (the disk still holds `a`, the cache its own page):
  // the next write lands in place.
  fs.write(ino, 10, bytes_of("z"), 3);
  EXPECT_EQ(fs.cow_clones(), 1u);
}

/// Block store that records every flushed (inode, page) in order, with the
/// handle and a snapshot of its bytes at flush time.
class RecordingStore : public BlockStore {
 public:
  struct Flush {
    InodeNum ino;
    std::uint64_t page;
    PagePayload data;
    std::vector<std::byte> snapshot;
  };
  void write_block(InodeNum ino, std::uint64_t page,
                   PagePayload data) override {
    flushes.push_back(Flush{ino, page, data, *data});
    blocks_[{ino, page}] = std::move(data);
  }
  PagePayload read_block(InodeNum ino, std::uint64_t page) const override {
    auto it = blocks_.find({ino, page});
    return it == blocks_.end() ? nullptr : it->second;
  }
  std::vector<Flush> flushes;

 private:
  std::map<std::pair<InodeNum, std::uint64_t>, PagePayload> blocks_;
};

/// Reference model for the differential test below: std::map page cache
/// with per-page bytes and flags, plus the disk contents.
struct FsModel {
  struct Page {
    std::vector<std::byte> bytes;
    bool dirty = false;
    bool dnc = false;
  };
  using Key = std::pair<InodeNum, std::uint64_t>;
  std::map<Key, Page> cache;
  std::map<Key, std::vector<std::byte>> disk;
  std::map<std::string, InodeNum> paths;
  std::map<InodeNum, std::uint64_t> sizes;
  InodeNum next_ino = 100;

  std::vector<std::byte> page_bytes(const Key& k) const {
    if (auto c = cache.find(k); c != cache.end()) return c->second.bytes;
    if (auto d = disk.find(k); d != disk.end()) return d->second;
    return std::vector<std::byte>(kPageSize, std::byte{0});
  }
  std::uint64_t count(bool Page::*flag) const {
    std::uint64_t n = 0;
    for (const auto& [k, p] : cache) n += (p.*flag) ? 1 : 0;
    return n;
  }
};

TEST(FilesystemDifferentialTest, RandomOpsMatchReferenceModel) {
  const std::vector<std::string> names = {"/a", "/b", "/c"};
  // Pages cluster below 12 and just below and above the 64- and 128-page
  // bitmap word edges, so scans cross words and files of three sizes mix.
  auto pick_page = [](Rng& r) -> std::uint64_t {
    double u = r.uniform01();
    if (u < 0.5) return static_cast<std::uint64_t>(r.uniform(0, 11));
    if (u < 0.8) return static_cast<std::uint64_t>(r.uniform(60, 69));
    return static_cast<std::uint64_t>(r.uniform(126, 131));
  };
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    RecordingStore store;
    Filesystem fs(store);
    FsModel m;
    // A sample of harvested and flushed payloads, kept alive with their
    // bytes at hand-over time; harvests kept for apply_dnc.
    std::vector<std::pair<PagePayload, std::vector<std::byte>>> held;
    std::vector<std::pair<DncHarvest, std::vector<std::vector<std::byte>>>>
        harvests;
    auto hold = [&held](PagePayload p, std::vector<std::byte> bytes) {
      if (held.size() >= 32) held.erase(held.begin());
      held.emplace_back(std::move(p), std::move(bytes));
    };

    auto random_ino = [&]() -> InodeNum {
      if (m.paths.empty()) return 0;
      auto it = m.paths.begin();
      std::advance(it, rng.uniform(0, static_cast<std::int64_t>(
                                          m.paths.size()) - 1));
      return it->second;
    };

    for (int step = 0; step < 1500; ++step) {
      int op = static_cast<int>(rng.uniform(0, 99));
      InodeNum ino = random_ino();
      if (op < 8 || ino == 0) {
        // create / truncate
        const std::string& name = names[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(names.size()) - 1))];
        InodeNum got = fs.create(name);
        auto [it, fresh] = m.paths.try_emplace(name, m.next_ino);
        if (fresh) ++m.next_ino;
        ASSERT_EQ(got, it->second);
        m.sizes[got] = 0;
        std::erase_if(m.cache, [&](const auto& kv) {
          return kv.first.first == got;
        });
      } else if (op < 45) {
        // write: whole aligned pages, or any span across page edges
        std::uint64_t off = 0;
        std::uint64_t len = 0;
        if (rng.chance(0.5)) {
          off = pick_page(rng) * kPageSize;
          len = static_cast<std::uint64_t>(rng.uniform(1, 3)) * kPageSize;
        } else {
          off = pick_page(rng) * kPageSize +
                static_cast<std::uint64_t>(rng.uniform(0, kPageSize - 1));
          len = static_cast<std::uint64_t>(rng.uniform(1, 2 * kPageSize + 9));
        }
        std::vector<std::byte> data(len);
        const std::uint64_t fill = rng.next();
        for (std::uint64_t i = 0; i < len; ++i) {
          data[i] = static_cast<std::byte>(splitmix64(fill + i));
        }
        fs.write(ino, off, data, static_cast<std::uint64_t>(step));
        for (std::uint64_t pos = off; pos < off + len;) {
          FsModel::Key k{ino, pos / kPageSize};
          std::uint64_t in = pos % kPageSize;
          std::uint64_t n = std::min(kPageSize - in, off + len - pos);
          if (!m.cache.contains(k)) m.cache[k].bytes = m.page_bytes(k);
          FsModel::Page& p = m.cache[k];
          std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(pos - off),
                      n, p.bytes.begin() + static_cast<std::ptrdiff_t>(in));
          p.dirty = p.dnc = true;
          pos += n;
        }
        m.sizes[ino] = std::max(m.sizes[ino], off + len);
      } else if (op < 60) {
        // read, checked against the model
        std::uint64_t off =
            pick_page(rng) * kPageSize +
            static_cast<std::uint64_t>(rng.uniform(0, 3 * kPageSize - 1));
        auto len = static_cast<std::uint64_t>(rng.uniform(0, 2 * kPageSize));
        std::vector<std::byte> want;
        for (std::uint64_t pos = off; pos < off + len;) {
          std::vector<std::byte> page = m.page_bytes({ino, pos / kPageSize});
          std::uint64_t in = pos % kPageSize;
          std::uint64_t n = std::min(kPageSize - in, off + len - pos);
          want.insert(want.end(),
                      page.begin() + static_cast<std::ptrdiff_t>(in),
                      page.begin() + static_cast<std::ptrdiff_t>(in + n));
          pos += n;
        }
        ASSERT_EQ(fs.read(ino, off, len), want);
      } else if (op < 75 || op >= 97) {
        // writeback(k) for small k, or sync_all: the first dirty pages in
        // (inode, page) order, exactly those, in that order
        bool all = op >= 97;
        auto k = static_cast<std::uint64_t>(rng.uniform(0, 5));
        std::vector<FsModel::Key> want;
        for (auto& [key, p] : m.cache) {
          if (!p.dirty || (!all && want.size() >= k)) continue;
          want.push_back(key);
          p.dirty = false;
          m.disk[key] = p.bytes;
        }
        const std::size_t before = 0;
        if (all) {
          fs.sync_all();
        } else {
          ASSERT_EQ(fs.writeback(k), want.size());
        }
        ASSERT_EQ(store.flushes.size() - before, want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          const RecordingStore::Flush& f = store.flushes[before + i];
          ASSERT_EQ(FsModel::Key(f.ino, f.page), want[i]);
          ASSERT_EQ(f.snapshot, m.disk[want[i]]);
          if (rng.chance(0.3)) hold(f.data, f.snapshot);
        }
        store.flushes.clear();
      } else if (op < 88) {
        // harvest_dnc: every DNC page in (inode, page) order
        DncHarvest h = fs.harvest_dnc();
        std::vector<FsModel::Key> want;
        for (auto& [key, p] : m.cache) {
          if (!p.dnc) continue;
          want.push_back(key);
          p.dnc = false;
        }
        ASSERT_EQ(h.pages.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          const DncPageEntry& e = h.pages[i];
          ASSERT_EQ(FsModel::Key(e.ino, e.page_index), want[i]);
          ASSERT_EQ(*e.data, m.cache[want[i]].bytes);
          if (rng.chance(0.3)) hold(e.data, *e.data);
        }
        for (const DncInodeEntry& ie : h.inodes) {
          ASSERT_EQ(ie.attr.size, m.sizes[ie.attr.ino]);
        }
        if (harvests.size() < 8) {
          std::vector<std::vector<std::byte>> snap;
          for (const DncPageEntry& e : h.pages) snap.push_back(*e.data);
          harvests.emplace_back(std::move(h), std::move(snap));
        }
      } else if (!harvests.empty()) {
        // apply_dnc of an earlier harvest: its pages land dirty, not DNC,
        // and its inode attributes come back
        const auto& [h, snap] = harvests[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(harvests.size()) - 1))];
        for (std::size_t i = 0; i < h.pages.size(); ++i) {
          ASSERT_EQ(*h.pages[i].data, snap[i]);  // still as harvested
        }
        fs.apply_dnc(h, static_cast<std::uint64_t>(step));
        for (const DncInodeEntry& ie : h.inodes) {
          m.sizes[ie.attr.ino] = ie.attr.size;
        }
        for (const DncPageEntry& e : h.pages) {
          FsModel::Page& p = m.cache[{e.ino, e.page_index}];
          p.bytes = *e.data;
          p.dirty = true;
          p.dnc = false;
        }
      }

      // After every step: counts, sizes, and every held handle (harvest
      // entries and flushed blocks) still carries its old bytes.
      ASSERT_EQ(fs.dirty_page_count(), m.count(&FsModel::Page::dirty));
      ASSERT_EQ(fs.dnc_page_count(), m.count(&FsModel::Page::dnc));
      ASSERT_EQ(fs.cached_page_count(), m.cache.size());
      for (const auto& [name, i] : m.paths) {
        ASSERT_EQ(fs.lookup(name), i);
        ASSERT_EQ(fs.attr(i)->size, m.sizes[i]);
      }
      for (const auto& [payload, bytes] : held) ASSERT_EQ(*payload, bytes);
    }
    // Every page the cache visits comes out in (inode, page) order.
    std::vector<FsModel::Key> visited;
    fs.for_each_cached_page(
        [&](InodeNum i, std::uint64_t page, const PageBytes& bytes) {
          visited.emplace_back(i, page);
          EXPECT_EQ(bytes, m.cache[FsModel::Key(i, page)].bytes);
        });
    std::vector<FsModel::Key> want;
    for (const auto& [key, p] : m.cache) want.push_back(key);
    EXPECT_EQ(visited, want);
    EXPECT_GT(fs.cow_clones(), 0u);
  }
}

// --------------------------------------------------------------- Kernel ----

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(sim_, nullptr, "primary", store_) {}

  sim::Simulation sim_;
  FakeStore store_;
  Kernel kernel_;
};

TEST_F(KernelTest, ContainerHasFullNamespaceSet) {
  Container& c = kernel_.create_container("web");
  EXPECT_EQ(c.namespaces().size(),
            static_cast<std::size_t>(kNamespaceTypeCount));
  EXPECT_NE(c.net_ns_id(), 0u);
  EXPECT_GE(c.mounts().size(), 5u);
  EXPECT_GE(c.devices().size(), 5u);
}

TEST_F(KernelTest, ProcessAndThreadCreation) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  kernel_.create_thread(p.pid());
  kernel_.create_thread(p.pid());
  EXPECT_EQ(p.threads().size(), 3u);  // main + 2
  EXPECT_EQ(kernel_.total_threads(c.id()), 3u);
  EXPECT_EQ(kernel_.container_processes(c.id()).size(), 1u);
}

TEST_F(KernelTest, FreezerStopsCpuAndMarksThreads) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  Time finished = -1;
  sim_.spawn([](sim::Simulation& s, CpuSet& cpu, Time& f) -> sim::task<> {
    co_await cpu.consume(10_ms);
    f = s.now();
  }(sim_, c.cpu(), finished));
  sim_.call_after(3_ms, [&] { kernel_.freeze_container(c.id()); });
  sim_.call_after(8_ms, [&] { kernel_.thaw_container(c.id()); });
  sim_.run();
  EXPECT_EQ(finished, 15_ms);
  EXPECT_FALSE(p.threads()[0].frozen);
}

TEST_F(KernelTest, FreezeForcesSyscallReturn) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  p.threads()[0].in_syscall = true;
  kernel_.freeze_container(c.id());
  EXPECT_TRUE(p.threads()[0].frozen);
  EXPECT_FALSE(p.threads()[0].in_syscall);
}

TEST_F(KernelTest, MountFiresFtraceHookAndBumpsVersion) {
  Container& c = kernel_.create_container("web");
  auto v0 = c.infrequent_state_version();
  int hook_calls = 0;
  kernel_.ftrace().attach("do_mount",
                          [&](const TraceEvent&) { ++hook_calls; });
  kernel_.do_mount(c.id(), {"tmpfs", "/scratch", "tmpfs", 0});
  EXPECT_EQ(hook_calls, 1);
  EXPECT_GT(c.infrequent_state_version(), v0);
}

TEST_F(KernelTest, MknodAndSetnsAndCgroupFireHooks) {
  Container& c = kernel_.create_container("web");
  int hooks = 0;
  for (const char* fn : {"mknod", "setns", "cgroup_attach_task"}) {
    kernel_.ftrace().attach(fn, [&](const TraceEvent&) { ++hooks; });
  }
  kernel_.mknod(c.id(), {"/dev/shm0", 1, 14});
  kernel_.setns_config(c.id(), NamespaceType::kNet, 8192);
  kernel_.cgroup_modify(c.id(), 100000, 1 << 30);
  EXPECT_EQ(hooks, 3);
}

TEST_F(KernelTest, MmapFileCountsAsFileMapping) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  auto v0 = c.infrequent_state_version();
  kernel_.mmap_file(p.pid(), 50, "/lib/libc.so.6");
  kernel_.mmap_file(p.pid(), 20, "/lib/libssl.so");
  EXPECT_EQ(kernel_.total_file_mappings(c.id()), 2u);
  EXPECT_GT(c.infrequent_state_version(), v0);
}

TEST_F(KernelTest, FdAccounting) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  p.install_fd(FdEntry{.kind = FdKind::kFile, .inode = 5});
  p.install_fd(FdEntry{.kind = FdKind::kSocket, .socket = 77});
  p.install_fd(FdEntry{.kind = FdKind::kSocket, .socket = 78});
  EXPECT_EQ(kernel_.total_fds(c.id()), 3u);
  EXPECT_EQ(kernel_.total_sockets(c.id()), 2u);
}

TEST_F(KernelTest, DestroyProcessRemovesFromContainer) {
  Container& c = kernel_.create_container("web");
  Process& p = kernel_.create_process(c.id(), "server");
  Pid pid = p.pid();
  kernel_.destroy_process(pid);
  EXPECT_EQ(kernel_.process(pid), nullptr);
  EXPECT_TRUE(c.pids().empty());
}

TEST_F(KernelTest, InstallContainerPreservesId) {
  Container& c = kernel_.install_container(42, "restored");
  EXPECT_EQ(c.id(), 42);
  EXPECT_EQ(kernel_.container(42), &c);
  // Next create does not collide.
  Container& d = kernel_.create_container("fresh");
  EXPECT_GT(d.id(), 42);
}

TEST_F(KernelTest, InstallProcessPreservesPid) {
  kernel_.install_container(1, "c");
  Process& p = kernel_.install_process(1, 500, "restored");
  EXPECT_EQ(p.pid(), 500);
  Process& q = kernel_.create_process(1, "fresh");
  EXPECT_GT(q.pid(), 500);
}

TEST_F(KernelTest, FreezeIsIdempotent) {
  Container& c = kernel_.create_container("web");
  kernel_.freeze_container(c.id());
  kernel_.freeze_container(c.id());
  EXPECT_TRUE(c.frozen());
  kernel_.thaw_container(c.id());
  kernel_.thaw_container(c.id());
  EXPECT_FALSE(c.frozen());
}

}  // namespace
}  // namespace nlc::kern
