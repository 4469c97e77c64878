// Simulated process address space: VMAs, 4 KiB pages, soft-dirty tracking.
//
// Two kinds of pages coexist (DESIGN.md §5.3):
//  * content pages — written through write(); carry real bytes that the
//    checkpoint engine captures, so end-to-end consistency is observable;
//  * accounting pages — dirtied through touch(); carry only a version
//    stamp. They cost a full kPageSize on the wire like real pages but do
//    not occupy 4 KiB of simulator RAM, which keeps 100K-page working sets
//    cheap.
//
// Page payloads are immutable refcounted buffers (DESIGN.md §7): content()
// hands out a shared handle, and the whole checkpoint pipeline (harvest ->
// image -> wire -> page store -> restore) passes that handle around instead
// of deep-copying 4 KiB per stage. write() copies-on-write only when the
// payload is shared, so a post-thaw write can never mutate bytes already
// captured in an in-flight or committed checkpoint image.
//
// Soft-dirty tracking mirrors Linux's /proc/pid/clear_refs + pagemap
// protocol: clear_soft_dirty() arms tracking and clears the bits;
// dirty_pages() is the set a pagemap scan would report. The *cost* of the
// scan (per mapped page) is charged by the checkpoint engine, not here.
//
// Layout (DESIGN.md §10): one dense page table per VMA — a PageState array
// indexed by `page - start` and a soft-dirty bitmap, one bit per page —
// kept in a start-sorted index. A page lookup is one binary search (after
// a last-hit check); the dirty list is a word scan of the bitmaps, so it
// comes out ascending; clearing the bits is one fill per bitmap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kernel/ids.hpp"
#include "kernel/page.hpp"
#include "util/bytes.hpp"

namespace nlc::kern {

enum class VmaKind : std::uint8_t {
  kAnon,      // heap / anonymous mmap
  kStack,
  kFileMap,   // memory-mapped file (e.g. a dynamically linked library)
  kShared,    // shared memory region (parasite <-> agent channel)
};

struct Vma {
  std::uint64_t id = 0;
  PageNum start = 0;        // first page number
  std::uint64_t npages = 0;
  VmaKind kind = VmaKind::kAnon;
  std::string backing_file;  // for kFileMap
  std::uint64_t version = 0; // bumped when the mapping itself changes

  PageNum end() const { return start + npages; }
  bool contains(PageNum p) const { return p >= start && p < end(); }
};

class AddressSpace {
  struct Table;

 public:
  /// Per-page state: monotone version plus the (possibly null) content
  /// payload. A page is resident iff its version is non-zero (every path
  /// that makes a page resident bumps it). Exposed so the checkpoint engine
  /// reads version and content in one access.
  struct PageState {
    std::uint64_t version = 0;
    std::shared_ptr<PageBytes> payload;  // null for accounting pages
  };

  /// One dirty-list entry: the page number plus a direct pointer into its
  /// VMA's page table. Valid until the next map/unmap/install_vma.
  struct DirtyRef {
    PageNum page = 0;
    const PageState* state = nullptr;
  };

  /// Read-only view of the resident pages in ascending page order
  /// (`for (const auto& [page, st] : mm.page_states())`). Invalidated like
  /// DirtyRef.
  class PageStates {
   public:
    class iterator {
     public:
      using value_type = std::pair<PageNum, const PageState&>;
      value_type operator*() const {
        return {table_->start + index_, table_->pages[index_]};
      }
      iterator& operator++() {
        ++index_;
        settle();
        return *this;
      }
      bool operator==(const iterator& o) const {
        return table_ == o.table_ && index_ == o.index_;
      }

     private:
      friend class PageStates;
      iterator(const Table* table, const Table* end)
          : table_(table), end_(end) {
        settle();
      }
      /// Advances to the next resident page (or to end()).
      void settle() {
        for (; table_ != end_; ++table_, index_ = 0) {
          for (; index_ < table_->pages.size(); ++index_) {
            if (table_->pages[index_].version != 0) return;
          }
        }
      }
      const Table* table_;
      const Table* end_;
      std::uint64_t index_ = 0;
    };

    iterator begin() const { return {first_, last_}; }
    iterator end() const { return {last_, last_}; }
    std::uint64_t size() const { return size_; }

   private:
    friend class AddressSpace;
    PageStates(const Table* first, const Table* last, std::uint64_t size)
        : first_(first), last_(last), size_(size) {}
    const Table* first_;
    const Table* last_;
    std::uint64_t size_;
  };

  /// Maps a new VMA of `npages`; returns its descriptor. Page numbers are
  /// allocated from a monotone bump allocator (no reuse; simulated
  /// processes are short-lived enough).
  Vma map(std::uint64_t npages, VmaKind kind,
          std::string backing_file = {});

  /// Unmaps the VMA with id `vma_id` (drops its pages and content).
  void unmap(std::uint64_t vma_id);

  /// Restore path: recreates a VMA at its checkpointed page range so page
  /// numbers keep their identity across failover.
  void install_vma(const Vma& v);

  /// Moves the allocation cursor to at least `base`. The kernel gives each
  /// process a disjoint page-number range (pid-keyed) so page numbers are
  /// globally unique within a host — required for container-wide page
  /// images.
  void set_page_base(PageNum base) {
    if (next_page_ < base) next_page_ = base;
  }

  /// Mappings in the order they were created (checkpoint images serialize
  /// this order).
  const std::vector<Vma>& vmas() const { return vmas_; }
  const Vma* find_vma(std::uint64_t vma_id) const;

  std::uint64_t mapped_pages() const { return mapped_pages_; }
  std::uint64_t mapped_bytes() const { return mapped_pages_ * kPageSize; }

  /// Dirties `page` without content. Returns true if the page transitioned
  /// clean->dirty under tracking (i.e. a soft-dirty write fault occurred,
  /// which costs runtime overhead). Throws on an unmapped page.
  bool touch(PageNum page);

  /// Dirties `count` pages starting at `start`; returns the number of
  /// clean->dirty transitions (write faults). The whole range must lie in
  /// one VMA; otherwise it throws before touching any page.
  std::uint64_t touch_range(PageNum start, std::uint64_t count);

  /// Content write within one page; dirties it. Returns true on a write
  /// fault (as touch()). Clones the payload first iff a checkpoint handle
  /// to it is still live (copy-on-write).
  bool write(PageNum page, std::uint32_t offset, std::span<const std::byte> data);

  /// Reads content previously written to `page`. Unwritten bytes (and
  /// unmapped pages) read as 0.
  std::vector<std::byte> read(PageNum page, std::uint32_t offset,
                              std::uint32_t len) const;

  /// Full-page content handle for the checkpoint engine; null for
  /// accounting pages (no stored bytes) and unmapped pages. The returned
  /// payload is immutable: holding it pins the bytes as of this call
  /// regardless of later writes.
  PagePayload content(PageNum page) const;

  /// Installs page content wholesale (restore path) into a mapped page.
  /// Zero-copy: adopts the shared payload; a later write() clones before
  /// mutating while the source image still holds the handle.
  void install_content(PageNum page, PagePayload data);

  /// Arms soft-dirty tracking and clears all soft-dirty bits
  /// (/proc/pid/clear_refs). Idempotent.
  void clear_soft_dirty();

  /// Disables tracking (stock execution: no write-fault overhead).
  void disable_tracking();

  bool tracking() const { return tracking_; }

  /// Pages dirtied since the last clear_soft_dirty(), ascending, each once
  /// — what a pagemap scan reports. Built by a word scan of the per-VMA
  /// soft-dirty bitmaps.
  std::vector<DirtyRef> dirty_pages() const;

  /// All resident pages (ever touched/written), ascending. Full dumps walk
  /// this instead of probing every page of every VMA.
  PageStates page_states() const;

  /// Per-page monotone version (0 for non-resident and unmapped pages), for
  /// tests asserting incremental semantics.
  std::uint64_t page_version(PageNum page) const;

  /// Number of copy-on-write payload clones performed (a write hit a page
  /// whose payload was still referenced by a checkpoint image/store).
  std::uint64_t cow_clones() const { return cow_clones_; }

 private:
  /// One VMA's page table: PageState indexed by `page - start`, plus a
  /// soft-dirty bitmap with one bit per page.
  struct Table {
    PageNum start = 0;
    std::vector<PageState> pages;
    std::vector<std::uint64_t> dirty;
    std::uint64_t resident = 0;

    PageNum end() const { return start + pages.size(); }
    bool contains(PageNum p) const { return p >= start && p < end(); }
  };

  /// The first table that starts after `page`.
  std::vector<Table>::const_iterator table_after(PageNum page) const;
  /// The table holding `page`, or null if no VMA maps it.
  const Table* find_table(PageNum page) const;
  /// As find_table, but throws on an unmapped page and remembers the hit.
  Table& mapped_table(PageNum page);
  /// Inserts an empty page table for `v` at its start-sorted position.
  void add_table(const Vma& v);
  /// Bumps the version of the page at `index`; counts it resident on its
  /// first bump.
  PageState& bump(Table& t, std::uint64_t index);
  /// Sets the soft-dirty bit iff tracking is armed; true on a clean->dirty
  /// transition (a soft-dirty write fault).
  bool mark_dirty(Table& t, std::uint64_t index);

  std::vector<Vma> vmas_;
  /// One dense page table per VMA, sorted by start page.
  std::vector<Table> tables_;
  /// Index into tables_ of the last mapped_table() hit.
  std::size_t hint_ = 0;
  std::uint64_t next_vma_id_ = 1;
  PageNum next_page_ = 0x1000;  // arbitrary non-zero base
  std::uint64_t mapped_pages_ = 0;
  std::uint64_t resident_pages_ = 0;
  bool tracking_ = false;
  std::uint64_t cow_clones_ = 0;
};

}  // namespace nlc::kern
