// Backup-side committed-page stores.
//
// Stock CRIU keeps incremental checkpoints as a linked list of directories;
// for every received page it walks the list to find and drop a previous
// copy, so per-page cost grows with the number of checkpoints taken — fatal
// at one checkpoint every 30 ms. NiLiCon replaces this with a four-level
// radix tree mimicking hardware page tables (§V-A), making the per-page
// cost constant. Both are implemented for the Table I ablation; store()
// returns the number of node/directory visits so the backup agent can
// charge simulated time per visit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>

#include "criu/image.hpp"

namespace nlc::criu {

class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Opens a new incremental checkpoint (a new directory / generation).
  virtual void begin_checkpoint(std::uint64_t epoch) = 0;

  /// Inserts/overwrites one page; returns the number of structure visits
  /// performed (the unit the backup CPU cost model charges). Storing a
  /// record copies its shared payload handle, not the page bytes.
  virtual std::uint64_t store(const PageRecord& rec) = 0;

  /// Latest committed copy of `page`, or nullptr.
  virtual const PageRecord* lookup(kern::PageNum page) const = 0;

  /// Number of distinct pages held.
  virtual std::uint64_t page_count() const = 0;

  /// All pages (restore walks this to materialize memory images).
  virtual std::vector<const PageRecord*> all_pages() const = 0;
};

/// Stock CRIU: linked list of per-checkpoint directories.
class ListPageStore final : public PageStore {
 public:
  void begin_checkpoint(std::uint64_t epoch) override {
    dirs_.push_back(Dir{epoch, {}});
  }

  std::uint64_t store(const PageRecord& rec) override {
    NLC_CHECK_MSG(!dirs_.empty(), "store before begin_checkpoint");
    // Walk earlier checkpoint directories newest-first looking for the
    // previous copy of this page to drop. At most one earlier directory
    // can hold it (every store drops the older copy), so the walk stops
    // at the first hit: the O(#checkpoints) behaviour of §V-A remains for
    // pages not stored recently (the walk reaches the oldest directory),
    // while a page rewritten every checkpoint costs a constant 2 visits.
    std::uint64_t visits = 0;
    auto last = std::prev(dirs_.end());
    for (auto it = std::make_reverse_iterator(last); it != dirs_.rend();
         ++it) {
      ++visits;
      if (it->pages.erase(rec.page) > 0) break;
    }
    ++visits;
    last->pages[rec.page] = rec;
    return visits;
  }

  const PageRecord* lookup(kern::PageNum page) const override {
    for (auto it = dirs_.rbegin(); it != dirs_.rend(); ++it) {
      auto p = it->pages.find(page);
      if (p != it->pages.end()) return &p->second;
    }
    return nullptr;
  }

  std::uint64_t page_count() const override {
    std::uint64_t n = 0;
    for (const auto& d : dirs_) n += d.pages.size();
    return n;
  }

  std::vector<const PageRecord*> all_pages() const override {
    std::vector<const PageRecord*> out;
    for (const auto& d : dirs_) {
      // NLC_LINT_OK(unordered-iter): hash-order collection; sorted below
      for (const auto& [num, rec] : d.pages) out.push_back(&rec);
    }
    // A page lives in at most one directory, so sorting by page number
    // yields one globally ascending walk — the same order RadixPageStore
    // produces — instead of leaking the hash order to restore and to every
    // store-equivalence mirror.
    std::sort(out.begin(), out.end(),
              [](const PageRecord* a, const PageRecord* b) {
                return a->page < b->page;
              });
    return out;
  }

  std::size_t checkpoint_count() const { return dirs_.size(); }

 private:
  struct Dir {
    std::uint64_t epoch;
    std::unordered_map<kern::PageNum, PageRecord> pages;
  };
  std::list<Dir> dirs_;
};

/// NiLiCon: four-level radix tree, 2^9 fan-out per level (like x86-64 page
/// tables); constant 4 modeled visits per store. Internally the store
/// memoizes the leaf directory of the last stored page, so folding a dense
/// sorted range resolves ~1 level per page instead of walking all 4.
///
/// Memory layout (DESIGN.md §10): nodes are 4-byte headers in one dense
/// vector; each node's 512 child/leaf slots are 32-bit indices in one
/// contiguous slot table, and the PageRecords themselves live in a deque —
/// stable addresses for lookup()/all_pages(), no per-page allocation for
/// the tree, and a fold or walk touches a handful of dense arrays instead
/// of chasing 8 KiB heap-scattered nodes.
class RadixPageStore final : public PageStore {
 public:
  RadixPageStore() : root_(new_node()) {}

  void begin_checkpoint(std::uint64_t epoch) override { epoch_ = epoch; }

  std::uint64_t store(const PageRecord& rec) override {
    const kern::PageNum prefix = rec.page >> kBits;
    std::uint32_t leaf;
    if (last_leaf_ != kNil && prefix == last_prefix_) {
      leaf = last_leaf_;
    } else {
      std::uint32_t node = root_;
      for (int level = 3; level >= 1; --level) {
        const std::size_t idx = index_at(rec.page, level);
        std::uint32_t child = slot(nodes_[node].table, idx);
        if (child == kNil) {
          child = new_node();
          set_slot(nodes_[node].table, idx, child);
        }
        node = child;
      }
      leaf = node;
      last_leaf_ = leaf;
      last_prefix_ = prefix;
    }
    const std::size_t idx = index_at(rec.page, 0);
    const std::uint32_t at = slot(nodes_[leaf].table, idx);
    if (at == kNil) {
      set_slot(nodes_[leaf].table, idx,
               static_cast<std::uint32_t>(records_.size()));
      records_.push_back(rec);
    } else {
      records_[at] = rec;
    }
    // The paper's cost model charges the full level walk per store; the
    // memoized walk is a wall-clock optimization, not a model change.
    return kLevels;
  }

  const PageRecord* lookup(kern::PageNum page) const override {
    std::uint32_t node = root_;
    for (int level = 3; level >= 1; --level) {
      node = slot(nodes_[node].table, index_at(page, level));
      if (node == kNil) return nullptr;
    }
    const std::uint32_t rec = slot(nodes_[node].table, index_at(page, 0));
    return rec == kNil ? nullptr : &records_[rec];
  }

  std::uint64_t page_count() const override { return records_.size(); }

  std::vector<const PageRecord*> all_pages() const override {
    std::vector<const PageRecord*> out;
    out.reserve(records_.size());
    collect(root_, 3, out);
    return out;
  }

  static constexpr std::uint64_t kLevels = 4;

 private:
  static constexpr std::uint64_t kBits = 9;
  static constexpr std::size_t kFanout = 1u << kBits;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Node header. The 512 child (interior) or record (leaf) slots are u32
  /// indices at offset table * kFanout of the slot array — half the
  /// footprint of 64-bit pointers, and dense.
  struct Node {
    std::uint32_t table = kNil;
  };

  std::uint32_t slot(std::uint32_t table, std::size_t idx) const {
    return slots_[static_cast<std::size_t>(table) * kFanout + idx];
  }
  void set_slot(std::uint32_t table, std::size_t idx, std::uint32_t v) {
    slots_[static_cast<std::size_t>(table) * kFanout + idx] = v;
  }

  /// Appends a node with a fresh all-nil slot table; returns its index.
  std::uint32_t new_node() {
    const auto table = static_cast<std::uint32_t>(slots_.size() / kFanout);
    slots_.resize(slots_.size() + kFanout, kNil);
    nodes_.push_back(Node{table});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  static std::size_t index_at(kern::PageNum page, int level) {
    return static_cast<std::size_t>((page >> (kBits * level)) & (kFanout - 1));
  }

  void collect(std::uint32_t node, int level,
               std::vector<const PageRecord*>& out) const {
    const std::uint32_t table = nodes_[node].table;
    if (level == 0) {
      for (std::size_t i = 0; i < kFanout; ++i) {
        const std::uint32_t rec = slot(table, i);
        if (rec != kNil) out.push_back(&records_[rec]);
      }
      return;
    }
    for (std::size_t i = 0; i < kFanout; ++i) {
      const std::uint32_t child = slot(table, i);
      if (child != kNil) collect(child, level - 1, out);
    }
  }

  /// Dense node headers (index 0 is the root).
  std::vector<Node> nodes_;
  /// All slot tables, kFanout entries per node.
  std::vector<std::uint32_t> slots_;
  /// Committed records; deque keeps addresses stable across growth.
  std::deque<PageRecord> records_;
  /// Fold fast path: leaf directory of the last stored page and its
  /// page-number prefix (node indices never move, so the memo stays valid
  /// for the store's lifetime).
  std::uint32_t last_leaf_ = kNil;
  kern::PageNum last_prefix_ = ~0ull;
  std::uint32_t root_;
  std::uint64_t epoch_ = 0;
};

}  // namespace nlc::criu
