// Simulated filesystem with page cache, inode cache, and the paper's DNC
// ("Dirty but Not Checkpointed") extension.
//
// Write path: write() lands in the page cache, marking the page dirty (for
// eventual writeback to the block device) and DNC (for the next epoch's
// checkpoint). A writeback daemon — or an explicit sync — flushes dirty
// pages to the underlying Disk, which the DRBD layer replicates; flushing
// clears dirty but NOT DNC. harvest_dnc() (the paper's fgetfc syscall)
// returns all DNC page/inode entries and clears only the DNC bits.
//
// This separation is the crux of §III: the backup's view of a file is
// (committed disk blocks) overlaid with (committed page-cache entries), so
// a failover never needs a fsync on the primary's hot path.
//
// Storage path (DESIGN.md §7): a cached file page is a refcounted
// PagePayload, the same unit memory pages use. Harvest, writeback, the
// DRBD stream, the disks and the restore path all pass the handle along
// instead of copying 4 KiB; write() copies a page only while someone else
// still holds it, and a full-page overwrite of a shared page takes a fresh
// page without reading the old bytes. Each file's cache is a flat table
// indexed by page number with one dirty and one DNC bitmap, so writeback
// and harvest are word scans in (inode, page) order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/ids.hpp"
#include "kernel/page.hpp"
#include "util/bytes.hpp"

namespace nlc::kern {

struct InodeAttr {
  InodeNum ino = 0;
  std::string path;
  std::uint64_t size = 0;
  std::uint32_t mode = 0644;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t mtime_ns = 0;

  bool operator==(const InodeAttr&) const = default;
};

/// A harvested DNC page entry (what fgetfc returns / restore applies).
/// `data` is the cache's own handle: the bytes stay frozen while the entry
/// lives, whatever the container writes next.
struct DncPageEntry {
  InodeNum ino = 0;
  std::uint64_t page_index = 0;
  PagePayload data;
};

struct DncInodeEntry {
  InodeAttr attr;
};

struct DncHarvest {
  std::vector<DncInodeEntry> inodes;
  std::vector<DncPageEntry> pages;

  std::uint64_t byte_size() const {
    return pages.size() * kPageSize + inodes.size() * 128;
  }
};

/// Abstract block store the filesystem flushes to; implemented by
/// blk::Disk / blk::DrbdPrimary. Addressed by (inode, page index). Blocks
/// are page payload handles: a store keeps (and forwards) the handle it
/// is given instead of copying the bytes.
class BlockStore {
 public:
  virtual ~BlockStore() = default;
  /// `data` holds kPageSize bytes.
  virtual void write_block(InodeNum ino, std::uint64_t page,
                           PagePayload data) = 0;
  /// Null when the block was never written.
  virtual PagePayload read_block(InodeNum ino, std::uint64_t page) const = 0;
};

class Filesystem {
 public:
  explicit Filesystem(BlockStore& store) : store_(&store) {}
  Filesystem(const Filesystem&) = delete;
  Filesystem& operator=(const Filesystem&) = delete;

  /// Creates (or truncates) a file; returns its inode number.
  InodeNum create(const std::string& path, std::uint32_t mode = 0644);

  /// Looks up a path; 0 when absent.
  InodeNum lookup(const std::string& path) const;

  const InodeAttr* attr(InodeNum ino) const;

  /// chown/chmod-style attribute update; marks the inode DNC.
  void set_attr(InodeNum ino, std::uint32_t uid, std::uint32_t gid,
                std::uint32_t mode);

  /// Writes through the page cache. Extends the file as needed. A page
  /// whose payload is still held elsewhere (a harvest, a block store) is
  /// copied first; a full-page overwrite of such a page (or of an uncached
  /// one) takes a fresh page without reading the old bytes.
  void write(InodeNum ino, std::uint64_t offset,
             std::span<const std::byte> data, std::uint64_t now_ns);

  /// Reads through the page cache (falling back to disk blocks).
  std::vector<std::byte> read(InodeNum ino, std::uint64_t offset,
                              std::uint64_t len) const;

  /// Flushes up to `max_pages` dirty pages to the block store (writeback
  /// daemon step), ascending by (inode, page); clears their dirty bits,
  /// keeps DNC. Returns the number flushed.
  std::uint64_t writeback(std::uint64_t max_pages);

  /// Flushes everything (fsync/umount).
  void sync_all();

  /// The fgetfc syscall: returns every DNC inode/page entry, ascending by
  /// inode and then page, and clears the DNC bits (the data stays dirty in
  /// the cache if not yet written back).
  DncHarvest harvest_dnc();

  /// Restore path: applies a harvested delta (pwrite + chown equivalents),
  /// adopting the entries' payload handles.
  void apply_dnc(const DncHarvest& h, std::uint64_t now_ns);

  /// Counts for the cost model / tests.
  std::uint64_t dnc_page_count() const { return dnc_pages_; }
  std::uint64_t dirty_page_count() const { return dirty_pages_; }
  std::uint64_t cached_page_count() const { return cached_pages_; }
  std::uint64_t inode_count() const { return inodes_.size(); }

  /// Cumulative storage-path counters (reporting only): pages flushed to
  /// the block store, DNC pages harvested, and writes that found their
  /// page's payload shared and gave the cache a private page.
  std::uint64_t pages_written_back() const { return pages_written_back_; }
  std::uint64_t dnc_pages_harvested() const { return dnc_pages_harvested_; }
  std::uint64_t cow_clones() const { return cow_clones_; }

  /// Visits every cached page as f(ino, page_index, bytes), ascending by
  /// (inode, page index). Observer only (audit digests).
  template <class F>
  void for_each_cached_page(F&& f) const {
    for (const auto& [ino, fc] : cache_) {
      for (std::uint64_t i = 0; i < fc.pages.size(); ++i) {
        if (fc.pages[i]) f(ino, i, *fc.pages[i]);
      }
    }
  }

 private:
  /// One file's page cache: payloads indexed by page number (null: not
  /// cached) plus one bit per page in each bitmap.
  struct FileCache {
    std::vector<std::shared_ptr<PageBytes>> pages;
    std::vector<std::uint64_t> dirty;  // needs writeback to disk
    std::vector<std::uint64_t> dnc;    // dirty since the last harvest
  };

  /// The cached payload of `page`, resized to hold it. Null if not cached.
  std::shared_ptr<PageBytes>& slot(FileCache& fc, std::uint64_t page);
  /// Sets `page`'s dirty and DNC bits, keeping the counts.
  void mark(FileCache& fc, std::uint64_t page, bool dnc);
  /// Drops every cached page of `fc` (truncate).
  void drop(FileCache& fc);

  BlockStore* store_;
  std::unordered_map<std::string, InodeNum> by_path_;
  std::map<InodeNum, InodeAttr> inodes_;
  std::map<InodeNum, bool> inode_dnc_;
  std::map<InodeNum, FileCache> cache_;
  InodeNum next_ino_ = 100;
  std::uint64_t cached_pages_ = 0;
  std::uint64_t dirty_pages_ = 0;
  std::uint64_t dnc_pages_ = 0;
  std::uint64_t pages_written_back_ = 0;
  std::uint64_t dnc_pages_harvested_ = 0;
  std::uint64_t cow_clones_ = 0;
};

}  // namespace nlc::kern
