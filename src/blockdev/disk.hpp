// Simulated local block device.
//
// Stores real block contents (keyed by inode + page index, the granularity
// the simulated filesystem writes at) so disk-state consistency after a
// failover is checkable byte-for-byte. A block is the page payload handle
// it was written with (DESIGN.md §7): writing a block stores the handle,
// reading one returns it, and no page bytes move. Latency is charged per
// operation by the callers that model synchronous I/O; the store itself is
// a plain table because writeback happens inside already-timed coroutines.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "kernel/fs.hpp"

namespace nlc::blk {

class Disk : public kern::BlockStore {
 public:
  void write_block(kern::InodeNum ino, std::uint64_t page,
                   kern::PagePayload data) override {
    std::vector<kern::PagePayload>& file = files_[ino];
    if (page >= file.size()) file.resize(page + 1);
    if (!file[page]) ++blocks_;
    bytes_written_ += data->size();
    file[page] = std::move(data);
    ++writes_;
  }

  kern::PagePayload read_block(kern::InodeNum ino,
                               std::uint64_t page) const override {
    auto it = files_.find(ino);
    if (it == files_.end() || page >= it->second.size()) return nullptr;
    return it->second[page];
  }

  std::uint64_t block_count() const { return blocks_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Visits every block as f(ino, page, bytes), ascending by (inode,
  /// page). Observer only (audit digests).
  template <class F>
  void for_each_block(F&& f) const {
    for (const auto& [ino, file] : files_) {
      for (std::uint64_t page = 0; page < file.size(); ++page) {
        if (file[page]) f(ino, page, *file[page]);
      }
    }
  }

  /// Content equality with another disk (tests: primary vs backup after
  /// commit): the same blocks holding the same bytes, whether or not the
  /// two disks share the payloads.
  bool same_content(const Disk& other) const {
    return blocks_ == other.blocks_ && covered_by(other);
  }

 private:
  /// Every block here exists in `other` with equal bytes.
  bool covered_by(const Disk& other) const {
    for (const auto& [ino, file] : files_) {
      for (std::uint64_t page = 0; page < file.size(); ++page) {
        if (!file[page]) continue;
        kern::PagePayload theirs = other.read_block(ino, page);
        if (!theirs || (theirs != file[page] && *theirs != *file[page])) {
          return false;
        }
      }
    }
    return true;
  }

  /// Per inode, block payloads indexed by page (null: never written).
  std::map<kern::InodeNum, std::vector<kern::PagePayload>> files_;
  std::uint64_t blocks_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace nlc::blk
