#include "kernel/fs.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace nlc::kern {

namespace {

/// Bitmap words for `npages` pages.
std::size_t bitmap_words(std::uint64_t npages) { return (npages + 63) / 64; }

std::uint64_t popcount(const std::vector<std::uint64_t>& bitmap) {
  std::uint64_t n = 0;
  for (std::uint64_t w : bitmap) {
    n += static_cast<std::uint64_t>(std::popcount(w));
  }
  return n;
}

}  // namespace

InodeNum Filesystem::create(const std::string& path, std::uint32_t mode) {
  auto existing = by_path_.find(path);
  if (existing != by_path_.end()) {
    // Truncate semantics.
    InodeNum ino = existing->second;
    inodes_[ino].size = 0;
    drop(cache_[ino]);
    inode_dnc_[ino] = true;
    return ino;
  }
  InodeNum ino = next_ino_++;
  InodeAttr a;
  a.ino = ino;
  a.path = path;
  a.mode = mode;
  inodes_[ino] = std::move(a);
  by_path_[path] = ino;
  inode_dnc_[ino] = true;
  return ino;
}

InodeNum Filesystem::lookup(const std::string& path) const {
  auto it = by_path_.find(path);
  return it == by_path_.end() ? 0 : it->second;
}

const InodeAttr* Filesystem::attr(InodeNum ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

void Filesystem::set_attr(InodeNum ino, std::uint32_t uid, std::uint32_t gid,
                          std::uint32_t mode) {
  auto it = inodes_.find(ino);
  NLC_CHECK_MSG(it != inodes_.end(), "set_attr on unknown inode");
  it->second.uid = uid;
  it->second.gid = gid;
  it->second.mode = mode;
  inode_dnc_[ino] = true;
}

std::shared_ptr<PageBytes>& Filesystem::slot(FileCache& fc,
                                              std::uint64_t page) {
  if (page >= fc.pages.size()) {
    fc.pages.resize(page + 1);
    fc.dirty.resize(bitmap_words(page + 1), 0);
    fc.dnc.resize(bitmap_words(page + 1), 0);
  }
  return fc.pages[page];
}

void Filesystem::mark(FileCache& fc, std::uint64_t page, bool dnc) {
  const std::uint64_t bit = 1ull << (page % 64);
  std::uint64_t& dirty = fc.dirty[page / 64];
  if ((dirty & bit) == 0) ++dirty_pages_;
  dirty |= bit;
  std::uint64_t& d = fc.dnc[page / 64];
  dnc_pages_ -= (d & bit) != 0 ? 1 : 0;
  dnc_pages_ += dnc ? 1 : 0;
  d = dnc ? (d | bit) : (d & ~bit);
}

void Filesystem::drop(FileCache& fc) {
  for (const auto& p : fc.pages) cached_pages_ -= p ? 1 : 0;
  dirty_pages_ -= popcount(fc.dirty);
  dnc_pages_ -= popcount(fc.dnc);
  fc = FileCache{};
}

void Filesystem::write(InodeNum ino, std::uint64_t offset,
                       std::span<const std::byte> data, std::uint64_t now_ns) {
  auto it = inodes_.find(ino);
  NLC_CHECK_MSG(it != inodes_.end(), "write to unknown inode");
  FileCache& fc = cache_[ino];
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    std::uint64_t page = pos / kPageSize;
    std::uint32_t in_page = static_cast<std::uint32_t>(pos % kPageSize);
    std::uint64_t chunk =
        std::min<std::uint64_t>(kPageSize - in_page, data.size() - consumed);
    std::span<const std::byte> src = data.subspan(consumed, chunk);
    std::shared_ptr<PageBytes>& p = slot(fc, page);
    // Shared: a harvest, a block store or a restored image still holds
    // these bytes, so the cache takes a private page and theirs stay frozen.
    const bool shared = p && p.use_count() > 1;
    cow_clones_ += shared ? 1 : 0;
    cached_pages_ += p ? 0 : 1;
    if (chunk == kPageSize && (shared || !p)) {
      p = std::make_shared<PageBytes>(src.begin(), src.end());
    } else {
      if (shared) {
        p = std::make_shared<PageBytes>(*p);
      } else if (!p) {
        // Read-for-write fill from the block store, or zeros for a hole.
        PagePayload blk = store_->read_block(ino, page);
        p = blk ? std::make_shared<PageBytes>(*blk)
                : std::make_shared<PageBytes>(kPageSize, std::byte{0});
      }
      std::copy(src.begin(), src.end(), p->begin() + in_page);
    }
    mark(fc, page, /*dnc=*/true);
    pos += chunk;
    consumed += chunk;
  }
  it->second.size = std::max(it->second.size, offset + data.size());
  it->second.mtime_ns = now_ns;
  inode_dnc_[ino] = true;
}

std::vector<std::byte> Filesystem::read(InodeNum ino, std::uint64_t offset,
                                        std::uint64_t len) const {
  auto it = inodes_.find(ino);
  NLC_CHECK_MSG(it != inodes_.end(), "read of unknown inode");
  std::vector<std::byte> out(len, std::byte{0});
  auto fcit = cache_.find(ino);
  std::uint64_t pos = offset;
  std::uint64_t produced = 0;
  while (produced < len) {
    std::uint64_t page = pos / kPageSize;
    std::uint32_t in_page = static_cast<std::uint32_t>(pos % kPageSize);
    std::uint64_t chunk = std::min<std::uint64_t>(kPageSize - in_page,
                                                  len - produced);
    PagePayload src;
    if (fcit != cache_.end() && page < fcit->second.pages.size()) {
      src = fcit->second.pages[page];
    }
    if (!src) src = store_->read_block(ino, page);
    if (src) {
      std::copy(src->begin() + in_page,
                src->begin() + in_page + static_cast<std::ptrdiff_t>(chunk),
                out.begin() + static_cast<std::ptrdiff_t>(produced));
    }
    pos += chunk;
    produced += chunk;
  }
  return out;
}

std::uint64_t Filesystem::writeback(std::uint64_t max_pages) {
  std::uint64_t flushed = 0;
  for (auto& [ino, fc] : cache_) {
    for (std::size_t w = 0; w < fc.dirty.size(); ++w) {
      for (std::uint64_t& bits = fc.dirty[w]; bits != 0; bits &= bits - 1) {
        if (flushed >= max_pages) return flushed;
        std::uint64_t page =
            w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        store_->write_block(ino, page, fc.pages[page]);
        --dirty_pages_;
        ++pages_written_back_;
        ++flushed;
      }
    }
  }
  return flushed;
}

void Filesystem::sync_all() {
  writeback(UINT64_MAX);
}

DncHarvest Filesystem::harvest_dnc() {
  DncHarvest h;
  for (auto& [ino, dnc] : inode_dnc_) {
    if (!dnc) continue;
    h.inodes.push_back(DncInodeEntry{inodes_.at(ino)});
    dnc = false;
  }
  h.pages.reserve(dnc_pages_);
  for (auto& [ino, fc] : cache_) {
    for (std::size_t w = 0; w < fc.dnc.size(); ++w) {
      for (std::uint64_t bits = fc.dnc[w]; bits != 0; bits &= bits - 1) {
        std::uint64_t page =
            w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        h.pages.push_back(DncPageEntry{ino, page, fc.pages[page]});
      }
      fc.dnc[w] = 0;
    }
  }
  dnc_pages_harvested_ += h.pages.size();
  dnc_pages_ = 0;
  return h;
}

void Filesystem::apply_dnc(const DncHarvest& h, std::uint64_t now_ns) {
  for (const auto& ie : h.inodes) {
    InodeNum ino = ie.attr.ino;
    inodes_[ino] = ie.attr;
    by_path_[ie.attr.path] = ino;
    next_ino_ = std::max(next_ino_, ino + 1);
    inode_dnc_[ino] = false;
  }
  for (const auto& pe : h.pages) {
    // pwrite equivalent: land in the page cache, dirty for writeback but
    // already checkpointed (DNC clear). The cache adopts the handle; a
    // later write() copies before mutating while the entry's holder lives.
    NLC_CHECK(pe.data != nullptr && pe.data->size() == kPageSize);
    auto it = inodes_.find(pe.ino);
    NLC_CHECK_MSG(it != inodes_.end(), "DNC page for unknown inode");
    FileCache& fc = cache_[pe.ino];
    std::shared_ptr<PageBytes>& p = slot(fc, pe.page_index);
    if (!p) ++cached_pages_;
    p = std::const_pointer_cast<PageBytes>(pe.data);
    mark(fc, pe.page_index, /*dnc=*/false);
    it->second.mtime_ns = now_ns;
  }
}

}  // namespace nlc::kern
