#include "kernel/address_space.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nlc::kern {

Vma AddressSpace::map(std::uint64_t npages, VmaKind kind,
                             std::string backing_file) {
  NLC_CHECK(npages > 0);
  Vma v;
  v.id = next_vma_id_++;
  v.start = next_page_;
  v.npages = npages;
  v.kind = kind;
  v.backing_file = std::move(backing_file);
  next_page_ += npages + 16;  // guard gap, like real mmap layouts
  mapped_pages_ += npages;
  vmas_.push_back(std::move(v));
  return vmas_.back();
}

void AddressSpace::install_vma(const Vma& v) {
  NLC_CHECK(v.npages > 0);
  for (const auto& existing : vmas_) {
    NLC_CHECK_MSG(v.end() <= existing.start || v.start >= existing.end(),
                  "install_vma overlaps an existing mapping");
  }
  next_vma_id_ = std::max(next_vma_id_, v.id + 1);
  next_page_ = std::max(next_page_, v.end() + 16);
  mapped_pages_ += v.npages;
  vmas_.push_back(v);
}

void AddressSpace::unmap(std::uint64_t vma_id) {
  auto it = std::find_if(vmas_.begin(), vmas_.end(),
                         [&](const Vma& v) { return v.id == vma_id; });
  NLC_CHECK_MSG(it != vmas_.end(), "unmap of unknown VMA");
  // Drop dirty-list entries before their page states disappear.
  std::erase_if(dirty_, [&](const DirtyRef& d) {
    return it->contains(d.page);
  });
  for (PageNum p = it->start; p < it->end(); ++p) {
    pages_.erase(p);
  }
  mapped_pages_ -= it->npages;
  vmas_.erase(it);
}

const Vma* AddressSpace::find_vma(std::uint64_t vma_id) const {
  for (const auto& v : vmas_) {
    if (v.id == vma_id) return &v;
  }
  return nullptr;
}

void AddressSpace::check_mapped(PageNum page) const {
  for (const auto& v : vmas_) {
    if (v.contains(page)) return;
  }
  NLC_CHECK_MSG(false, "access to unmapped page");
}

bool AddressSpace::touch(PageNum page) {
  check_mapped(page);
  PageState& st = pages_[page];
  ++st.version;
  if (!tracking_) return false;
  return mark_dirty(page, st);
}

bool AddressSpace::mark_dirty(PageNum page, PageState& st) {
  if (st.dirty) return false;
  st.dirty = true;
  dirty_.push_back(DirtyRef{page, &st});
  return true;
}

std::uint64_t AddressSpace::touch_range(PageNum start, std::uint64_t count) {
  std::uint64_t faults = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    faults += touch(start + i) ? 1 : 0;
  }
  return faults;
}

bool AddressSpace::write(PageNum page, std::uint32_t offset,
                         std::span<const std::byte> data) {
  NLC_CHECK(offset + data.size() <= kPageSize);
  check_mapped(page);
  PageState& st = pages_[page];
  ++st.version;
  if (!st.payload) {
    st.payload = std::make_shared<PageBytes>(kPageSize, std::byte{0});
  } else if (st.payload.use_count() > 1) {
    // A checkpoint image / page store / restored container still holds a
    // handle to these bytes: clone before mutating (copy-on-write), so the
    // captured state stays exactly what the freeze observed.
    st.payload = std::make_shared<PageBytes>(*st.payload);
    ++cow_clones_;
  }
  std::copy(data.begin(), data.end(), st.payload->begin() + offset);
  bool fault = false;
  if (tracking_) fault = mark_dirty(page, st);
  return fault;
}

std::vector<std::byte> AddressSpace::read(PageNum page, std::uint32_t offset,
                                          std::uint32_t len) const {
  NLC_CHECK(offset + len <= kPageSize);
  std::vector<std::byte> out(len, std::byte{0});
  auto it = pages_.find(page);
  if (it != pages_.end() && it->second.payload) {
    const PageBytes& buf = *it->second.payload;
    std::copy(buf.begin() + offset, buf.begin() + offset + len, out.begin());
  }
  return out;
}

PagePayload AddressSpace::content(PageNum page) const {
  auto it = pages_.find(page);
  if (it == pages_.end()) return nullptr;
  return it->second.payload;
}

void AddressSpace::install_content(PageNum page, PagePayload data) {
  NLC_CHECK(data != nullptr && data->size() == kPageSize);
  PageState& st = pages_[page];
  ++st.version;
  // Adopt the shared handle. The stored pointer is non-const because this
  // address space owns future mutations of the page; copy-on-write in
  // write() guarantees the adopted bytes are never modified while any other
  // holder (image, page store) keeps its handle.
  st.payload = std::const_pointer_cast<PageBytes>(data);
  if (tracking_) mark_dirty(page, st);
}

void AddressSpace::clear_soft_dirty() {
  tracking_ = true;
  for (const DirtyRef& d : dirty_) d.state->dirty = false;
  dirty_.clear();
}

void AddressSpace::disable_tracking() {
  tracking_ = false;
  for (const DirtyRef& d : dirty_) d.state->dirty = false;
  dirty_.clear();
}

std::uint64_t AddressSpace::page_version(PageNum page) const {
  auto it = pages_.find(page);
  return it == pages_.end() ? 0 : it->second.version;
}

}  // namespace nlc::kern
