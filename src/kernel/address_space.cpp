#include "kernel/address_space.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace nlc::kern {

namespace {

/// Soft-dirty bitmap words for `npages` pages.
std::size_t bitmap_words(std::uint64_t npages) { return (npages + 63) / 64; }

/// Bits [lo, hi) of one bitmap word (0 <= lo < hi <= 64).
std::uint64_t bit_span(std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t upto_hi = hi == 64 ? ~0ull : (1ull << hi) - 1;
  return upto_hi & ~((1ull << lo) - 1);
}

}  // namespace

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
  add_table(v);
  vmas_.push_back(std::move(v));
  return vmas_.back();
}

void AddressSpace::install_vma(const Vma& v) {
  NLC_CHECK(v.npages > 0);
  auto next = table_after(v.start);
  NLC_CHECK_MSG(next == tables_.end() || v.end() <= next->start,
                "install_vma overlaps an existing mapping");
  NLC_CHECK_MSG(next == tables_.begin() || std::prev(next)->end() <= v.start,
                "install_vma overlaps an existing mapping");
  next_vma_id_ = std::max(next_vma_id_, v.id + 1);
  next_page_ = std::max(next_page_, v.end() + 16);
  mapped_pages_ += v.npages;
  add_table(v);
  vmas_.push_back(v);
}

void AddressSpace::add_table(const Vma& v) {
  auto pos = table_after(v.start);
  Table t;
  t.start = v.start;
  t.pages.resize(v.npages);
  t.dirty.assign(bitmap_words(v.npages), 0);
  tables_.insert(pos, std::move(t));
  hint_ = 0;
}

void AddressSpace::unmap(std::uint64_t vma_id) {
  auto it = std::find_if(vmas_.begin(), vmas_.end(),
                         [&](const Vma& v) { return v.id == vma_id; });
  NLC_CHECK_MSG(it != vmas_.end(), "unmap of unknown VMA");
  auto t = std::find_if(tables_.begin(), tables_.end(),
                        [&](const Table& tb) { return tb.start == it->start; });
  resident_pages_ -= t->resident;
  tables_.erase(t);
  hint_ = 0;
  mapped_pages_ -= it->npages;
  vmas_.erase(it);
}

const Vma* AddressSpace::find_vma(std::uint64_t vma_id) const {
  for (const auto& v : vmas_) {
    if (v.id == vma_id) return &v;
  }
  return nullptr;
}

std::vector<AddressSpace::Table>::const_iterator AddressSpace::table_after(
    PageNum page) const {
  return std::upper_bound(
      tables_.begin(), tables_.end(), page,
      [](PageNum p, const Table& t) { return p < t.start; });
}

const AddressSpace::Table* AddressSpace::find_table(PageNum page) const {
  if (hint_ < tables_.size() && tables_[hint_].contains(page)) {
    return &tables_[hint_];
  }
  auto it = table_after(page);
  if (it == tables_.begin()) return nullptr;
  --it;
  return it->contains(page) ? &*it : nullptr;
}

AddressSpace::Table& AddressSpace::mapped_table(PageNum page) {
  const Table* t = find_table(page);
  NLC_CHECK_MSG(t != nullptr, "access to unmapped page");
  hint_ = static_cast<std::size_t>(t - tables_.data());
  return tables_[hint_];
}

AddressSpace::PageState& AddressSpace::bump(Table& t, std::uint64_t index) {
  PageState& st = t.pages[index];
  if (st.version++ == 0) {
    ++t.resident;
    ++resident_pages_;
  }
  return st;
}

bool AddressSpace::mark_dirty(Table& t, std::uint64_t index) {
  if (!tracking_) return false;
  std::uint64_t& word = t.dirty[index / 64];
  std::uint64_t bit = 1ull << (index % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

bool AddressSpace::touch(PageNum page) {
  Table& t = mapped_table(page);
  std::uint64_t index = page - t.start;
  bump(t, index);
  return mark_dirty(t, index);
}

std::uint64_t AddressSpace::touch_range(PageNum start, std::uint64_t count) {
  if (count == 0) return 0;
  Table& t = mapped_table(start);
  NLC_CHECK_MSG(count <= t.end() - start,
                "touch_range runs past the end of its VMA");
  const std::uint64_t first = start - t.start;
  const std::uint64_t last = first + count;
  for (std::uint64_t i = first; i < last; ++i) bump(t, i);
  if (!tracking_) return 0;
  std::uint64_t faults = 0;
  for (std::uint64_t i = first; i < last;) {
    std::uint64_t lo = i % 64;
    std::uint64_t hi = std::min<std::uint64_t>(64, lo + (last - i));
    std::uint64_t span = bit_span(lo, hi);
    std::uint64_t& word = t.dirty[i / 64];
    faults += static_cast<std::uint64_t>(std::popcount(span & ~word));
    word |= span;
    i += hi - lo;
  }
  return faults;
}

bool AddressSpace::write(PageNum page, std::uint32_t offset,
                         std::span<const std::byte> data) {
  NLC_CHECK(offset + data.size() <= kPageSize);
  Table& t = mapped_table(page);
  std::uint64_t index = page - t.start;
  PageState& st = bump(t, index);
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
  return mark_dirty(t, index);
}

std::vector<std::byte> AddressSpace::read(PageNum page, std::uint32_t offset,
                                          std::uint32_t len) const {
  NLC_CHECK(offset + len <= kPageSize);
  std::vector<std::byte> out(len, std::byte{0});
  const Table* t = find_table(page);
  if (t == nullptr) return out;
  const PageState& st = t->pages[page - t->start];
  if (st.payload) {
    std::copy(st.payload->begin() + offset,
              st.payload->begin() + offset + len, out.begin());
  }
  return out;
}

PagePayload AddressSpace::content(PageNum page) const {
  const Table* t = find_table(page);
  if (t == nullptr) return nullptr;
  return t->pages[page - t->start].payload;
}

void AddressSpace::install_content(PageNum page, PagePayload data) {
  NLC_CHECK(data != nullptr && data->size() == kPageSize);
  Table& t = mapped_table(page);
  std::uint64_t index = page - t.start;
  PageState& st = bump(t, index);
  // Adopt the shared handle. The stored pointer is non-const because this
  // address space owns future mutations of the page; copy-on-write in
  // write() guarantees the adopted bytes are never modified while any other
  // holder (image, page store) keeps its handle.
  st.payload = std::const_pointer_cast<PageBytes>(data);
  mark_dirty(t, index);
}

void AddressSpace::clear_soft_dirty() {
  tracking_ = true;
  for (Table& t : tables_) std::fill(t.dirty.begin(), t.dirty.end(), 0);
}

void AddressSpace::disable_tracking() {
  tracking_ = false;
  for (Table& t : tables_) std::fill(t.dirty.begin(), t.dirty.end(), 0);
}

std::vector<AddressSpace::DirtyRef> AddressSpace::dirty_pages() const {
  std::vector<DirtyRef> out;
  for (const Table& t : tables_) {
    for (std::size_t w = 0; w < t.dirty.size(); ++w) {
      for (std::uint64_t bits = t.dirty[w]; bits != 0; bits &= bits - 1) {
        std::uint64_t index =
            w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        out.push_back(DirtyRef{t.start + index, &t.pages[index]});
      }
    }
  }
  return out;
}

AddressSpace::PageStates AddressSpace::page_states() const {
  return PageStates(tables_.data(), tables_.data() + tables_.size(),
                    resident_pages_);
}

std::uint64_t AddressSpace::page_version(PageNum page) const {
  const Table* t = find_table(page);
  return t == nullptr ? 0 : t->pages[page - t->start].version;
}

}  // namespace nlc::kern
