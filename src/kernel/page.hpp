// Page payloads: the one byte-carrying unit shared by process memory,
// file pages and block writes (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace nlc::kern {

/// One page's content bytes (always kPageSize once materialized).
using PageBytes = std::vector<std::byte>;
/// Immutable shared handle to a page payload; the unit the checkpoint and
/// storage pipelines pass instead of copies. Holders only read it; the one
/// owner that may mutate (an address space or a file cache) copies on
/// write while anyone else still holds the handle.
using PagePayload = std::shared_ptr<const PageBytes>;

}  // namespace nlc::kern
