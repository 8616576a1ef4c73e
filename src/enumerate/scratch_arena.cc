#include "enumerate/scratch_arena.h"

#include "obs/metrics.h"
#include "util/alloc_guard.h"

namespace fractal {
namespace {

obs::Counter& ScratchMisses() {
  static obs::Counter& counter = obs::ScratchMissesCounter();
  return counter;
}

}  // namespace

FRACTAL_HOT std::vector<uint32_t>* ScratchArena::Acquire() {
  ++live_;
  if (!free_.empty()) {
    std::vector<uint32_t>* buffer = free_.back();
    free_.pop_back();
    buffer->clear();
    ++obs::LocalHotMetrics().scratch_hits;
    return buffer;
  }
  FRACTAL_HOT_ESCAPE("pool miss: the arena warms up to the DFS's peak "
                     "concurrent lease count, then every Acquire hits");
  AllocGuard::Allow allow("scratch arena pool growth");
  ScratchMisses().Add(1);
  owned_.push_back(std::make_unique<std::vector<uint32_t>>());
  // Keep free_ large enough for every buffer to come back at once, so the
  // matching Release (outside this Allow scope) never reallocates.
  free_.reserve(owned_.size());
  return owned_.back().get();
}

FRACTAL_HOT void ScratchArena::Release(std::vector<uint32_t>* buffer) {
  FRACTAL_DCHECK(buffer != nullptr);
  FRACTAL_DCHECK(live_ > 0);
  --live_;
  free_.push_back(buffer);
}

}  // namespace fractal
