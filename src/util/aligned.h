// Cache-line-aligned storage helpers for the multi-context simulation
// engine: per-worker lane-state arenas and per-shard statistic slots are
// allocated on 64-byte boundaries so two workers never share a cache
// line (false sharing turns an embarrassingly parallel stat update into
// a coherence ping-pong).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

namespace fpgasim {

/// Size of one cache line / the arena shard alignment, in bytes.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Fixed-size, zero-filled, cache-line-aligned array of trivially
/// copyable elements. The storage comes from std::calloc, over-allocated
/// by one line and aligned up by hand: a large calloc maps fresh zero
/// pages without touching them, so elements that are never written never
/// become resident. That is the point — a simulation arena reserves room
/// for every writable memory row, while a batch writes a handful of them.
template <typename T>
class ZeroedBuffer {
 public:
  ZeroedBuffer() = default;
  explicit ZeroedBuffer(std::size_t n) {
    if (n == 0) return;
    raw_ = std::calloc(n * sizeof(T) + kCacheLineBytes, 1);
    if (raw_ == nullptr) throw std::bad_alloc();
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_);
    data_ = reinterpret_cast<T*>((addr + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1));
  }
  ZeroedBuffer(ZeroedBuffer&& other) noexcept { swap(other); }
  ZeroedBuffer& operator=(ZeroedBuffer&& other) noexcept {
    ZeroedBuffer(std::move(other)).swap(*this);
    return *this;
  }
  ZeroedBuffer(const ZeroedBuffer&) = delete;
  ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;
  ~ZeroedBuffer() { std::free(raw_); }

  T* data() const { return data_; }

 private:
  void swap(ZeroedBuffer& other) noexcept {
    std::swap(raw_, other.raw_);
    std::swap(data_, other.data_);
  }

  void* raw_ = nullptr;
  T* data_ = nullptr;
};

/// Rounds an element count up so the next section of an arena starts on a
/// cache-line boundary (elements of size `elem_bytes`).
inline constexpr std::size_t align_elems(std::size_t count, std::size_t elem_bytes) {
  const std::size_t per_line = kCacheLineBytes / elem_bytes;
  return (count + per_line - 1) / per_line * per_line;
}

}  // namespace fpgasim
