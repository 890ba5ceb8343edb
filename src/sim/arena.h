// Slab arena for the simulator hot path.
//
// The discrete-event core allocates two things at very high rate: 64-byte
// event nodes (one per ScheduleHandle/ScheduleFn call) and coroutine frames
// (one per Task<T> invocation, typically 100–500 bytes). Both are freed in
// roughly LIFO/churn order within a run, so a size-classed freelist over
// bump-carved chunks recycles them with two pointer moves instead of a
// malloc/free round trip per event.
//
// Layout contract: Allocate(n) returns storage aligned to at least 16 bytes
// whose address is the allocation address (no hidden header). Coroutine
// promise operator new in task.h relies on this — the pointer it returns must
// be the frame start, which is the same address coroutine_handle::address()
// reports and the DUFS_AUDIT registry keys on.
//
// Lifetime: one arena per thread (the simulator is single-threaded per
// Simulation; a thread may run many simulations in sequence, and detached
// frames can be freed by a Simulation other than the one that allocated
// them — a thread-local arena makes that safe). Chunks are released when the
// thread exits.
//
// Sanitizers: under AddressSanitizer the arena degrades to plain
// ::operator new/delete so ASan keeps byte-precise use-after-free and leak
// coverage over frames and event nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "obs/prof.h"

#if defined(__SANITIZE_ADDRESS__)
#define DUFS_ARENA_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DUFS_ARENA_PASSTHROUGH 1
#endif
#endif

namespace dufs::sim {

class Arena {
 public:
  // Smallest cell is 64B (one event node); classes double up to 4KB. Most
  // coroutine frames fit 1KB, but a request handler that switches over many
  // RPC methods keeps every case's locals in one frame and can pass 2KB
  // (LustreMds::Handle did, until its largest cases moved out). Larger
  // requests fall through to the global heap and count as `oversize`.
  static constexpr std::size_t kMinCellBytes = 64;
  static constexpr int kNumClasses = 7;  // 64, 128, ..., 2048, 4096
  static constexpr std::size_t kMaxCellBytes = kMinCellBytes
                                               << (kNumClasses - 1);
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  struct Stats {
    std::uint64_t allocs = 0;      // arena-serviced allocations
    std::uint64_t recycled = 0;    // ... of which came from a freelist
    std::uint64_t oversize = 0;    // fell through to ::operator new
    std::uint64_t chunk_bytes = 0; // carved chunk capacity
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    Chunk* c = chunks_;
    while (c != nullptr) {
      Chunk* next = c->next;
      ::operator delete(static_cast<void*>(c));
      c = next;
    }
  }

  static Arena& ThreadLocal() {
    static thread_local Arena arena;
    return arena;
  }

  // The cold paths below (oversize requests, chunk refills) are deliberately
  // out-of-line: keeping every `::operator new` call outside the inlined
  // fast path stops GCC's -Wmismatched-new-delete heuristic from pairing the
  // global allocator with the promise-level operator delete at coroutine
  // call sites.
  void* Allocate(std::size_t bytes) {
#ifdef DUFS_ARENA_PASSTHROUGH
    return AllocateOversize(bytes);
#else
    if (bytes > kMaxCellBytes) return AllocateOversize(bytes);
    const int cls = ClassFor(bytes);
    ++stats_.allocs;
    if (FreeCell* cell = free_[cls]; cell != nullptr) {
      ++stats_.recycled;
      free_[cls] = cell->next;
      return cell;
    }
    return Carve(kMinCellBytes << cls);
#endif
  }

  void Free(void* p, [[maybe_unused]] std::size_t bytes) noexcept {
#ifdef DUFS_ARENA_PASSTHROUGH
    FreeOversize(p);
#else
    if (bytes > kMaxCellBytes) {
      FreeOversize(p);
      return;
    }
    const int cls = ClassFor(bytes);
    auto* cell = static_cast<FreeCell*>(p);
    cell->next = free_[cls];
    free_[cls] = cell;
#endif
  }

  const Stats& stats() const { return stats_; }

 private:
  struct FreeCell {
    FreeCell* next;
  };
  struct Chunk {
    Chunk* next;
  };

  static int ClassFor(std::size_t bytes) {
    int cls = 0;
    std::size_t cell = kMinCellBytes;
    while (cell < bytes) {
      cell <<= 1;
      ++cls;
    }
    return cls;
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void* AllocateOversize(std::size_t bytes) {
    ++stats_.oversize;
    return ::operator new(bytes);
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  static void FreeOversize(void* p) noexcept {
    ::operator delete(p);
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void* Carve(std::size_t cell_bytes) {
    if (static_cast<std::size_t>(bump_end_ - bump_) < cell_bytes) {
      // Start a fresh chunk; the tail remainder of the old one (< 4KB out of
      // 64KB) is abandoned, not leaked — its chunk stays on the list.
      prof::ProfScope arena_scope("engine.arena", prof::FrameKind::kEnginePhase);
      auto* raw = static_cast<char*>(::operator new(kChunkBytes));
      auto* chunk = reinterpret_cast<Chunk*>(raw);
      chunk->next = chunks_;
      chunks_ = chunk;
      // Keep the bump pointer 64B-aligned: the header is padded to one cell.
      bump_ = raw + kMinCellBytes;
      bump_end_ = raw + kChunkBytes;
      stats_.chunk_bytes += kChunkBytes;
    }
    void* p = bump_;
    bump_ += cell_bytes;
    return p;
  }

  FreeCell* free_[kNumClasses] = {};
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  Chunk* chunks_ = nullptr;
  Stats stats_;
};

}  // namespace dufs::sim
