// A process-wide allocation cap for the decoder fuzz binaries.
//
// Include this header from exactly one translation unit of a test binary
// (each tests/*_test.cc is its own binary). It replaces the global
// operator new / delete with malloc-backed versions that count live heap
// bytes and throw std::bad_alloc when a request would take them past
// kAllocCapBytes. A decoder that sizes an allocation from an unchecked
// length (a reserve of a corrupted count) then fails its test with an
// uncaught bad_alloc on every host, instead of passing or failing
// according to the host's overcommit policy. setrlimit(RLIMIT_AS) cannot
// do this job: AddressSanitizer reserves terabytes of shadow address
// space up front.
//
// Live bytes are counted with malloc_usable_size (glibc, and intercepted
// by ASan), so a pointer is charged and refunded the same amount. The
// plain, array and nothrow forms are replaced together (a nothrow new may
// be released by a plain delete, so they must share an allocator); the
// aligned forms are left to the library, which pairs them itself.

#ifndef OCDX_TESTS_ALLOC_CAP_H_
#define OCDX_TESTS_ALLOC_CAP_H_

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace ocdx {
namespace testing_alloc {

/// The cap on live operator-new bytes. Both fuzz binaries pass with an
/// 8 MiB cap (their inputs are corpus files and their snapshots, a few
/// KB each); a corrupted count with a high bit set asks for gigabytes.
inline constexpr size_t kAllocCapBytes = size_t{64} << 20;  // 64 MiB

inline std::atomic<size_t> live_bytes{0};

inline void* Allocate(size_t n) {
  if (n > kAllocCapBytes ||
      live_bytes.load(std::memory_order_relaxed) + n > kAllocCapBytes) {
    throw std::bad_alloc();
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

inline void Release(void* p) noexcept {
  if (p == nullptr) return;
  live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace testing_alloc
}  // namespace ocdx

void* operator new(std::size_t n) { return ocdx::testing_alloc::Allocate(n); }
void* operator new[](std::size_t n) {
  return ocdx::testing_alloc::Allocate(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ocdx::testing_alloc::Allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { ocdx::testing_alloc::Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ocdx::testing_alloc::Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ocdx::testing_alloc::Release(p);
}
void operator delete[](void* p) noexcept { ocdx::testing_alloc::Release(p); }
void operator delete(void* p, std::size_t) noexcept {
  ocdx::testing_alloc::Release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ocdx::testing_alloc::Release(p);
}

#endif  // OCDX_TESTS_ALLOC_CAP_H_
