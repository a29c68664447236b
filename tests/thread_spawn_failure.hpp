// Death-test support for the thread-pool constructors: a pool asked for a
// few thousand threads in a child whose address space is capped runs out of
// thread stacks part-way through its spawn loop. The constructor must then
// join the workers it already started and let the std::system_error reach
// the caller; destroying joinable threads instead kills the child.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <system_error>

// ASan and TSan reserve terabytes of shadow address space at startup, far
// beyond any cap that would starve thread stacks.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SSAU_SHADOW_MEMORY_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SSAU_SHADOW_MEMORY_SANITIZER 1
#endif
#endif

namespace ssau::testing_support {

/// Threads each pool under test asks for: thousands of default 8 MiB stacks
/// cannot fit under kSpawnTestAddressSpace.
inline constexpr unsigned kSpawnTestThreads = 4096;
inline constexpr rlim_t kSpawnTestAddressSpace = rlim_t{512} << 20;

/// Death-test body: caps RLIMIT_AS, runs `construct`, and exits 0 only when
/// construction threw a std::system_error the caller could catch (printing
/// "caught: <what>"). Exits 1 if every spawn succeeded under the cap.
template <typename Construct>
[[noreturn]] void construct_under_address_cap(const Construct& construct) {
  const rlimit cap{kSpawnTestAddressSpace, kSpawnTestAddressSpace};
  if (setrlimit(RLIMIT_AS, &cap) != 0) {
    std::fputs("setrlimit(RLIMIT_AS) failed\n", stderr);
    std::_Exit(2);
  }
  try {
    construct();
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "caught: %s\n", e.what());
    std::_Exit(0);
  }
  std::fputs("every thread spawned under the address-space cap\n", stderr);
  std::_Exit(1);
}

}  // namespace ssau::testing_support
