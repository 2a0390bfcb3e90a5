// Fixture: exactly one `atomic-pointer` violation (an atomic raw
// pointer member). Atomic integers, a shared_ptr, and a pointer inside
// a non-atomic template must NOT fire.
#ifndef SOI_TESTS_LINT_FIXTURES_BAD_ATOMIC_POINTER_H_
#define SOI_TESTS_LINT_FIXTURES_BAD_ATOMIC_POINTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

struct BadAtomicPointer {
  std::atomic<int64_t> readers{0};
  std::atomic<const std::vector<int>*> current{nullptr};
  std::shared_ptr<const std::vector<int>> snapshot;
  std::vector<const int*> borrowed;
};

#endif  // SOI_TESTS_LINT_FIXTURES_BAD_ATOMIC_POINTER_H_
