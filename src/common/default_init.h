// DefaultInitVector<T>: a std::vector whose resize() default-initialises
// new elements instead of value-initialising them, so a trivial T is left
// unwritten rather than zeroed. For buffers that are sized once and then
// filled by a single pass (the split search's event lists and scans), it
// saves a zeroing pass over memory that is about to be overwritten.

#ifndef UDT_COMMON_DEFAULT_INIT_H_
#define UDT_COMMON_DEFAULT_INIT_H_

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace udt {

template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  // resize(n) and vector(n): default-initialise.
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace udt

#endif  // UDT_COMMON_DEFAULT_INIT_H_
