// Stable LSD radix sort on unsigned integer keys, eight bits per pass. The
// split-search engine ranks its sample points with it, and the order of
// that sort is the root's event order (split/attribute_index.cc; the
// reference gather of split/fractional_tuple.cc sorts events with it too):
// linear in the input, and stable, so items with equal keys keep their
// input order — which is what keeps tied attribute values in working-set
// order at every thread count.

#ifndef UDT_COMMON_RADIX_SORT_H_
#define UDT_COMMON_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace udt {

// Sorts `items` by the low `key_bits` bits of key(item), ascending and
// stable: ceil(key_bits / 8) counting passes, each skipped when every item
// shares that digit. `scratch` is the ping-pong buffer (resized as
// needed; callers may reuse it across calls). `Vec` is a std::vector of
// any allocator. Requires 0 <= key_bits <= 64 and key(item) < 2^key_bits.
template <typename Vec, typename KeyFn>
void RadixSortByKey(Vec* items, Vec* scratch, int key_bits, KeyFn key) {
  using T = typename Vec::value_type;
  const size_t n = items->size();
  const int passes = (key_bits + 7) / 8;
  if (n < 2 || passes == 0) return;

  // One read pass fills every digit's histogram.
  std::array<std::array<size_t, 256>, 8> counts;
  for (int d = 0; d < passes; ++d) counts[static_cast<size_t>(d)].fill(0);
  for (const T& item : *items) {
    uint64_t k = key(item);
    for (int d = 0; d < passes; ++d) {
      ++counts[static_cast<size_t>(d)][k & 0xFF];
      k >>= 8;
    }
  }

  scratch->resize(n);
  for (int d = 0; d < passes; ++d) {
    std::array<size_t, 256>& offsets = counts[static_cast<size_t>(d)];
    const int shift = 8 * d;
    const size_t first_digit = (key((*items)[0]) >> shift) & 0xFF;
    if (offsets[first_digit] == n) continue;  // constant digit: no-op pass
    size_t sum = 0;
    for (size_t& slot : offsets) {
      const size_t count = slot;
      slot = sum;
      sum += count;
    }
    T* out = scratch->data();
    for (const T& item : *items) {
      out[offsets[(key(item) >> shift) & 0xFF]++] = item;
    }
    items->swap(*scratch);
  }
}

}  // namespace udt

#endif  // UDT_COMMON_RADIX_SORT_H_
