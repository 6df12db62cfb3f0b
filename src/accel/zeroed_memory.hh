/**
 * @file
 * Device memory that reads as zero until it is written.
 *
 * The storage is calloc'd. A block past the allocator's mmap
 * threshold (a GPU's VRAM) is a fresh anonymous mapping: the OS hands
 * out zero pages and faults each in on first touch, so a device's
 * simulated capacity costs no host memory or time until something
 * uses it, and clearing it is one new allocation. Smaller blocks come
 * zeroed from the heap.
 */

#ifndef CRONUS_ACCEL_ZEROED_MEMORY_HH
#define CRONUS_ACCEL_ZEROED_MEMORY_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <type_traits>

#include "base/logging.hh"

namespace cronus::accel
{

template <typename T>
class ZeroedMemory
{
    /* calloc's zero bytes must be a valid zero T. */
    static_assert(std::is_trivial_v<T>);

  public:
    ZeroedMemory() = default;

    explicit ZeroedMemory(size_t n)
        : ptr(static_cast<T *>(std::calloc(n, sizeof(T)))), count(n)
    {
        CRONUS_ASSERT(ptr != nullptr || n == 0,
                      "cannot allocate device memory");
    }

    T *data() { return ptr.get(); }
    const T *data() const { return ptr.get(); }
    size_t size() const { return count; }
    T &operator[](size_t i) { return ptr.get()[i]; }
    T *begin() { return ptr.get(); }
    T *end() { return ptr.get() + count; }

  private:
    struct FreeDeleter
    {
        void operator()(T *p) const { std::free(p); }
    };

    std::unique_ptr<T, FreeDeleter> ptr;
    size_t count = 0;
};

} // namespace cronus::accel

#endif // CRONUS_ACCEL_ZEROED_MEMORY_HH
