#include <vector>

#include "perfbench.hh"

namespace perfbench {

std::uint32_t
hostProbe()
{
    constexpr std::uint32_t kMask = (1u << 19) - 1;  // 2 MiB of words
    static std::vector<std::uint32_t> table(kMask + 1);
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t acc = 0;
    for (std::uint32_t i = 0; i < kProbeIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &t = table[(x ^ acc) & kMask];
        if (t & 1)
            acc += t;
        else
            acc ^= static_cast<std::uint32_t>(x);
        t += acc;
    }
    return acc;
}

} // namespace perfbench
