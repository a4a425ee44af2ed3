/**
 * @file
 * A fixed host-speed probe, independent of the simulator's code.
 */

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "bench.hh"

namespace perfbench
{

namespace
{

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * The memory side of a simulator's inner loop: a pseudo-random
 * address stream into 4-way set-associative tag arrays larger than a
 * core's private caches, and a small event heap.
 */
std::uint64_t
memoryLoop()
{
    constexpr std::size_t kSets = 1 << 18;
    static std::vector<std::uint32_t> tags(kSets * 4);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>> events;
    for (std::uint64_t t = 0; t < 64; ++t)
        events.push(t * 7);
    std::uint64_t x = 0x9e3779b97f4a7c15ull, hits = 0, now = 0;
    for (int i = 0; i < 300000; ++i) {
        xorshift(x);
        std::uint32_t tag = std::uint32_t(x >> 40) & 0x3ff;
        std::uint32_t *set = &tags[((x >> 12) & (kSets - 1)) * 4];
        int way = 0;
        while (way < 4 && set[way] != tag)
            ++way;
        if (way < 4) {
            ++hits;
            std::rotate(set, set + way, set + way + 1);
        } else {
            std::copy_backward(set, set + 3, set + 4);
            set[0] = tag;
        }
        if ((i & 7) == 0) {
            now = events.top();
            events.pop();
            events.push(now + 1 + (x & 63));
        }
    }
    return hits + now;
}

/**
 * The core side: issue and wakeup over a small window held in the L1
 * cache, with data-dependent branches.
 */
std::uint64_t
computeLoop()
{
    constexpr std::uint32_t kSlots = 128;
    std::uint32_t ready[kSlots] = {};
    std::uint64_t x = 0x2545f4914f6cdd1dull, issued = 0, woken = 0;
    std::uint32_t now = 0, head = 0;
    for (int i = 0; i < 1000000; ++i) {
        xorshift(x);
        std::uint32_t slot = (head + std::uint32_t(x & 63)) % kSlots;
        if (ready[slot] <= now) {
            ready[slot] = now + 1 + std::uint32_t((x >> 8) & 7);
            ++issued;
        } else if ((x >> 20) & 1) {
            head = (head + 1) % kSlots;
        }
        for (std::uint32_t k = 0; k < 16; ++k)
            woken += ready[(slot + k) % kSlots] == now;
        ++now;
    }
    return issued + woken + head;
}

/** Keeps the loops' results observable, so they are not optimised out. */
volatile std::uint64_t probeSink;

} // namespace

double
calibrationSeconds()
{
    auto start = Clock::now();
    probeSink = memoryLoop() + computeLoop();
    return secondsSince(start);
}

} // namespace perfbench
