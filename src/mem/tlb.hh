/**
 * @file
 * Software-managed, fully-associative unified TLB (Table 1: 64
 * entries). Misses trap to the operating system's utlb handler,
 * exactly as on MIPS; the hardware provides lookup and insert only.
 */

#ifndef SOFTWATT_MEM_TLB_HH
#define SOFTWATT_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/types.hh"

namespace softwatt
{

/**
 * Fully associative TLB with LRU replacement.
 *
 * Entries are keyed by (address-space id, virtual page number).
 * Kernel-mapped (KSEG0-style) addresses bypass the TLB entirely and
 * never reach this class.
 */
class Tlb : public Checkpointable
{
  public:
    explicit Tlb(int num_entries, int page_bytes = 4096);

    /**
     * Look up a virtual address for an address space.
     * @return True on a hit (and refreshes LRU state).
     */
    bool lookup(std::uint32_t asid, Addr vaddr);

    /** Insert a translation (the utlb handler's TLBWR). */
    void insert(std::uint32_t asid, Addr vaddr);

    /** Drop every entry (context-switch flush on ASID exhaustion). */
    void invalidateAll();

    /** Drop entries of one address space. */
    void invalidateAsid(std::uint32_t asid);

    std::uint64_t refs() const { return numRefs; }
    std::uint64_t misses() const { return numMisses; }
    int size() const { return int(entries.size()); }
    int pageBytes() const { return pageSize; }

    /** Virtual page number of an address. */
    Addr vpn(Addr vaddr) const { return vaddr >> pageShift; }

    // Checkpointable: entries, LRU clock and statistics.
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    struct Entry
    {
        std::uint32_t asid = 0;
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> entries;
    /**
     * Slot of the last lookup hit, tried before the scan. Only a hint:
     * lookup checks valid/asid/vpn, and (asid, vpn) is unique among
     * valid entries, so hit/miss and LRU order are unaffected.
     */
    std::size_t mruSlot = 0;  // ckpt:derived: hint, verified on use
    int pageSize;   // ckpt:derived: fixed at construction
    int pageShift;  // ckpt:derived: computed from pageSize
    std::uint64_t useCounter = 0;
    std::uint64_t numRefs = 0;
    std::uint64_t numMisses = 0;
};

} // namespace softwatt

#endif // SOFTWATT_MEM_TLB_HH
