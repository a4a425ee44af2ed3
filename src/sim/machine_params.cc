#include "machine_params.hh"

#include "config.hh"
#include "logging.hh"

namespace softwatt
{

namespace
{

/** A core width or count that is < 1 stalls the pipeline forever. */
int
positiveInt(const Config &config, const char *key, int fallback)
{
    std::int64_t value = config.getInt(key, fallback);
    if (value < 1)
        fatal(msg() << key << " must be at least 1 (got " << value << ")");
    return int(value);
}

} // namespace

void
MachineParams::applyConfig(const Config &config)
{
    instWindowSize =
        positiveInt(config, "cpu.inst_window", instWindowSize);
    lsqSize = int(config.getInt("cpu.lsq_size", lsqSize));
    fetchWidth = positiveInt(config, "cpu.fetch_width", fetchWidth);
    decodeWidth = positiveInt(config, "cpu.decode_width", decodeWidth);
    issueWidth = positiveInt(config, "cpu.issue_width", issueWidth);
    commitWidth = positiveInt(config, "cpu.commit_width", commitWidth);
    intAlus = positiveInt(config, "cpu.int_alus", intAlus);
    fpAlus = positiveInt(config, "cpu.fp_alus", fpAlus);
    bhtEntries = int(config.getInt("cpu.bht_entries", bhtEntries));
    btbEntries = int(config.getInt("cpu.btb_entries", btbEntries));
    rasEntries = int(config.getInt("cpu.ras_entries", rasEntries));

    icache.sizeBytes = std::uint64_t(
        config.getInt("icache.size_kb", icache.sizeBytes / 1024)) *
        1024;
    icache.lineBytes = int(config.getInt("icache.line", icache.lineBytes));
    icache.ways = int(config.getInt("icache.ways", icache.ways));
    dcache.sizeBytes = std::uint64_t(
        config.getInt("dcache.size_kb", dcache.sizeBytes / 1024)) *
        1024;
    dcache.lineBytes = int(config.getInt("dcache.line", dcache.lineBytes));
    dcache.ways = int(config.getInt("dcache.ways", dcache.ways));
    l2cache.sizeBytes = std::uint64_t(
        config.getInt("l2.size_kb", l2cache.sizeBytes / 1024)) *
        1024;
    l2cache.lineBytes = int(config.getInt("l2.line", l2cache.lineBytes));
    l2cache.ways = int(config.getInt("l2.ways", l2cache.ways));
    l2cache.hitLatency =
        int(config.getInt("l2.latency", l2cache.hitLatency));

    tlbEntries = int(config.getInt("tlb.entries", tlbEntries));
    memoryLatency = int(config.getInt("mem.latency", memoryLatency));
    memorySizeBytes = std::uint64_t(config.getInt(
        "mem.size_mb", memorySizeBytes / (1024 * 1024))) *
        1024 * 1024;

    featureSizeUm = config.getDouble("tech.feature_um", featureSizeUm);
    vdd = config.getDouble("tech.vdd", vdd);
    freqMhz = config.getDouble("tech.mhz", freqMhz);
}

} // namespace softwatt
