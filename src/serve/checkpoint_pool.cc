#include "checkpoint_pool.hh"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace softwatt::serve
{

namespace fs = std::filesystem;

namespace
{

/** Parse a 16-hex-digit prefix; false when it is not one. */
bool
parseKeyPrefix(const std::string &name, std::uint64_t &key)
{
    if (name.size() < 16)
        return false;
    std::uint64_t value = 0;
    for (int i = 0; i < 16; ++i) {
        char c = name[std::size_t(i)];
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= std::uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= std::uint64_t(c - 'a' + 10);
        else
            return false;
    }
    key = value;
    return true;
}

} // namespace

CheckpointPool::CheckpointPool(std::string directory,
                               std::uint64_t budget_bytes,
                               Durability pool_durability)
    : dir(std::move(directory)), budget(budget_bytes),
      durability(pool_durability)
{
}

std::string
CheckpointPool::keyName(std::uint64_t key)
{
    return fingerprintHex(key) + ".ckpt";
}

std::string
CheckpointPool::poolPath(std::uint64_t key) const
{
    return dir + "/" + keyName(key);
}

std::size_t
CheckpointPool::recover()
{
    std::lock_guard<std::mutex> lock(mutex);
    std::error_code ec;
    std::vector<std::string> poolFiles;
    std::vector<std::pair<std::uint64_t, std::string>> orphans;
    std::vector<std::pair<std::uint64_t, std::string>> poolRotated;
    std::vector<std::string> rotated;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        std::uint64_t key = 0;
        if (!parseKeyPrefix(name, key))
            continue;
        std::string rest = name.substr(16);
        if (rest == ".ckpt") {
            poolFiles.push_back(name);
        } else if (rest == ".ckpt.1") {
            // A rotated pool generation. With its base alive it is
            // budgeted alongside it below; with the base vanished
            // (crash between promote's rotate and rename) it must be
            // promoted back into the slot or deleted, or it is never
            // tracked and leaks across daemon generations.
            poolRotated.emplace_back(key, entry.path().string());
        } else if (rest.compare(0, 10, ".inflight.") == 0) {
            if (rest.size() > 5 &&
                rest.compare(rest.size() - 5, 5, ".ckpt") == 0)
                orphans.emplace_back(key, entry.path().string());
            else
                // A rotated in-flight generation (".ckpt.1"). It
                // must outlive the orphan pass — a torn newest
                // generation falls back to it — so only note it for
                // the final sweep.
                rotated.push_back(entry.path().string());
        }
    }

    // Deterministic order: existing pool entries by name, then
    // orphans by name (a fresh daemon has no usage history to rank
    // them by, and stable order keeps tests reproducible).
    std::sort(poolFiles.begin(), poolFiles.end());
    std::sort(orphans.begin(), orphans.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });

    for (const std::string &name : poolFiles) {
        std::uint64_t key = 0;
        parseKeyPrefix(name, key);
        if (!sizes.count(key))
            lru.push_back(key);
        refreshSizeLocked(key);
    }

    std::size_t promoted = 0;
    std::sort(poolRotated.begin(), poolRotated.end());
    for (const auto &[key, path] : poolRotated) {
        if (sizes.count(key))
            continue;  // Base alive; already budgeted beside it.
        // The newest generation is gone: the survivor becomes the
        // pool slot again when it verifies, and is deleted when torn
        // (or the pool runs in scratch mode).
        std::string slot = poolPath(key);
        try {
            if (budget > 0) {
                readNewestCheckpoint(slot);  // Verifies the survivor.
                IoStatus moved = hostRename(path, slot, durability);
                if (moved) {
                    lru.push_back(key);
                    refreshSizeLocked(key);
                    ++promoted;
                    continue;
                }
                warn(msg() << "checkpoint pool: cannot restore "
                           << "rotated generation '" << path
                           << "': " << moved.message);
            }
        } catch (const CheckpointError &) {
            // Torn: deleted below.
        }
        hostRemoveBestEffort(path);
    }

    for (const auto &[key, path] : orphans) {
        // Only promote an image that verifies end-to-end: an orphan
        // torn by SIGKILL mid-write must not poison the pool slot.
        // A torn newest generation falls back to its rotated
        // predecessor before the progress is abandoned.
        std::string source;
        try {
            source = readNewestCheckpoint(path).source;
        } catch (const CheckpointError &) {
            // Neither generation verifies (or is compatible).
        }
        if (source.empty() || budget == 0) {
            removeCheckpoint(path);
            continue;
        }
        IoStatus moved =
            promoteCheckpoint(source, poolPath(key), durability);
        // A successful promote of the newest generation consumed the
        // orphan; anything else leaves files behind to delete.
        if (!moved || source != path)
            removeCheckpoint(path);
        if (!moved) {
            // A failed promote leaves the slot's previous contents
            // (already budgeted above) in place.
            warn(msg() << "checkpoint pool: orphan: "
                       << moved.message);
            refreshSizeLocked(key);
            continue;
        }
        touchLocked(key);
        refreshSizeLocked(key);
        ++promoted;
    }
    // Now that every orphan had its chance to fall back, sweep the
    // rotated generations that remain (strays whose newest image was
    // promoted directly, or whose base vanished entirely).
    for (const std::string &path : rotated)
        hostRemoveBestEffort(path);
    enforceBudgetLocked();
    if (promoted > 0) {
        inform(msg() << "checkpoint pool: promoted " << promoted
                     << " image(s) orphaned by a previous daemon "
                     << "generation");
    }
    return promoted;
}

std::string
CheckpointPool::lookup(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = sizes.find(key);
    if (it == sizes.end())
        return "";
    std::string path = poolPath(key);
    if (checkpointBytes(path) == 0) {
        // Both generations vanished under us; drop the entry.
        lru.remove(key);
        sizes.erase(it);
        return "";
    }
    touchLocked(key);
    return path;
}

std::string
CheckpointPool::inflightPath(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t seq = inflightSeq++;
    return dir + "/" + fingerprintHex(key) + ".inflight." +
           std::to_string(seq) + ".ckpt";
}

bool
CheckpointPool::promote(std::uint64_t key,
                        const std::string &inflight_path)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (budget == 0 || hostFileSize(inflight_path) == 0) {
        removeCheckpoint(inflight_path);
        return false;
    }
    // A failed rotation aborts the promote and keeps the existing
    // image; a failed rename may leave the slot holding only its
    // rotated generation. Either way re-stat, so the index never
    // points at files that are not there.
    IoStatus moved =
        promoteCheckpoint(inflight_path, poolPath(key), durability);
    if (!moved) {
        warn(msg() << "checkpoint pool: " << moved.message);
        removeCheckpoint(inflight_path);
        refreshSizeLocked(key);
        return false;
    }
    touchLocked(key);
    refreshSizeLocked(key);
    enforceBudgetLocked();
    return sizes.count(key) != 0;
}

void
CheckpointPool::discard(const std::string &inflight_path)
{
    removeCheckpoint(inflight_path);
}

std::uint64_t
CheckpointPool::bytesUsed() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (const auto &[key, size] : sizes)
        total += size;
    return total;
}

std::size_t
CheckpointPool::entries() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return sizes.size();
}

std::uint64_t
CheckpointPool::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return evicted;
}

void
CheckpointPool::refreshSizeLocked(std::uint64_t key)
{
    std::uint64_t total = checkpointBytes(poolPath(key));
    if (total == 0) {
        lru.remove(key);
        sizes.erase(key);
        return;
    }
    sizes[key] = total;
}

void
CheckpointPool::touchLocked(std::uint64_t key)
{
    lru.remove(key);
    lru.push_front(key);
}

void
CheckpointPool::enforceBudgetLocked()
{
    std::uint64_t used = 0;
    for (const auto &[key, size] : sizes)
        used += size;
    while (used > budget && !lru.empty()) {
        std::uint64_t victim = lru.back();
        lru.pop_back();
        std::uint64_t size = sizes[victim];
        removeCheckpoint(poolPath(victim));
        sizes.erase(victim);
        used -= size;
        ++evicted;
    }
}

} // namespace softwatt::serve
