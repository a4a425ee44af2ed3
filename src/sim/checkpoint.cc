#include "sim/checkpoint.hh"

#include <cstring>
#include <fstream>

#include "sim/logging.hh"

namespace softwatt
{

namespace
{

constexpr char checkpointMagic[6] = {'S', 'W', 'C', 'K', 'P', 'T'};

/** Practical ceilings that keep a damaged length field from driving
 *  a multi-gigabyte allocation before the checksum catches it. */
constexpr std::uint64_t maxChunkBytes = 1ull << 32;
constexpr std::uint32_t maxChunks = 1u << 16;
constexpr std::uint32_t maxNameBytes = 1u << 12;

void
putLeFile(std::string &out, std::uint64_t value, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(char(std::uint8_t(value >> (8 * i))));
}

class FileCursor
{
  public:
    FileCursor(const std::string &bytes, const std::string &path)
        : data(bytes), file(path)
    {}

    std::uint64_t
    le(int n)
    {
        if (data.size() - cursor < std::size_t(n))
            truncated();
        std::uint64_t value = 0;
        for (int i = 0; i < n; ++i) {
            value |= std::uint64_t(std::uint8_t(data[cursor++]))
                     << (8 * i);
        }
        return value;
    }

    std::string
    raw(std::uint64_t n)
    {
        if (data.size() - cursor < n)
            truncated();
        std::string out = data.substr(cursor, n);
        cursor += n;
        return out;
    }

    bool atEnd() const { return cursor == data.size(); }

  private:
    [[noreturn]] void
    truncated() const
    {
        throw CheckpointError(msg()
                              << "checkpoint '" << file
                              << "' is truncated (at byte " << cursor
                              << " of " << data.size() << ")");
    }

    const std::string &data;
    std::string file;
    std::size_t cursor = 0;
};

} // namespace

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t state = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= data[i];
        state *= 0x100000001b3ull;
    }
    return state;
}

std::string
fingerprintHex(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string text(16, '0');
    for (int i = 0; i < 16; ++i)
        text[std::size_t(i)] = digits[(value >> (60 - 4 * i)) & 0xf];
    return text;
}

void
ChunkWriter::f64(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
}

void
ChunkWriter::str(const std::string &text)
{
    u32(std::uint32_t(text.size()));
    for (char c : text)
        buffer.push_back(std::uint8_t(c));
}

double
ChunkReader::f64()
{
    std::uint64_t bits = u64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
ChunkReader::str()
{
    std::uint32_t len = u32();
    need(len);
    std::string out(reinterpret_cast<const char *>(&data[cursor]),
                    len);
    cursor += len;
    return out;
}

void
ChunkReader::need(std::size_t n) const
{
    if (data.size() - cursor < n) {
        throw CheckpointError(
            msg() << "chunk '" << name << "': payload underrun ("
                  << n << " bytes needed, " << (data.size() - cursor)
                  << " left)");
    }
}

void
ChunkReader::finish() const
{
    if (cursor != data.size()) {
        throw CheckpointError(
            msg() << "chunk '" << name << "': "
                  << (data.size() - cursor)
                  << " trailing bytes after deserialization");
    }
}

void
CheckpointImage::add(const std::string &name,
                     const ChunkWriter &writer)
{
    chunks.push_back(CheckpointChunk{name, writer.bytes()});
}

const CheckpointChunk *
CheckpointImage::find(const std::string &name) const
{
    for (const CheckpointChunk &chunk : chunks) {
        if (chunk.name == name)
            return &chunk;
    }
    return nullptr;
}

void
writeCheckpoint(const std::string &path,
                const CheckpointImage &image, Durability durability)
{
    std::string bytes;
    bytes.append(checkpointMagic, sizeof(checkpointMagic));
    putLeFile(bytes, image.version, 2);
    putLeFile(bytes, image.configFingerprint, 8);
    putLeFile(bytes, image.cpuModel, 1);
    putLeFile(bytes, std::uint32_t(image.chunks.size()), 4);
    for (const CheckpointChunk &chunk : image.chunks) {
        putLeFile(bytes, std::uint32_t(chunk.name.size()), 4);
        bytes.append(chunk.name);
        putLeFile(bytes, std::uint64_t(chunk.payload.size()), 8);
        putLeFile(bytes,
                  fnv1a64(chunk.payload.data(),
                          chunk.payload.size()),
                  8);
        bytes.append(
            reinterpret_cast<const char *>(chunk.payload.data()),
            chunk.payload.size());
    }

    // Temp-then-rename through the host-I/O seam: under
    // Durability::Full the temp file is fsynced before the rename
    // and the parent directory afterwards, so a power cut can never
    // leave a zero-length or torn file under the final name.
    IoStatus status = hostWriteFileAtomic(path, bytes, durability);
    if (!status) {
        throw CheckpointError(msg() << "checkpoint: cannot write '"
                                    << path
                                    << "': " << status.message);
    }
}

CheckpointImage
readCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CheckpointError(msg() << "checkpoint: cannot open '"
                                    << path << "' for reading");
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) {
        throw CheckpointError(msg() << "checkpoint: read error on '"
                                    << path << "'");
    }

    FileCursor cursor(bytes, path);
    std::string magic = cursor.raw(sizeof(checkpointMagic));
    if (std::memcmp(magic.data(), checkpointMagic,
                    sizeof(checkpointMagic)) != 0) {
        throw CheckpointError(msg() << "'" << path << "' is not a "
                                    << "SoftWatt checkpoint (bad "
                                    << "magic)");
    }

    CheckpointImage image;
    image.version = std::uint16_t(cursor.le(2));
    if (image.version != checkpointFormatVersion) {
        throw CheckpointMismatch(
            msg() << "checkpoint '" << path << "' has format version "
                  << image.version << "; this build reads version "
                  << checkpointFormatVersion);
    }
    image.configFingerprint = cursor.le(8);
    image.cpuModel = std::uint8_t(cursor.le(1));

    std::uint32_t count = std::uint32_t(cursor.le(4));
    if (count > maxChunks) {
        throw CheckpointError(msg() << "checkpoint '" << path
                                    << "': implausible chunk count "
                                    << count);
    }
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t name_len = std::uint32_t(cursor.le(4));
        if (name_len > maxNameBytes) {
            throw CheckpointError(
                msg() << "checkpoint '" << path << "': implausible "
                      << "chunk name length " << name_len);
        }
        CheckpointChunk chunk;
        chunk.name = cursor.raw(name_len);
        std::uint64_t payload_len = cursor.le(8);
        if (payload_len > maxChunkBytes) {
            throw CheckpointError(
                msg() << "checkpoint '" << path << "': implausible "
                      << "payload length " << payload_len
                      << " in chunk '" << chunk.name << "'");
        }
        std::uint64_t checksum = cursor.le(8);
        std::string payload = cursor.raw(payload_len);
        chunk.payload.assign(payload.begin(), payload.end());
        std::uint64_t actual =
            fnv1a64(chunk.payload.data(), chunk.payload.size());
        if (actual != checksum) {
            throw CheckpointError(
                msg() << "checkpoint '" << path << "': checksum "
                      << "mismatch in chunk '" << chunk.name << "'");
        }
        image.chunks.push_back(std::move(chunk));
    }
    if (!cursor.atEnd()) {
        throw CheckpointError(msg()
                              << "checkpoint '" << path
                              << "': trailing garbage after the last "
                              << "chunk");
    }
    return image;
}

std::string
checkpointPreviousGeneration(const std::string &path)
{
    return path + ".1";
}

namespace
{

/** Move @p path onto its older generation with one rename, which
 *  replaces the old "<path>.1" atomically; nothing to do when
 *  @p path does not exist. */
IoStatus
rotateCheckpoint(const std::string &path, Durability durability)
{
    if (!hostFileExists(path))
        return IoStatus::good();
    return hostRename(path, checkpointPreviousGeneration(path),
                      durability);
}

} // namespace

void
autosaveCheckpoint(const std::string &path,
                   const CheckpointImage &image,
                   Durability durability)
{
    // The write goes through tmp+rename, so at every instant at
    // least one complete generation exists on disk. A rotation
    // failure is survivable — the overwrite still lands atomically,
    // keeping a single generation for this cycle — so warn instead
    // of failing the autosave.
    IoStatus rotated = rotateCheckpoint(path, durability);
    if (!rotated) {
        warn(msg() << "checkpoint: cannot rotate '" << path
                   << "' (keeping a single generation): "
                   << rotated.message);
    }
    writeCheckpoint(path, image, durability);
}

CheckpointRead
readNewestCheckpoint(const std::string &path)
{
    try {
        return {readCheckpoint(path), path};
    } catch (const CheckpointMismatch &) {
        throw;
    } catch (const CheckpointError &err) {
        warn(msg() << "checkpoint " << path << " is unusable ("
                   << err.what()
                   << "); falling back to the previous generation");
    }
    std::string previous = checkpointPreviousGeneration(path);
    try {
        return {readCheckpoint(previous), previous};
    } catch (const CheckpointMismatch &) {
        throw;
    } catch (const CheckpointError &err) {
        throw CheckpointError(msg() << "previous-generation checkpoint "
                                    << previous << " is unusable too ("
                                    << err.what() << ")");
    }
}

void
removeCheckpoint(const std::string &path)
{
    hostRemoveBestEffort(path);
    hostRemoveBestEffort(checkpointPreviousGeneration(path));
}

std::uint64_t
checkpointBytes(const std::string &path)
{
    return hostFileSize(path) +
           hostFileSize(checkpointPreviousGeneration(path));
}

} // namespace softwatt
