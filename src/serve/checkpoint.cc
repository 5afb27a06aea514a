#include "checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/obs.h"
#include "util/hash.h"

namespace sosim::serve {

namespace {

/** "SOSIMCKP" as a little-endian u64. */
constexpr std::uint64_t kMagic = 0x504b434d49534f53ull;
constexpr std::uint64_t kVersion = 1;

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[sizeof(v)];
    std::memcpy(buf, &v, sizeof(v));
    out.append(buf, sizeof(v));
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

void
PayloadWriter::u64(std::uint64_t v)
{
    appendU64(bytes_, v);
}

void
PayloadWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    appendU64(bytes_, bits);
}

void
PayloadWriter::u64Vector(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (const std::uint64_t x : v)
        u64(x);
}

void
PayloadWriter::f64Vector(const std::vector<double> &v)
{
    u64(v.size());
    for (const double x : v)
        f64(x);
}

bool
PayloadReader::raw(void *out, std::size_t n)
{
    if (offset_ + n > bytes_.size())
        return false;
    std::memcpy(out, bytes_.data() + offset_, n);
    offset_ += n;
    return true;
}

bool
PayloadReader::u64(std::uint64_t &v)
{
    return raw(&v, sizeof(v));
}

bool
PayloadReader::f64(double &v)
{
    std::uint64_t bits = 0;
    if (!raw(&bits, sizeof(bits)))
        return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

bool
PayloadReader::u64Vector(std::vector<std::uint64_t> &v)
{
    std::uint64_t n = 0;
    if (!u64(n) || n > (bytes_.size() - offset_) / sizeof(std::uint64_t))
        return false;
    v.resize(static_cast<std::size_t>(n));
    for (auto &x : v)
        if (!u64(x))
            return false;
    return true;
}

bool
PayloadReader::f64Vector(std::vector<double> &v)
{
    std::uint64_t n = 0;
    if (!u64(n) || n > (bytes_.size() - offset_) / sizeof(double))
        return false;
    v.resize(static_cast<std::size_t>(n));
    for (auto &x : v)
        if (!f64(x))
            return false;
    return true;
}

std::string
checkpointSlotPath(const std::string &dir, int slot)
{
    return dir + "/ckpt-" + (slot == 0 ? "a" : "b") + ".bin";
}

bool
writeCheckpointFile(const std::string &dir, std::uint64_t shape_fp,
                    std::uint64_t epoch, const std::string &payload,
                    std::string *error)
{
    std::string blob;
    blob.reserve(6 * sizeof(std::uint64_t) + payload.size());
    appendU64(blob, kMagic);
    appendU64(blob, kVersion);
    appendU64(blob, shape_fp);
    appendU64(blob, epoch);
    appendU64(blob, payload.size());
    appendU64(blob, util::fnv1a64(payload.data(), payload.size()));
    blob += payload;

    const int slot = static_cast<int>(epoch % 2);
    const std::string path = checkpointSlotPath(dir, slot);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.good())
            return fail(error, "cannot open " + tmp);
        out.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
        out.flush();
        if (!out.good())
            return fail(error, "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return fail(error, "cannot rename " + tmp + " -> " + path);
    SOSIM_COUNT("serve.checkpoint.written");
    SOSIM_EVENT(.kind = obs::EventKind::CheckpointWrite, .a = epoch,
                .b = blob.size(),
                .c = static_cast<std::uint64_t>(slot));
    return true;
}

std::optional<Checkpoint>
readCheckpointFile(const std::string &path,
                   std::uint64_t expected_shape_fp, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
        fail(error, "cannot open " + path);
        return std::nullopt;
    }
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto broken = [&](const std::string &why) {
        fail(error, path + ": " + why);
        SOSIM_COUNT("serve.checkpoint.corrupt");
        return std::nullopt;
    };
    if (blob.size() < 6 * sizeof(std::uint64_t))
        return broken("truncated header");
    std::uint64_t header[6];
    std::memcpy(header, blob.data(), sizeof(header));
    if (header[0] != kMagic)
        return broken("bad magic");
    if (header[1] != kVersion)
        return broken("unsupported version");
    if (header[2] != expected_shape_fp)
        return broken("service shape mismatch");
    const std::uint64_t payload_size = header[4];
    if (blob.size() != 6 * sizeof(std::uint64_t) + payload_size)
        return broken("truncated payload");
    Checkpoint ckpt;
    ckpt.shapeFingerprint = header[2];
    ckpt.epoch = header[3];
    ckpt.payload = blob.substr(6 * sizeof(std::uint64_t));
    if (util::fnv1a64(ckpt.payload.data(), ckpt.payload.size()) !=
        header[5])
        return broken("payload fingerprint mismatch");
    return ckpt;
}

std::optional<Checkpoint>
latestCheckpoint(const std::string &dir, std::uint64_t expected_shape_fp)
{
    std::optional<Checkpoint> best;
    for (int slot = 0; slot < 2; ++slot) {
        auto ckpt = readCheckpointFile(checkpointSlotPath(dir, slot),
                                       expected_shape_fp, nullptr);
        if (ckpt && (!best || ckpt->epoch > best->epoch))
            best = std::move(ckpt);
    }
    return best;
}

} // namespace sosim::serve
