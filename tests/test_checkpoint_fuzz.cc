/**
 * @file
 * Deterministic mutation fuzz of the serve checkpoint loader:
 * serve::readCheckpointFile, serve::latestCheckpoint and
 * serve::Service::restoreLatest.
 *
 * Seeds are the two slot files the fixture scenario writes by tick 20.
 * Each mutation is a bit flip, a truncation, appended bytes or an
 * edited header word of a seed file, or an edit of the seed's payload
 * (its bytes or one of its fields) that is re-sealed with
 * writeCheckpointFile, so the payload fingerprint holds and the edit
 * reaches restoreLatest's field checks.  The property: every load
 * either restores or returns false, never throws, and a refused restore
 * leaves the live service's digest, assignment, committed epoch and
 * ring frontier as they were.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "power/power_tree.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve_fixture.h"

namespace {

using namespace sosim;
using namespace sosim::serve_fixture;

/** Header words before the payload: magic, version, shape fingerprint,
 *  epoch, payload size, payload fingerprint. */
constexpr std::size_t kHeaderBytes = 6 * sizeof(std::uint64_t);

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t
wordAt(const std::string &bytes, std::size_t offset)
{
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + offset, sizeof(v));
    return v;
}

void
setWordAt(std::string &bytes, std::size_t offset, std::uint64_t v)
{
    std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

/** What a refused restore must leave untouched. */
struct LiveState {
    std::uint64_t digest = 0;
    std::uint64_t committed = 0;
    std::uint64_t frontier = 0;
    power::Assignment assignment;

    explicit LiveState(const serve::Service &svc)
        : digest(svc.digest()), committed(svc.committedEpoch()),
          frontier(svc.ring().frontier()), assignment(svc.assignment())
    {
    }

    bool operator==(const LiveState &o) const
    {
        return digest == o.digest && committed == o.committed &&
               frontier == o.frontier && assignment == o.assignment;
    }
};

TEST(CheckpointFuzz, MutatedCheckpointRestoresOrIsRefusedCleanly)
{
    const std::string dir = freshDir("checkpoint_fuzz");
    const power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    const auto initial = baseline::obliviousPlacement(tree, service_of);

    std::optional<serve::Service> svc;
    svc.emplace(tree, service_of, initial, 60, tinyConfig(dir));
    drive(*svc, 0, 20);
    const std::uint64_t shape_fp = svc->shapeFingerprint();
    const std::array<std::string, 2> slots = {
        serve::checkpointSlotPath(dir, 0),
        serve::checkpointSlotPath(dir, 1)};
    const std::array<std::string, 2> seeds = {readFile(slots[0]),
                                              readFile(slots[1])};
    std::array<ServePayload, 2> fields;
    for (std::size_t s = 0; s < 2; ++s) {
        ASSERT_GT(seeds[s].size(), kHeaderBytes);
        ASSERT_TRUE(parsePayload(seeds[s].substr(kHeaderBytes), fields[s]));
    }

    // The live service under test starts from another placement and
    // runs past tick 20, so its digest, assignment and frontier differ
    // from both seeds': a field that a refused restore wrote before
    // refusing would show.  After an accepted restore it is rebuilt.
    auto live_initial = initial;
    std::rotate(live_initial.begin(), live_initial.begin() + 1,
                live_initial.end());
    const auto rebuild = [&] {
        svc.reset();
        svc.emplace(tree, service_of, live_initial, 60, tinyConfig(dir));
        drive(*svc, 0, 26);
    };
    rebuild();
    for (const ServePayload &seed : fields) {
        ASSERT_NE(seed.frontier, svc->ring().frontier());
        ASSERT_NE(seed.digest, svc->digest());
        ASSERT_NE(power::Assignment(seed.assign.begin(), seed.assign.end()),
                  svc->assignment());
    }

    std::mt19937_64 rng(20261027);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::uint64_t window = svc->config().window;
    const std::array<std::uint64_t, 6> words = {
        0, 1, ~std::uint64_t{0}, window, std::uint64_t{1} << 63U,
        0x7ff8000000000000ULL /* NaN bits */};
    const std::array<double, 6> doubles = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -1.0, -0.0, 1e308, 0.0};
    const auto anyWord = [&] {
        return pick(2) == 0 ? words[pick(words.size())] : rng();
    };

    // A payload byte edit: flip, truncate, append, or overwrite one word.
    const auto editBytes = [&](std::string bytes) {
        switch (pick(4)) {
          case 0:
            if (!bytes.empty())
                bytes[pick(bytes.size())] ^=
                    static_cast<char>(1U << pick(8));
            break;
          case 1:
            bytes.resize(pick(bytes.size() + 1));
            break;
          case 2:
            for (std::size_t n = 1 + pick(16); n > 0; --n)
                bytes.push_back(static_cast<char>(pick(256)));
            break;
          default:
            if (bytes.size() >= sizeof(std::uint64_t))
                setWordAt(bytes,
                          sizeof(std::uint64_t) *
                              pick(bytes.size() / sizeof(std::uint64_t)),
                          anyWord());
        }
        return bytes;
    };
    // A payload field edit: one field of the seed's payload.
    const auto editField = [&](ServePayload p) {
        const auto some = [&](auto &v) -> auto & {
            return v[pick(v.size())];
        };
        switch (pick(12)) {
          case 0:
            p.frontier += pick(2) == 0 ? 1 : window;
            break;
          case 1:
            p.frontier = anyWord();
            break;
          case 2:
            p.committed = anyWord();
            break;
          case 3:
            p.digest = anyWord();
            break;
          case 4:
            some(p.slots) = doubles[pick(doubles.size())];
            break;
          case 5:
            some(p.fills) += pick(2) == 0 ? 1 : window;
            break;
          case 6:
            some(p.counters) = anyWord();
            break;
          case 7:
            some(p.assign) = pick(2) == 0 ? anyWord()
                                          : pick(tree.nodeCount() + 1);
            break;
          case 8: // Resize one vector field.
            switch (pick(4)) {
              case 0:
                p.slots.resize(pick(p.slots.size() + 2));
                break;
              case 1:
                p.fills.resize(pick(p.fills.size() + 2));
                break;
              case 2:
                p.counters.resize(pick(p.counters.size() + 2));
                break;
              default:
                p.assign.resize(pick(p.assign.size() + 2));
            }
            break;
          case 9:
            p.baselineWindow.assign(pick(6), doubles[pick(doubles.size())]);
            p.weekCounter = anyWord();
            break;
          case 10: // Grow or shrink the epoch queue.
            p.queue.resize(pick(4));
            break;
          default: // Edit a queued snapshot, or add one.
            if (p.queue.empty())
                p.queue.resize(1);
            auto &snap = some(p.queue);
            snap.epoch = anyWord();
            snap.lastTick = anyWord();
            if (pick(2) == 0)
                snap.flat.resize(pick(snap.flat.size() + 2));
        }
        return writePayload(p);
    };

    std::size_t accepted = 0;
    std::size_t refused = 0;
    std::size_t resealed_refused = 0;
    for (int iter = 0; iter < 600; ++iter) {
        const std::size_t s = pick(2);
        const std::string &seed = seeds[s];
        // Usually the mutated file is alone; sometimes the other slot
        // holds its intact seed, which the loader may fall back to.
        const bool keep_other = pick(4) == 0;
        std::filesystem::remove(slots[0]);
        std::filesystem::remove(slots[1]);
        if (keep_other)
            writeFile(slots[1 - s], seeds[1 - s]);

        const std::size_t mode = pick(6);
        const bool resealed = mode >= 4;
        if (resealed) {
            const std::string payload =
                mode == 4 ? editBytes(seed.substr(kHeaderBytes))
                          : editField(fields[s]);
            ASSERT_TRUE(serve::writeCheckpointFile(
                dir, shape_fp, wordAt(seed, 3 * sizeof(std::uint64_t)),
                payload, nullptr));
            // The file layer accepts a re-sealed payload, so a refusal
            // below comes from restoreLatest's field checks.
            ASSERT_TRUE(serve::latestCheckpoint(dir, shape_fp).has_value());
        } else {
            std::string blob = seed;
            switch (mode) {
              case 0:
                for (std::size_t n = 1 + pick(3); n > 0; --n)
                    blob[pick(blob.size())] ^=
                        static_cast<char>(1U << pick(8));
                break;
              case 1:
                blob.resize(pick(blob.size()));
                break;
              case 2:
                for (std::size_t n = 1 + pick(16); n > 0; --n)
                    blob.push_back(static_cast<char>(pick(256)));
                break;
              default: {
                const std::size_t at = sizeof(std::uint64_t) * pick(6);
                const std::uint64_t old = wordAt(blob, at);
                const std::uint64_t other = wordAt(seeds[1 - s], at);
                const std::array<std::uint64_t, 4> edits = {
                    old + 1, old - 1, other, anyWord()};
                setWordAt(blob, at, edits[pick(edits.size())]);
              }
            }
            writeFile(slots[s], blob);
        }

        const LiveState before(*svc);
        bool restored = false;
        try {
            restored = svc->restoreLatest();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iteration " << iter << " mode " << mode
                          << ": restoreLatest threw: " << e.what();
            rebuild();
            continue;
        }
        if (restored) {
            ++accepted;
            rebuild();
            continue;
        }
        ++refused;
        if (resealed && !keep_other)
            ++resealed_refused;
        EXPECT_TRUE(LiveState(*svc) == before)
            << "iteration " << iter << " mode " << mode
            << ": a refused restore changed the service";
    }
    // Both outcomes occur, and re-sealed edits reach the field checks.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(resealed_refused, 0u);
}

} // namespace
