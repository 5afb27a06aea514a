#ifndef SOSIM_UTIL_HASH_H
#define SOSIM_UTIL_HASH_H

/**
 * @file
 * The one FNV-1a family every fingerprint in the simulator is built
 * from: op-graph value identities (core/fingerprints.h), the fault-plan
 * and shape-index fingerprints, the serve digest and the checkpoint
 * payload check.
 *
 * Two word mixers with different, pinned outputs live here:
 * hashCombine (one xor-multiply-fold step per 64-bit word, for cache
 * keys and digests) and mixWord (byte-wise FNV-1a over the word's eight
 * bytes, least significant first, for fingerprints that were defined
 * as FNV over raw bytes).  Neither may change: golden digests and
 * fingerprint pins depend on both.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace sosim::util {

/** FNV-1a offset basis; the seed of every fingerprint. */
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
/** FNV-1a prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over a byte range, continuing from `seed`. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t bytes,
        std::uint64_t seed = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/**
 * Byte-wise FNV-1a over the eight bytes of `v`, least significant
 * first (explicit shifts, so the result does not depend on the host's
 * byte order).
 */
inline std::uint64_t
mixWord(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

/** Mix a second hash into a first (order-sensitive). */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    // Word-wise FNV-1a step: mixing b in one byte at a time would be
    // slower and no stronger; xor-multiply per 64-bit word is enough for
    // keys that only ever compare for equality.
    a ^= b;
    a *= kFnvPrime;
    a ^= a >> 32;
    a *= kFnvPrime;
    return a;
}

/** Fingerprint of a double array (bitwise, word at a time). */
inline std::uint64_t
fingerprintDoubles(const double *data, std::size_t n,
                   std::uint64_t seed = kFnvOffset)
{
    std::uint64_t h = hashCombine(seed, n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits;
        std::memcpy(&bits, &data[i], sizeof(bits));
        h = hashCombine(h, bits);
    }
    return h;
}

/** Fingerprint of a string (op names, config enums rendered as text). */
inline std::uint64_t
fingerprintString(std::string_view s, std::uint64_t seed = kFnvOffset)
{
    return fnv1a64(s.data(), s.size(), seed);
}

} // namespace sosim::util

#endif // SOSIM_UTIL_HASH_H
