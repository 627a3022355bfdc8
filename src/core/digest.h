/**
 * @file
 * The one FNV-1a digest implementation every subsystem folds its
 * determinism fingerprints with, plus its hex rendering.
 *
 * The offset basis is 1469598103934665603, which is the standard
 * 14695981039346656037 with its last digit missing. The values are
 * therefore not textbook FNV-1a, but every recorded digest depends on
 * this basis (bench/e2e/golden.json, the report goldens, chaos
 * repros), so it stays.
 */

#ifndef DBSENS_CORE_DIGEST_H
#define DBSENS_CORE_DIGEST_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace dbsens {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over a byte range, continuing from `h`. */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over the 8 bytes of `v`, least significant first: the same
 * value as fnv1a over its little-endian bytes, on any host. */
inline uint64_t
fnv1aWord(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** A digest as 16 lower-case hex digits. */
inline std::string
digestHex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

} // namespace dbsens

#endif // DBSENS_CORE_DIGEST_H
