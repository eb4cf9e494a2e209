/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
 * range — the checksum behind the checkpoint file footer. Streamable:
 * feed the previous return value back as @p seed to continue a running
 * checksum across buffers.
 */
#ifndef SNIP_UTIL_CRC32_H
#define SNIP_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace snip {

/** CRC-32 of @p n bytes at @p data, continuing from @p seed (pass 0
 *  to start; pass a previous return value to extend). */
uint32_t crc32(const void *data, size_t n, uint32_t seed = 0);

} // namespace snip

#endif // SNIP_UTIL_CRC32_H
