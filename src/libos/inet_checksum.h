/**
 * @file
 * The Internet checksum (RFC 1071), shared by the TCP/IP stack and its
 * tests. Internal to src/libos: not part of the socket API.
 */

#ifndef CUBICLEOS_LIBOS_INET_CHECKSUM_H_
#define CUBICLEOS_LIBOS_INET_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cubicleos::libos {

/**
 * One's-complement checksum over @p len bytes, read as big-endian
 * 16-bit words, plus an initial partial sum @p sum (e.g. the TCP
 * pseudo-header). Returns the complemented 16-bit result, so a buffer
 * that carries its own valid checksum sums to 0.
 *
 * The body loads 8 bytes at a time, sums their two native 32-bit
 * words into a 64-bit accumulator and byte-swaps the folded total on
 * little-endian hosts (RFC 1071 §2(B): the one's-complement sum is
 * byte-order independent); the last 0-7 bytes go through the
 * byte-pair loop. The result equals the byte-pair loop's for every
 * input.
 */
inline uint16_t
inetChecksum(const uint8_t *data, std::size_t len, uint64_t sum = 0)
{
    uint64_t words = 0;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, sizeof(w));
        words += (w & 0xFFFFFFFF) + (w >> 32);
    }
    while (words >> 16)
        words = (words & 0xFFFF) + (words >> 16);
    if constexpr (std::endian::native == std::endian::little)
        words = ((words & 0xFF) << 8) | (words >> 8);
    sum += words;

    for (; i + 1 < len; i += 2)
        sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
    if (len & 1)
        sum += static_cast<uint32_t>(data[len - 1]) << 8;
    while (sum >> 16)
        sum = (sum & 0xFFFF) + (sum >> 16);
    return static_cast<uint16_t>(~sum & 0xFFFF);
}

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_INET_CHECKSUM_H_
