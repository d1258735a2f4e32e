/**
 * @file
 * Byte-exact serialization and crash-safe file-write helpers.
 *
 * The simulation repository persists binary records whose doubles
 * must round-trip bit-for-bit; values are encoded little-endian
 * regardless of host order, with FNV-1a checksums for integrity.
 * Writers either replace a file atomically (write `*.tmp`, fsync,
 * rename) or append-and-fsync, so an interrupted process never
 * corrupts previously-committed bytes.
 */

#ifndef ADAPTSIM_COMMON_SERIAL_HH
#define ADAPTSIM_COMMON_SERIAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace adaptsim
{

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a hash of a byte range (chainable via @p seed). */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed = kFnvBasis);

/** Append @p v to @p out as 8 little-endian bytes. */
void putU64(std::string &out, std::uint64_t v);

/** Append @p s to @p out as a 4-byte little-endian length prefix
 *  plus bytes. */
void putString(std::string &out, std::string_view s);

/** Append the bit pattern of @p v to @p out (exact round-trip). */
void putDouble(std::string &out, double v);

/** Decode 8 little-endian bytes at @p p. */
std::uint64_t getU64(const char *p);

/**
 * Decode a putString()-encoded string from @p in at offset @p off,
 * advancing @p off past it.  Returns false (leaving @p out empty and
 * @p off unspecified) when the prefix or bytes run past the buffer.
 */
bool getString(std::string_view in, std::size_t &off,
               std::string &out);

/** Decode the double bit pattern at @p p. */
double getDouble(const char *p);

/**
 * Replace @p path atomically: write @p bytes to `path + ".tmp"`,
 * fsync, then rename over @p path.  A crash at any point leaves
 * either the old file or the new one, never a mix.
 */
bool atomicWriteFile(const std::string &path, std::string_view bytes);

/**
 * Append @p bytes to @p path (creating it if absent) and fsync
 * before returning, so the bytes survive a subsequent crash.
 */
bool appendFileSync(const std::string &path, std::string_view bytes);

/** Slurp a file; empty string when missing/unreadable. */
std::string readFile(const std::string &path);

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_SERIAL_HH
