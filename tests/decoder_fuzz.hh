/**
 * @file
 * Corruption harness for on-disk decoder tests: every strict prefix
 * of a valid encoding (a torn write) and every single-bit flip of it
 * (media or memory corruption).  Each input goes to a caller check
 * that asserts the decoder rejected or repaired it without crashing.
 */

#ifndef ADAPTSIM_TESTS_DECODER_FUZZ_HH
#define ADAPTSIM_TESTS_DECODER_FUZZ_HH

#include <cstddef>
#include <string>

namespace adaptsim::test
{

/** Call @p check(prefix) for every strict prefix of @p bytes. */
template <typename Check>
void
forEachTruncation(const std::string &bytes, Check &&check)
{
    for (std::size_t len = 0; len < bytes.size(); ++len)
        check(bytes.substr(0, len));
}

/** Call @p check(corrupt, byte_index) for every single-bit flip of
 *  @p bytes. */
template <typename Check>
void
forEachBitFlip(const std::string &bytes, Check &&check)
{
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = bytes;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            check(bad, i);
        }
    }
}

} // namespace adaptsim::test

#endif // ADAPTSIM_TESTS_DECODER_FUZZ_HH
