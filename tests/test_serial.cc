/**
 * @file
 * Tests of the byte-exact serialization and crash-safe file helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>

#include "common/serial.hh"

using namespace adaptsim;

namespace
{

class SerialFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "/tmp/adaptsim_serial_test";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
};

} // namespace

TEST(Fnv1a64, MatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, SeedChains)
{
    const std::uint64_t whole = fnv1a64("foobar", 6);
    const std::uint64_t part = fnv1a64("foo", 3);
    EXPECT_EQ(fnv1a64("bar", 3, part), whole);
}

TEST(Serial, U64RoundTrip)
{
    const std::uint64_t cases[] = {
        0, 1, 0xff, 0x0102030405060708ULL,
        std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t v : cases) {
        std::string buf;
        putU64(buf, v);
        ASSERT_EQ(buf.size(), 8u);
        EXPECT_EQ(getU64(buf.data()), v);
    }
}

TEST(Serial, U64IsLittleEndian)
{
    std::string buf;
    putU64(buf, 0x0102030405060708ULL);
    EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x08);
    EXPECT_EQ(static_cast<unsigned char>(buf[7]), 0x01);
}

TEST(Serial, StringLengthPrefixIsLittleEndian)
{
    std::string buf;
    putString(buf, std::string(0x0102, 'x'));
    EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x02);
    EXPECT_EQ(static_cast<unsigned char>(buf[1]), 0x01);
    EXPECT_EQ(static_cast<unsigned char>(buf[2]), 0x00);
    EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x00);
}

TEST(Serial, StringRoundTrip)
{
    for (const std::string &s :
         {std::string(""), std::string("gzip"),
          std::string("with\0byte", 9), std::string(300, 'x')}) {
        std::string buf;
        putString(buf, s);
        ASSERT_EQ(buf.size(), 4 + s.size());
        std::size_t off = 0;
        std::string back;
        ASSERT_TRUE(getString(buf, off, back));
        EXPECT_EQ(back, s);
        EXPECT_EQ(off, buf.size());
    }
}

TEST(Serial, GetStringRejectsTruncation)
{
    std::string buf;
    putString(buf, "evaluation");
    std::string out;
    // Every truncation fails cleanly: a cut length prefix or a
    // length that runs past the remaining bytes.
    for (std::size_t n = 0; n < buf.size(); ++n) {
        std::size_t off = 0;
        EXPECT_FALSE(
            getString(std::string_view(buf.data(), n), off, out))
            << n;
    }
    // A hostile length prefix must not be trusted either.
    std::string evil(4, '\xff');
    evil += "short";
    std::size_t off = 0;
    EXPECT_FALSE(getString(evil, off, out));
}

TEST(Serial, DoubleRoundTripIsBitExact)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        6.911025e-06,
        1.8933624929e+26,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (double v : cases) {
        std::string buf;
        putDouble(buf, v);
        const double back = getDouble(buf.data());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(v));
    }
}

TEST_F(SerialFileTest, AtomicWriteCreatesFileWithoutTmpResidue)
{
    const std::string path = dir_ + "/a.bin";
    ASSERT_TRUE(atomicWriteFile(path, "hello"));
    EXPECT_EQ(readFile(path), "hello");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(SerialFileTest, AtomicWriteReplacesWhole)
{
    const std::string path = dir_ + "/a.bin";
    ASSERT_TRUE(atomicWriteFile(path, "a longer first version"));
    ASSERT_TRUE(atomicWriteFile(path, "v2"));
    EXPECT_EQ(readFile(path), "v2");
}

TEST_F(SerialFileTest, AppendExtends)
{
    const std::string path = dir_ + "/a.log";
    ASSERT_TRUE(appendFileSync(path, "one"));
    ASSERT_TRUE(appendFileSync(path, "two"));
    EXPECT_EQ(readFile(path), "onetwo");
}

TEST_F(SerialFileTest, ReadMissingFileIsEmpty)
{
    EXPECT_EQ(readFile(dir_ + "/nope"), "");
}

TEST_F(SerialFileTest, WriteToMissingDirectoryFails)
{
    EXPECT_FALSE(atomicWriteFile(dir_ + "/no/such/dir/f", "x"));
    EXPECT_FALSE(appendFileSync(dir_ + "/no/such/dir/f", "x"));
}
