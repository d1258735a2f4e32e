#include "common/serial.hh"

#include <bit>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace adaptsim
{

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= prime;
    }
    return h;
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putString(std::string &out, std::string_view s)
{
    const auto len = static_cast<std::uint32_t>(s.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
    out.append(s.data(), s.size());
}

void
putDouble(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

bool
getString(std::string_view in, std::size_t &off, std::string &out)
{
    out.clear();
    if (off + 4 > in.size())
        return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(in[off + i]))
               << (8 * i);
    off += 4;
    if (len > in.size() || off + len > in.size())
        return false;
    out.assign(in.data() + off, len);
    off += len;
    return true;
}

double
getDouble(const char *p)
{
    return std::bit_cast<double>(getU64(p));
}

namespace
{

bool
writeAllAndSync(int fd, std::string_view bytes)
{
    const char *p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return ::fsync(fd) == 0;
}

} // namespace

bool
atomicWriteFile(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const bool ok = writeAllAndSync(fd, bytes);
    ::close(fd);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
appendFileSync(const std::string &path, std::string_view bytes)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return false;
    const bool ok = writeAllAndSync(fd, bytes);
    ::close(fd);
    return ok;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return std::move(os).str();
}

} // namespace adaptsim
