#include "support/cache_faults.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "store/segment.h"

namespace smartconf::fault {

namespace fs = std::filesystem;

std::int64_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec)
        return -1;
    return static_cast<std::int64_t>(size);
}

bool
truncateFile(const std::string &path, std::uint64_t keep_bytes)
{
    std::error_code ec;
    fs::resize_file(path, keep_bytes, ec);
    return !ec;
}

bool
flipBit(const std::string &path, std::uint64_t offset, unsigned bit)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return false;
    bool ok = false;
    if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
        const int c = std::fgetc(f);
        if (c != EOF &&
            std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
            const unsigned char flipped =
                static_cast<unsigned char>(c) ^
                static_cast<unsigned char>(1u << (bit & 7u));
            ok = std::fputc(flipped, f) != EOF;
        }
    }
    ok = (std::fclose(f) == 0) && ok;
    return ok;
}

std::vector<std::string>
listSegmentFiles(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const std::string name = it->path().filename().string();
        if (name.rfind("seg-", 0) == 0 &&
            it->path().extension() == ".seg")
            out.push_back(it->path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
truncateSegmentTail(const std::string &path, std::uint64_t cut_bytes)
{
    const std::int64_t size = fileSize(path);
    if (size <= 0 || cut_bytes == 0 ||
        cut_bytes > static_cast<std::uint64_t>(size))
        return false;
    return truncateFile(path,
                        static_cast<std::uint64_t>(size) - cut_bytes);
}

bool
flipIndexBit(const std::string &path, std::uint64_t byte_in_index,
             unsigned bit)
{
    store::SegmentHeader h;
    // Version filters off: corrupting foreign segments is fine here.
    if (!store::readSegmentHeader(path, h))
        return false;
    if (byte_in_index >= h.index_len)
        return false;
    return flipBit(path, h.index_off + byte_in_index, bit);
}

bool
blockPathWithFile(const std::string &path)
{
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return false;
    fs::remove_all(path, ec); // replace whatever is there
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fputs("not a directory\n", f);
    return std::fclose(f) == 0;
}

} // namespace smartconf::fault
