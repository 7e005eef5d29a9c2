#include "support/fsio.hh"

#include <cstdio>
#include <fstream>

namespace flowguard {

bool
writeFileAtomic(const std::string &path, const void *data,
                size_t size)
{
    const std::string temp = path + ".tmp";
    {
        std::ofstream out(temp,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            return false;
        }
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
        out.flush();
        if (!out) {
            out.close();
            std::remove(temp.c_str());
            return false;
        }
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return false;
    }
    return true;
}

} // namespace flowguard
