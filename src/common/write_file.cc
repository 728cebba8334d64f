#include "common/write_file.hh"

#include <fstream>

namespace consim
{

bool
writeFile(const std::string &path, std::string_view text)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    return !out.fail();
}

} // namespace consim
