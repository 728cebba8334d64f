#include "cache/cache_array.hh"

namespace consim
{

void
CacheGeometry::check() const
{
    CONSIM_ASSERT(sizeBytes > 0 && sizeBytes % blockBytes == 0,
                  "cache size ", sizeBytes, " not a multiple of ",
                  blockBytes);
    // victim() takes a 64-bit way mask.
    CONSIM_ASSERT(assoc > 0 && assoc <= 64, "bad associativity ", assoc);
    CONSIM_ASSERT(numLines() % assoc == 0,
                  "lines ", numLines(), " not divisible by assoc ",
                  assoc);
    CONSIM_ASSERT(numSets() > 0, "zero sets");
}

} // namespace consim
