/**
 * @file
 * Whole-file output for the simulator's documents (bench.v1 and
 * run.v1 JSON, snapshots). A stream that opened can still lose its
 * text: a short document sits in the stream buffer until the file is
 * closed, and only then does a full disk or a bad device report the
 * failed write. So the one writer closes the file before it answers.
 */

#ifndef CONSIM_COMMON_WRITE_FILE_HH
#define CONSIM_COMMON_WRITE_FILE_HH

#include <string>
#include <string_view>

namespace consim
{

/** Write @p text to @p path (replacing it) and close the file; true
 *  only when the file opened and every byte of @p text arrived. */
bool writeFile(const std::string &path, std::string_view text);

} // namespace consim

#endif // CONSIM_COMMON_WRITE_FILE_HH
