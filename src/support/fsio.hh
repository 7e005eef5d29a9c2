/**
 * @file
 * Crash-safe file writing.
 *
 * A profile or snapshot save that dies mid-write must never leave a
 * half-written artifact under the final name: a later load would see
 * a torn file where yesterday there was a good one. The atomic idiom
 * — write a sibling temp file, flush, then rename over the target —
 * guarantees the final path always holds either the old complete
 * bytes or the new complete bytes, never a mix.
 */

#ifndef FLOWGUARD_SUPPORT_FSIO_HH
#define FLOWGUARD_SUPPORT_FSIO_HH

#include <cstddef>
#include <string>

namespace flowguard {

/**
 * Writes `size` bytes to `path` via temp-file + rename. Returns false
 * (and removes the temp file) on any I/O failure; the target is
 * untouched in that case.
 */
bool writeFileAtomic(const std::string &path, const void *data,
                     size_t size);

} // namespace flowguard

#endif // FLOWGUARD_SUPPORT_FSIO_HH
