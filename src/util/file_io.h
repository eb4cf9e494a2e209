/**
 * @file
 * Small file-I/O helpers shared by every durable-state writer
 * (checkpoints, the telemetry/trace exporters).
 *
 * The common discipline is write-tmp-then-rename so a reader (or a
 * crash) never observes a half-written file at the published path.
 * Rename alone is only atomic with respect to *readers*, though: after
 * a power loss the freshly renamed file may still be empty or torn
 * unless the data was fsync'd first and the directory entry after.
 * writeFileAtomic() implements both flavors — `durable = false` is the
 * cheap readers-only guarantee (telemetry exports), `durable = true`
 * adds the fsync-before-rename + parent-directory fsync that
 * checkpoints need to survive a crash.
 */
#ifndef SNIP_UTIL_FILE_IO_H
#define SNIP_UTIL_FILE_IO_H

#include <string>

namespace snip {
namespace fsio {

/** Read the whole file at @p path into @p out (replacing its
 *  contents). False when the file cannot be opened or read. */
bool readFile(const std::string &path, std::string *out);

/** Write @p content verbatim to @p path (truncating). False on any
 *  open/write/close error; a failed write leaves whatever partial
 *  bytes made it to disk (callers wanting atomicity use
 *  writeFileAtomic). */
bool writeFile(const std::string &path, const std::string &content);

/** fsync the file at @p path. False when it cannot be opened or the
 *  sync fails. */
bool syncFile(const std::string &path);

/** fsync the directory containing @p path, making a completed rename
 *  of @p path itself durable. False on open/sync failure. */
bool syncParentDir(const std::string &path);

/**
 * Publish @p content at @p path via tmp + rename. Readers always see
 * the old complete file or the new complete file, never a mix. With
 * @p durable, the tmp file is fsync'd before the rename and the
 * parent directory after it, so the publication also survives a
 * crash/power loss. False on any error (the tmp file is removed).
 */
bool writeFileAtomic(const std::string &path, const std::string &content,
                     bool durable);

} // namespace fsio
} // namespace snip

#endif // SNIP_UTIL_FILE_IO_H
