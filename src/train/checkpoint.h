/**
 * @file
 * Binary checkpoint serialization for Trainer state.
 *
 * Self-describing format (v3, magic "SNIPCKP3"): parameter count and
 * clocks, the optimizer lr, the model's active precision scheme, the
 * quantizer/noise RNG stream states, then the FP32 parameter tensors
 * and optimizer moments, an optional controller section, and a CRC-32
 * footer over everything before it. The scheme + RNG states make
 * resumes bit-exact even under stochastic-rounding schemes; the footer
 * makes torn writes and bit rot detectable instead of silently
 * half-loading. v3 is the only version that loads: a v1 file (no RNG
 * states) or v2 file (no footer) is reported as OutdatedVersion, with
 * a warning, and callers regenerate it.
 *
 * Durability: the image is staged to <path>.tmp, fsync'd, renamed
 * over <path>, and the parent directory fsync'd — so a crash at any
 * point leaves either the old complete checkpoint or the new one.
 * CheckpointWriteOptions::keep additionally rotates the previous
 * checkpoints to <path>.1, <path>.2, ... before publishing (the live
 * file is moved aside only at publish time and rolled back if the
 * final rename fails, so a failed save never leaves <path> empty),
 * and loadCheckpointWithFallback() walks that chain to the newest
 * checkpoint that still validates.
 *
 * Concurrency contract: checkpoint save/load runs on the trainer
 * thread only — the functions below share no mutable state (all
 * buffers are locals), so there is nothing for a mutex annotation
 * (src/util/thread_annotations.h) to guard. Concurrent saves of the
 * SAME path from different processes are serialized by the atomic
 * rename publish, not by in-process locking.
 *
 * When a SnipController is passed, an optional trailing section also
 * persists the controller's update state — its epoch counter, last
 * applied scheme, and any in-flight async update (saving waits for the
 * background solve and records its outcome plus its apply boundary).
 * Loading such a checkpoint re-arms the pending update, so a run
 * checkpointed mid-interval resumes with the identical scheme
 * sequence. Files written without a controller load with or without
 * one, and controller-bearing files load fine when no controller is
 * supplied (the section is skipped).
 */
#ifndef SNIP_TRAIN_CHECKPOINT_H
#define SNIP_TRAIN_CHECKPOINT_H

#include <string>

#include "train/trainer.h"

namespace snip {

/** Why a checkpoint operation succeeded or failed. */
enum class CheckpointStatus
{
    Ok,              ///< loaded/saved completely
    FileMissing,     ///< path absent or unreadable
    BadMagic,        ///< not a SNIP checkpoint
    OutdatedVersion, ///< v1 or v2 file: regenerate it
    Truncated,       ///< file ends mid-section (torn write)
    CrcMismatch,     ///< footer checksum does not cover the payload
    Malformed,       ///< structure disagrees with the trainer (shape /
                     ///< parameter-count / scheme / section mismatch)
    WriteFailed,     ///< staging write failed (e.g. disk full)
    SyncFailed,      ///< fsync of the staged image failed
    RenameFailed,    ///< publish rename failed (tmp file left behind)
    TornWrite,       ///< injected torn write reached the final path
};

/** Human-readable name for logs ("ok", "crc_mismatch", ...). */
const char *checkpointStatusName(CheckpointStatus status);

/** Durability/rotation knobs for saveCheckpoint. */
struct CheckpointWriteOptions
{
    /** Previous checkpoints retained as <path>.1 (newest) through
     *  <path>.keep (oldest); 0 = overwrite in place. */
    int keep = 0;
    /** fsync the staged file before rename and the directory after
     *  (crash durability); disable only for throwaway test files. */
    bool durable = true;
};

/**
 * Serialize the trainer's current state. With @p controller, the
 * scheme/controller section is appended (see file comment); exporting
 * blocks until any in-flight async update has solved. Returns false on
 * failure, with the reason in @p status when non-null; the previously
 * published checkpoint (if any) is never damaged by a failed save.
 */
bool saveCheckpoint(const Trainer &trainer, const std::string &path,
                    SnipController *controller = nullptr,
                    CheckpointStatus *status = nullptr,
                    const CheckpointWriteOptions &options = {});

/**
 * Restore state saved by saveCheckpoint into an identically configured
 * trainer. With @p controller, also restores the controller section
 * when present (and re-applies the persisted precision scheme to the
 * model). The file is parsed and verified completely before any state
 * is touched, so a failed load (false; reason in @p status) never
 * half-restores the trainer.
 */
bool loadCheckpoint(Trainer &trainer, const std::string &path,
                    SnipController *controller = nullptr,
                    CheckpointStatus *status = nullptr);

/**
 * loadCheckpoint, falling back through the rotation chain: try
 * @p path, then <path>.1, <path>.2, ... (up to @p max_fallbacks)
 * until one validates. @p status reports the primary path's failure
 * when even the fallbacks fail, and Ok on any success;
 * @p loaded_path (optional) receives the file that actually loaded.
 */
bool loadCheckpointWithFallback(Trainer &trainer, const std::string &path,
                                SnipController *controller = nullptr,
                                CheckpointStatus *status = nullptr,
                                int max_fallbacks = 8,
                                std::string *loaded_path = nullptr);

} // namespace snip

#endif // SNIP_TRAIN_CHECKPOINT_H
