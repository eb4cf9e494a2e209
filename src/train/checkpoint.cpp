#include "train/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "runtime/fault_injection.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace snip {

namespace {

// v2 added the quantizer/noise RNG stream states (bit-exact resume
// under stochastic rounding) and the optional controller section; v3
// added the CRC-32 footer. Only v3 loads: a v1 or v2 file is reported
// as outdated so callers regenerate it.
constexpr uint64_t kMagic = 0x534E4950434B5033ull;    // "SNIPCKP3"
constexpr uint64_t kMagicV2 = 0x534E4950434B5032ull;  // "SNIPCKP2"
constexpr uint64_t kMagicV1 = 0x534E4950434B5031ull;  // "SNIPCKP1"
constexpr uint64_t kCtlMagic = 0x534E495043544C31ull; // "SNIPCTL1"
constexpr uint64_t kFooterMagic = 0x534E4950434B4631ull; // "SNIPCKF1"
constexpr size_t kFooterBytes = 3 * sizeof(uint64_t);

// Bounds a file whose CRC matches but whose content was crafted can't
// push a resize/loop through before the shape checks reject it.
constexpr uint64_t kMaxSchemeLayers = 1u << 20;
constexpr uint64_t kMaxTensorRank = 8;

// ------------------------------------------------- payload writing

void
putU64(std::string &out, uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putF64(std::string &out, double v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putTensor(std::string &out, const Tensor &t)
{
    putU64(out, static_cast<uint64_t>(t.rank()));
    for (int d = 0; d < t.rank(); ++d)
        putU64(out, static_cast<uint64_t>(t.size(d)));
    out.append(reinterpret_cast<const char *>(t.data()),
               sizeof(float) * static_cast<size_t>(t.numel()));
}

void
putScheme(std::string &out, const PrecisionScheme &scheme)
{
    putU64(out, static_cast<uint64_t>(scheme.layers.size()));
    for (const auto &layer : scheme.layers) {
        for (Precision p : layer.gemm)
            out.push_back(static_cast<char>(p));
    }
}

// ------------------------------------------------- payload reading

/** Bounded memory cursor. `truncated` distinguishes "the file ended
 *  mid-field" from structural mismatches found with bytes to spare. */
struct Reader
{
    const char *p;
    const char *end;
    bool truncated = false;

    size_t left() const { return static_cast<size_t>(end - p); }

    bool
    bytes(void *dst, size_t n)
    {
        if (left() < n) {
            truncated = true;
            return false;
        }
        std::memcpy(dst, p, n);
        p += n;
        return true;
    }

    bool u64(uint64_t &v) { return bytes(&v, sizeof(v)); }
    bool f64(double &v) { return bytes(&v, sizeof(v)); }
};

bool
readTensorInto(Reader &r, Tensor &t)
{
    uint64_t rank;
    if (!r.u64(rank) || rank > kMaxTensorRank)
        return false;
    std::vector<int64_t> shape;
    for (uint64_t d = 0; d < rank; ++d) {
        uint64_t dim;
        if (!r.u64(dim))
            return false;
        shape.push_back(static_cast<int64_t>(dim));
    }
    if (shape != t.shape())
        return false;
    return r.bytes(t.data(),
                   sizeof(float) * static_cast<size_t>(t.numel()));
}

bool
readScheme(Reader &r, PrecisionScheme &scheme)
{
    uint64_t n_layers;
    if (!r.u64(n_layers) || n_layers > kMaxSchemeLayers)
        return false;
    // One byte per GEMM: refuse a count the bytes left can't hold
    // before sizing anything by it.
    if (n_layers > r.left() / kGemmsPerLayer)
        return false;
    scheme.layers.assign(n_layers, LayerScheme{});
    for (auto &layer : scheme.layers) {
        for (auto &p : layer.gemm) {
            char c;
            if (!r.bytes(&c, 1))
                return false;
            const int v = static_cast<unsigned char>(c);
            if (v > static_cast<int>(Precision::FP4))
                return false;
            p = static_cast<Precision>(v);
        }
    }
    return true;
}

/**
 * Parse everything after the version magic into @p snap /
 * @p state, touching no live state. @p snap enters as the shapes
 * template (trainer.snapshot()).
 */
bool
parsePayload(Reader &r, TrainerSnapshot &snap, bool *have_ctl,
             SnipController::PersistState &state)
{
    uint64_t n_params, step, opt_step;
    if (!r.u64(n_params) || !r.u64(step) || !r.u64(opt_step))
        return false;
    if (n_params != snap.param_values.size())
        return false;
    snap.step = static_cast<int64_t>(step);
    snap.opt_step_count = static_cast<int64_t>(opt_step);
    if (!r.f64(snap.lr))
        return false;
    if (!readScheme(r, snap.scheme))
        return false;
    for (auto &s : snap.quant_rng_state) {
        if (!r.u64(s))
            return false;
    }
    for (auto &s : snap.noise_rng_state) {
        if (!r.u64(s))
            return false;
    }
    for (auto &t : snap.param_values) {
        if (!readTensorInto(r, t))
            return false;
    }
    for (auto &s : snap.opt_states) {
        if (!readTensorInto(r, s.m) || !readTensorInto(r, s.v))
            return false;
    }

    // Optional trailing controller section (absent in old files).
    *have_ctl = false;
    if (r.left() > 0) {
        uint64_t ctl_magic, has_selection, pending;
        if (!r.u64(ctl_magic) || ctl_magic != kCtlMagic)
            return false;
        if (!r.u64(state.epoch) || !r.u64(has_selection) ||
            !readScheme(r, state.applied_scheme) ||
            !r.f64(state.applied_fp4_fraction) || !r.u64(pending))
            return false;
        state.has_selection = has_selection != 0;
        state.pending = pending != 0;
        if (state.pending) {
            uint64_t apply_step;
            if (!r.u64(apply_step) ||
                !readScheme(r, state.pending_scheme) ||
                !r.f64(state.pending_fp4_fraction))
                return false;
            state.pending_apply_step = static_cast<int64_t>(apply_step);
        }
        *have_ctl = true;
    }
    return r.left() == 0;
}

/** The complete v3 file image: payload (magic through the optional
 *  controller section) + CRC footer. */
std::string
serializeImage(const Trainer &trainer, SnipController *controller)
{
    std::string image;
    TrainerSnapshot snap = trainer.snapshot();
    putU64(image, kMagic);
    putU64(image, static_cast<uint64_t>(snap.param_values.size()));
    putU64(image, static_cast<uint64_t>(snap.step));
    putU64(image, static_cast<uint64_t>(snap.opt_step_count));
    putF64(image, snap.lr);
    putScheme(image, snap.scheme);
    for (uint64_t s : snap.quant_rng_state)
        putU64(image, s);
    for (uint64_t s : snap.noise_rng_state)
        putU64(image, s);
    for (const auto &t : snap.param_values)
        putTensor(image, t);
    for (const auto &s : snap.opt_states) {
        putTensor(image, s.m);
        putTensor(image, s.v);
    }

    if (controller) {
        // exportState() waits for any in-flight background solve, so
        // the pending update's outcome lands in the file.
        SnipController::PersistState state = controller->exportState();
        putU64(image, kCtlMagic);
        putU64(image, state.epoch);
        putU64(image, state.has_selection ? 1 : 0);
        putScheme(image, state.applied_scheme);
        putF64(image, state.applied_fp4_fraction);
        putU64(image, state.pending ? 1 : 0);
        if (state.pending) {
            putU64(image,
                   static_cast<uint64_t>(state.pending_apply_step));
            putScheme(image, state.pending_scheme);
            putF64(image, state.pending_fp4_fraction);
        }
    }

    const uint64_t payload_size = image.size();
    putU64(image, kFooterMagic);
    putU64(image, payload_size);
    putU64(image, crc32(image.data(), payload_size));
    return image;
}

std::string
rotationName(const std::string &path, int i)
{
    return path + "." + std::to_string(i);
}

/** Shift <path>.1 -> <path>.2 -> ... -> <path>.keep (oldest drops).
 *  The live file at <path> is NOT touched here: saveCheckpoint moves
 *  it aside itself, right before the publish rename, so a failed
 *  publish can roll it back and never leave <path> empty. */
void
rotateBackups(const std::string &path, int keep)
{
    for (int i = keep; i >= 2; --i)
        (void)std::rename(rotationName(path, i - 1).c_str(),
                          rotationName(path, i).c_str());
}

bool
failWith(CheckpointStatus *status, CheckpointStatus s)
{
    if (status)
        *status = s;
    return false;
}

} // namespace

const char *
checkpointStatusName(CheckpointStatus status)
{
    switch (status) {
        case CheckpointStatus::Ok:
            return "ok";
        case CheckpointStatus::FileMissing:
            return "file_missing";
        case CheckpointStatus::BadMagic:
            return "bad_magic";
        case CheckpointStatus::OutdatedVersion:
            return "outdated_version";
        case CheckpointStatus::Truncated:
            return "truncated";
        case CheckpointStatus::CrcMismatch:
            return "crc_mismatch";
        case CheckpointStatus::Malformed:
            return "malformed";
        case CheckpointStatus::WriteFailed:
            return "write_failed";
        case CheckpointStatus::SyncFailed:
            return "sync_failed";
        case CheckpointStatus::RenameFailed:
            return "rename_failed";
        case CheckpointStatus::TornWrite:
            return "torn_write";
    }
    return "unknown";
}

bool
saveCheckpoint(const Trainer &trainer, const std::string &path,
               SnipController *controller, CheckpointStatus *status,
               const CheckpointWriteOptions &options)
{
    const std::string image = serializeImage(trainer, controller);
    const std::string tmp = path + ".tmp";

    if (SNIP_FAULT_POINT("ckpt.write")) {
        // Simulated ENOSPC mid-write: half the image lands in the
        // staging file, the caller sees the error, nothing published.
        (void)fsio::writeFile(tmp, image.substr(0, image.size() / 2));
        std::remove(tmp.c_str());
        return failWith(status, CheckpointStatus::WriteFailed);
    }
    if (!fsio::writeFile(tmp, image)) {
        std::remove(tmp.c_str());
        return failWith(status, CheckpointStatus::WriteFailed);
    }
    if (options.durable &&
        (SNIP_FAULT_POINT("ckpt.fsync") || !fsio::syncFile(tmp))) {
        std::remove(tmp.c_str());
        return failWith(status, CheckpointStatus::SyncFailed);
    }
    if (SNIP_FAULT_POINT("ckpt.rename")) {
        // Simulated crash before the publish rename: the staged image
        // survives at <tmp>, the published path is untouched.
        return failWith(status, CheckpointStatus::RenameFailed);
    }
    // Publish: shift the numbered backups, move the live file to
    // <path>.1, then rename the staged image into place. The live file
    // moves last and is rolled back if the final rename fails, so a
    // failed save always leaves a loadable checkpoint at <path>.
    rotateBackups(path, options.keep);
    bool live_rotated = false;
    if (options.keep > 0)
        live_rotated = std::rename(path.c_str(),
                                   rotationName(path, 1).c_str()) == 0;
    if (SNIP_FAULT_POINT("ckpt.torn")) {
        // Simulated torn publish (non-atomic filesystem / power cut
        // mid-writeback): a truncated image lands at the final path.
        // Rotation already ran, so <path>.1 holds the last good file.
        (void)fsio::writeFile(path, image.substr(0, image.size() / 2));
        std::remove(tmp.c_str());
        return failWith(status, CheckpointStatus::TornWrite);
    }
    if (SNIP_FAULT_POINT("ckpt.publish") ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (live_rotated)
            (void)std::rename(rotationName(path, 1).c_str(),
                              path.c_str());
        return failWith(status, CheckpointStatus::RenameFailed);
    }
    if (options.durable)
        (void)fsio::syncParentDir(path);
    if (status)
        *status = CheckpointStatus::Ok;
    return true;
}

bool
loadCheckpoint(Trainer &trainer, const std::string &path,
               SnipController *controller, CheckpointStatus *status)
{
    std::string file;
    if (!fsio::readFile(path, &file))
        return failWith(status, CheckpointStatus::FileMissing);
    if (file.size() < sizeof(uint64_t))
        return failWith(status, CheckpointStatus::Truncated);

    uint64_t magic;
    std::memcpy(&magic, file.data(), sizeof(magic));
    if (magic == kMagicV1 || magic == kMagicV2) {
        // Outdated format (v1: no RNG stream states, v2: no integrity
        // footer): report unreadable so callers (e.g. the bench
        // checkpoint cache) regenerate it.
        warn("outdated checkpoint format, ignoring: ", path);
        return failWith(status, CheckpointStatus::OutdatedVersion);
    }
    if (magic != kMagic) {
        warn("not a SNIP checkpoint: ", path);
        return failWith(status, CheckpointStatus::BadMagic);
    }
    // Verify the footer before looking at anything else. A missing or
    // garbled footer means the tail was torn off; a CRC mismatch means
    // the bytes changed under us.
    if (file.size() < sizeof(uint64_t) + kFooterBytes)
        return failWith(status, CheckpointStatus::Truncated);
    uint64_t fmagic, fsize, fcrc;
    const char *footer = file.data() + file.size() - kFooterBytes;
    std::memcpy(&fmagic, footer, sizeof(fmagic));
    std::memcpy(&fsize, footer + 8, sizeof(fsize));
    std::memcpy(&fcrc, footer + 16, sizeof(fcrc));
    if (fmagic != kFooterMagic || fsize != file.size() - kFooterBytes) {
        warn("checkpoint ", path, " has a torn/missing footer");
        return failWith(status, CheckpointStatus::Truncated);
    }
    const size_t payload_size = static_cast<size_t>(fsize);
    if (crc32(file.data(), payload_size) != fcrc) {
        warn("checkpoint ", path, " failed its CRC check");
        return failWith(status, CheckpointStatus::CrcMismatch);
    }

    // Parse the whole payload into locals BEFORE touching the trainer,
    // so any failure below leaves it exactly as it was.
    Reader r{file.data() + sizeof(uint64_t),
             file.data() + payload_size};
    TrainerSnapshot snap = trainer.snapshot(); // shapes template
    bool have_ctl = false;
    SnipController::PersistState state;
    if (!parsePayload(r, snap, &have_ctl, state)) {
        const CheckpointStatus s = r.truncated
                                       ? CheckpointStatus::Truncated
                                       : CheckpointStatus::Malformed;
        warn("checkpoint ", path, " unreadable: ",
             checkpointStatusName(s));
        return failWith(status, s);
    }

    trainer.restore(snap);
    if (controller && have_ctl)
        controller->importState(state);
    if (status)
        *status = CheckpointStatus::Ok;
    return true;
}

bool
loadCheckpointWithFallback(Trainer &trainer, const std::string &path,
                           SnipController *controller,
                           CheckpointStatus *status, int max_fallbacks,
                           std::string *loaded_path)
{
    CheckpointStatus primary = CheckpointStatus::FileMissing;
    for (int i = 0; i <= max_fallbacks; ++i) {
        const std::string p = i == 0 ? path : rotationName(path, i);
        CheckpointStatus s = CheckpointStatus::Ok;
        if (loadCheckpoint(trainer, p, controller, &s)) {
            if (i > 0)
                inform("recovered from fallback checkpoint ", p);
            if (status)
                *status = CheckpointStatus::Ok;
            if (loaded_path)
                *loaded_path = p;
            return true;
        }
        if (i == 0)
            primary = s;
        else if (s == CheckpointStatus::FileMissing)
            break; // end of the rotation chain
        if (s != CheckpointStatus::FileMissing)
            warn("checkpoint ", p, " unreadable (",
                 checkpointStatusName(s), "); trying fallback");
    }
    if (status)
        *status = primary;
    return false;
}

} // namespace snip
