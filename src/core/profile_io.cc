#include "core/profile_io.hh"

#include <istream>
#include <iterator>
#include <ostream>

#include "support/byte_codec.hh"
#include "support/logging.hh"

namespace flowguard {

namespace {

constexpr uint32_t profile_magic = 0x46475046;   // "FGPF"
constexpr uint32_t profile_version = 3;

/** Edge-endpoint sentinel: the address is absolute, not
 *  module-relative (an endpoint outside every module's code range). */
constexpr uint64_t module_absolute = ~0ULL;

/** One edge's training annotations, as serialized. */
struct EdgeRecord
{
    uint64_t fromModule = module_absolute;
    uint64_t fromOff = 0;
    uint64_t toModule = module_absolute;
    uint64_t toOff = 0;
    bool credit = false;
    bool varied = false;
    std::vector<analysis::TntSequence> seqs;
};

void
writeString(ByteWriter &w, const std::string &s)
{
    w.u64(s.size());
    w.bytes(s.data(), s.size());
}

std::string
readString(ByteReader &r)
{
    const uint64_t len = r.u64();
    if (r.truncated || len > (1ULL << 20)) {
        r.truncated = true;
        return {};
    }
    const uint8_t *chars = r.bytes(len);
    return chars ? std::string(reinterpret_cast<const char *>(chars), len)
                 : std::string();
}

void
writeEdgeRecord(ByteWriter &w, const EdgeRecord &record)
{
    w.u64(record.fromModule);
    w.u64(record.fromOff);
    w.u64(record.toModule);
    w.u64(record.toOff);
    w.u64(record.credit ? 1 : 0);
    w.u64(record.varied ? 1 : 0);
    w.u64(record.seqs.size());
    for (const auto &seq : record.seqs) {
        w.u64(seq.size());
        w.bytes(seq.data(), seq.size());
    }
}

bool
readEdgeRecord(ByteReader &r, EdgeRecord &record)
{
    record.fromModule = r.u64();
    record.fromOff = r.u64();
    record.toModule = r.u64();
    record.toOff = r.u64();
    record.credit = r.u64() != 0;
    record.varied = r.u64() != 0;
    const uint64_t num_seqs = r.u64();
    if (r.truncated || num_seqs > (1ULL << 20))
        return false;
    record.seqs.clear();
    for (uint64_t s = 0; s < num_seqs; ++s) {
        const uint64_t len = r.u64();
        if (r.truncated || len > (1ULL << 20))
            return false;
        const uint8_t *bits = r.bytes(len);
        if (!bits)
            return false;
        record.seqs.emplace_back(bits, bits + len);
    }
    return !r.truncated;
}

/** Index of the module whose code range holds `addr`, or
 *  module_absolute. */
uint64_t
moduleContaining(const std::vector<isa::LoadedModule> &mods,
                 uint64_t addr)
{
    for (size_t m = 0; m < mods.size(); ++m) {
        if (addr >= mods[m].codeBase && addr < mods[m].codeEnd)
            return m;
    }
    return module_absolute;
}

void
writePathSection(const FlowGuard &guard, ByteWriter &w)
{
    const analysis::PathIndex *paths = guard.paths();
    if (!paths) {
        w.u64(0);
        w.u64(0);
        return;
    }
    const std::vector<uint64_t> hashes = paths->trainedHashes();
    w.u64(analysis::PathIndex::kLength);
    w.u64(hashes.size());
    for (const uint64_t hash : hashes)
        w.u64(hash);
}

void
readPathSection(FlowGuard &guard, ByteReader &r)
{
    const uint64_t path_length = r.u64();
    const uint64_t path_count = r.u64();
    if (r.truncated)
        return;
    analysis::PathIndex *paths = guard.mutablePaths();
    for (uint64_t i = 0; i < path_count; ++i) {
        const uint64_t hash = r.u64();
        if (r.truncated)
            return;
        if (paths && path_length == analysis::PathIndex::kLength)
            paths->insertHash(hash);
    }
}

ProfileLoadResult
failWith(ProfileLoadResult result, ProfileLoadResult::Status status,
         std::string message)
{
    result.status = status;
    result.message = std::move(message);
    return result;
}

ProfileLoadResult
loadSections(FlowGuard &guard, ByteReader &r, ProfileLoadResult result)
{
    analysis::ItcCfg &itc = guard.itc();
    const auto &mods = guard.program().modules();

    const uint64_t num_profile_mods = r.u64();
    if (r.truncated || num_profile_mods > (1ULL << 16))
        return failWith(std::move(result),
                        ProfileLoadResult::Status::Truncated,
                        "truncated module table");

    // Map profile module index -> current module (matched by name,
    // accepted only when the relocation-invariant fingerprints
    // agree — a changed library silently invalidates only its own
    // section).
    std::vector<uint64_t> current_index(num_profile_mods,
                                        module_absolute);
    for (uint64_t m = 0; m < num_profile_mods; ++m) {
        const std::string name = readString(r);
        const uint64_t fingerprint = r.u64();
        if (r.truncated)
            return failWith(std::move(result),
                            ProfileLoadResult::Status::Truncated,
                            "truncated module table");
        for (size_t c = 0; c < mods.size(); ++c) {
            if (mods[c].name == name &&
                mods[c].fingerprint == fingerprint) {
                current_index[m] = c;
                break;
            }
        }
    }

    // The executable's own section is non-negotiable: libraries may
    // individually mismatch (their sections are skipped), but a
    // profile whose executable fingerprint differs belongs to a
    // different program.
    for (size_t c = 0; c < mods.size(); ++c) {
        if (mods[c].kind != isa::ModuleKind::Executable)
            continue;
        bool exec_matched = false;
        for (uint64_t m = 0; m < num_profile_mods; ++m)
            exec_matched |= current_index[m] == c;
        if (!exec_matched)
            return failWith(std::move(result),
                            ProfileLoadResult::Status::ModuleMismatch,
                            "executable module '" + mods[c].name +
                                "' does not match the profile");
    }

    // Resolves a (module, offset) endpoint in the current layout.
    const auto resolve = [&](uint64_t module, uint64_t off,
                             uint64_t &addr) {
        if (module == module_absolute) {
            addr = off;
            return true;
        }
        if (module >= current_index.size() ||
            current_index[module] == module_absolute)
            return false;
        addr = mods[current_index[module]].codeBase + off;
        return true;
    };

    const auto applyRecord = [&](const EdgeRecord &record) {
        uint64_t from = 0;
        uint64_t to = 0;
        if (!resolve(record.fromModule, record.fromOff, from) ||
            !resolve(record.toModule, record.toOff, to)) {
            ++result.edgesMissed;
            return;
        }
        const int64_t edge = itc.findEdge(from, to);
        if (edge < 0) {
            ++result.edgesMissed;
            return;
        }
        if (record.credit)
            itc.setHighCredit(edge);
        for (const auto &seq : record.seqs)
            itc.addTntSequence(edge, seq);
        if (record.varied)
            itc.markTntVaried(edge);
        ++result.edgesApplied;
    };

    // Per-module sections (same order as the table), then orphans.
    for (uint64_t m = 0; m <= num_profile_mods; ++m) {
        const bool orphan_section = m == num_profile_mods;
        const uint64_t count = r.u64();
        if (r.truncated || count > (1ULL << 24))
            return failWith(std::move(result),
                            ProfileLoadResult::Status::Truncated,
                            "truncated edge section");
        const bool matched = orphan_section ||
            current_index[m] != module_absolute;
        if (!orphan_section) {
            if (matched)
                ++result.modulesLoaded;
            else
                ++result.modulesSkipped;
        }
        for (uint64_t i = 0; i < count; ++i) {
            EdgeRecord record;
            if (!readEdgeRecord(r, record))
                return failWith(std::move(result),
                                ProfileLoadResult::Status::Truncated,
                                "truncated edge record");
            // A skipped module's records must still be parsed to
            // keep the stream in sync; they are just not applied.
            if (matched)
                applyRecord(record);
        }
    }

    readPathSection(guard, r);
    if (r.truncated)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::Truncated,
                        "truncated path section");

    if (num_profile_mods > 0 && result.modulesLoaded == 0)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::ModuleMismatch,
                        "no profile module matched this program");
    return result;
}

} // namespace

const char *
profileStatusName(ProfileLoadResult::Status status)
{
    using Status = ProfileLoadResult::Status;
    switch (status) {
      case Status::Ok: return "ok";
      case Status::IoError: return "io-error";
      case Status::BadMagic: return "bad-magic";
      case Status::BadVersion: return "bad-version";
      case Status::Truncated: return "truncated";
      case Status::ModuleMismatch: return "module-mismatch";
      case Status::BadChecksum: return "bad-checksum";
    }
    return "?";
}

void
saveProfile(const FlowGuard &guard, std::ostream &out)
{
    fg_assert(guard.analyzed(), "analyze() before saving a profile");
    const analysis::ItcCfg &itc = guard.itc();
    const isa::Program &program = guard.program();
    const auto &mods = program.modules();

    // Group edge ids by the module owning the edge's source node.
    // CSR order: edge ids increase monotonically across nodes.
    std::vector<std::vector<EdgeRecord>> sections(mods.size());
    std::vector<EdgeRecord> orphans;
    size_t edge_id = 0;
    for (size_t node = 0; node < itc.numNodes(); ++node) {
        const uint64_t from = itc.nodeAddr(node);
        const uint64_t from_mod = moduleContaining(mods, from);
        for (const uint64_t *t = itc.targetsBegin(node);
             t != itc.targetsEnd(node); ++t, ++edge_id) {
            const int64_t edge = static_cast<int64_t>(edge_id);
            // Trained state only: the runtime overlay belongs to the
            // deployment that learned it.
            EdgeRecord record;
            record.credit = itc.trainedCredit(edge);
            record.varied = itc.trainedTntVaried(edge);
            const auto seqs = itc.trainedTntSequences(edge);
            // Untrained edges carry no information; the loader
            // re-derives the graph from the binary anyway.
            if (!record.credit && !record.varied && seqs.empty())
                continue;
            record.seqs.assign(seqs.begin(), seqs.end());
            record.fromModule = from_mod;
            record.fromOff = from_mod == module_absolute
                ? from
                : from - mods[from_mod].codeBase;
            const uint64_t to_mod = moduleContaining(mods, *t);
            record.toModule = to_mod;
            record.toOff = to_mod == module_absolute
                ? *t
                : *t - mods[to_mod].codeBase;
            if (from_mod == module_absolute)
                orphans.push_back(std::move(record));
            else
                sections[from_mod].push_back(std::move(record));
        }
    }

    std::vector<uint8_t> bytes;
    {
        ByteWriter w(bytes);
        w.u64(profile_magic);
        w.u64(profile_version);
        w.u64(mods.size());
        // Module table first, so cross-module edge references resolve
        // no matter which section they appear in.
        for (const auto &mod : mods) {
            writeString(w, mod.name);
            w.u64(mod.fingerprint);
        }
        for (const auto &section : sections) {
            w.u64(section.size());
            for (const auto &record : section)
                writeEdgeRecord(w, record);
        }
        w.u64(orphans.size());
        for (const auto &record : orphans)
            writeEdgeRecord(w, record);
        writePathSection(guard, w);
    }
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

ProfileLoadResult
tryLoadProfile(FlowGuard &guard, std::istream &in)
{
    ProfileLoadResult result;
    if (!in)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::IoError,
                        "unreadable profile stream");
    guard.analyze();

    const std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                     {});
    ByteReader r{bytes.data(), bytes.size()};
    if (r.u64() != profile_magic || r.truncated)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::BadMagic,
                        "not a FlowGuard profile");
    const uint64_t version = r.u64();
    result.version = static_cast<uint32_t>(version);
    if (version != profile_version)
        return failWith(std::move(result),
                        ProfileLoadResult::Status::BadVersion,
                        "unsupported FlowGuard profile version " +
                            std::to_string(version));
    return loadSections(guard, r, std::move(result));
}

void
loadProfile(FlowGuard &guard, std::istream &in)
{
    const ProfileLoadResult result = tryLoadProfile(guard, in);
    if (!result.ok())
        fg_fatal("profile load failed (",
                 profileStatusName(result.status), "): ",
                 result.message);
}

} // namespace flowguard
