/**
 * @file checkpoint.cpp
 * Checkpoint capture, encode/decode and validated file reading.
 */
#include "io/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <type_traits>

#include "io/crc32.hpp"
#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

constexpr char kMagic[8] = {'V', 'I', 'B', 'E', 'C', 'K', 'P', 'T'};
constexpr std::size_t kPreambleSize =
    sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t) +
    sizeof(std::uint32_t);

/** Appends POD values to a growing byte buffer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

    template <typename T>
    void put(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t at = out_.size();
        out_.resize(at + sizeof(T));
        std::memcpy(out_.data() + at, &value, sizeof(T));
    }

    void putBytes(const void* data, std::size_t size)
    {
        const std::size_t at = out_.size();
        out_.resize(at + size);
        std::memcpy(out_.data() + at, data, size);
    }

  private:
    std::vector<std::uint8_t>& out_;
};

/** Reads POD values from a byte range, fataling on truncation. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t* data, std::size_t size,
               const std::string& origin)
        : data_(data), size_(size), origin_(origin)
    {
    }

    template <typename T>
    T get(const char* what)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        need(sizeof(T), what);
        T value;
        std::memcpy(&value, data_ + at_, sizeof(T));
        at_ += sizeof(T);
        return value;
    }

    void getBytes(void* dst, std::size_t size, const char* what)
    {
        need(size, what);
        std::memcpy(dst, data_ + at_, size);
        at_ += size;
    }

    std::size_t remaining() const { return size_ - at_; }

  private:
    void need(std::size_t size, const char* what)
    {
        if (at_ + size > size_)
            fatal("checkpoint '", origin_, "' is truncated: reading ",
                  what, " needs ", size, " bytes at offset ", at_,
                  " but only ", size_ - at_, " of ", size_,
                  " payload bytes remain");
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t at_ = 0;
    std::string origin_;
};

std::string
hexU32(std::uint32_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** Printable rendering of (possibly binary) magic bytes. */
std::string
renderMagic(const char* bytes, std::size_t size)
{
    std::string out;
    for (std::size_t i = 0; i < size; ++i) {
        const unsigned char c = static_cast<unsigned char>(bytes[i]);
        if (c >= 0x20 && c < 0x7f) {
            out.push_back(static_cast<char>(c));
        } else {
            static const char* digits = "0123456789abcdef";
            out += "\\x";
            out.push_back(digits[c >> 4]);
            out.push_back(digits[c & 0xf]);
        }
    }
    return out;
}

} // namespace

CheckpointImage
captureCheckpoint(const Mesh& mesh, RankWorld& world,
                  const std::string& package_name, std::int64_t cycle,
                  double time)
{
    const MeshConfig& config = mesh.config();
    const VariableRegistry& registry = mesh.registry();

    CheckpointImage image;
    image.ndim = config.ndim;
    image.nx1 = config.nx1;
    image.nx2 = config.nx2;
    image.nx3 = config.nx3;
    image.blockNx1 = config.blockNx1;
    image.blockNx2 = config.blockNx2;
    image.blockNx3 = config.blockNx3;
    image.numGhost = config.numGhost;
    image.amrLevels = config.amrLevels;
    image.ncompConserved = registry.ncompConserved();
    image.ncompDerived = registry.ncompDerived();
    image.package = package_name;
    image.cycle = cycle;
    image.time = time;

    // Tree structure and block metadata are replicated on every rank;
    // walking all blocks here reads no Shadow storage.
    image.blocks.resize(mesh.numBlocks());
    for (std::size_t gid = 0; gid < mesh.numBlocks(); ++gid) {
        const MeshBlock& block = mesh.block(static_cast<int>(gid));
        image.blocks[gid].loc = block.loc();
        image.blocks[gid].createdCycle = block.createdCycle();
    }

    // State lives only on the owning rank. Each rank frames its owned
    // blocks as [gid, count, cost, state...] in gid order and the
    // frames are all-gathered; rank-order concatenation keeps every
    // frame intact, so scattering them back by gid rebuilds the
    // identical image on every participant regardless of the
    // decomposition. The cost estimate travels here (not in the
    // replicated metadata walk above) because only the owner's copy is
    // guaranteed current — replicas sync at cost gathers, not every
    // cycle. On a classic (modeled) world the gather returns the local
    // frames unchanged and ownedBlocks() is every block — same result,
    // no rendezvous.
    std::vector<double> local;
    for (const MeshBlock* block : mesh.ownedBlocks()) {
        if (!block->hasData())
            panic("checkpoint capture: owned block ", block->loc().str(),
                  " has no materialized storage");
        const std::vector<double> state = block->serializeState();
        local.push_back(static_cast<double>(block->gid()));
        local.push_back(static_cast<double>(state.size()));
        local.push_back(block->cost());
        local.insert(local.end(), state.begin(), state.end());
    }
    const double bytes = static_cast<double>(local.size()) *
                         static_cast<double>(sizeof(double));
    const std::vector<double> gathered = world.allGatherVec<double>(
        mesh.collectiveRank(), std::move(local), bytes,
        CollAccount::Gather);

    std::size_t at = 0;
    std::size_t filled = 0;
    while (at < gathered.size()) {
        require(at + 3 <= gathered.size(),
                "checkpoint capture: malformed gathered shard frame");
        const auto gid = static_cast<std::size_t>(gathered[at]);
        const auto count = static_cast<std::size_t>(gathered[at + 1]);
        const double cost = gathered[at + 2];
        at += 3;
        require(gid < image.blocks.size(),
                "checkpoint capture: gathered gid ", gid,
                " out of range (", image.blocks.size(), " blocks)");
        require(at + count <= gathered.size(),
                "checkpoint capture: gathered frame for gid ", gid,
                " overruns the buffer");
        require(image.blocks[gid].state.empty(),
                "checkpoint capture: duplicate state for gid ", gid);
        image.blocks[gid].cost = cost;
        image.blocks[gid].state.assign(gathered.begin() + at,
                                       gathered.begin() + at + count);
        at += count;
        ++filled;
    }
    require(filled == image.blocks.size(),
            "checkpoint capture: gathered state for ", filled, " of ",
            image.blocks.size(), " blocks");
    return image;
}

std::vector<std::uint8_t>
encodeCheckpoint(const CheckpointImage& image)
{
    std::vector<std::uint8_t> payload;
    {
        ByteWriter w(payload);
        w.put<std::int32_t>(image.ndim);
        w.put<std::int32_t>(image.nx1);
        w.put<std::int32_t>(image.nx2);
        w.put<std::int32_t>(image.nx3);
        w.put<std::int32_t>(image.blockNx1);
        w.put<std::int32_t>(image.blockNx2);
        w.put<std::int32_t>(image.blockNx3);
        w.put<std::int32_t>(image.numGhost);
        w.put<std::int32_t>(image.amrLevels);
        w.put<std::int32_t>(image.ncompConserved);
        w.put<std::int32_t>(image.ncompDerived);
        w.put<std::uint32_t>(
            static_cast<std::uint32_t>(image.package.size()));
        w.putBytes(image.package.data(), image.package.size());
        w.put<std::int64_t>(image.cycle);
        w.put<double>(image.time);
        w.put<std::uint64_t>(
            static_cast<std::uint64_t>(image.blocks.size()));
        for (const CheckpointBlockRecord& record : image.blocks) {
            w.put<std::int32_t>(record.loc.level);
            w.put<std::int64_t>(record.loc.lx1);
            w.put<std::int64_t>(record.loc.lx2);
            w.put<std::int64_t>(record.loc.lx3);
            w.put<std::int64_t>(record.createdCycle);
            w.put<double>(record.cost);
            w.put<std::uint64_t>(
                static_cast<std::uint64_t>(record.state.size()));
            w.putBytes(record.state.data(),
                       record.state.size() * sizeof(double));
        }
    }

    std::vector<std::uint8_t> out;
    out.reserve(kPreambleSize + payload.size());
    ByteWriter w(out);
    w.putBytes(kMagic, sizeof(kMagic));
    w.put<std::uint32_t>(kCheckpointVersion);
    w.put<std::uint64_t>(static_cast<std::uint64_t>(payload.size()));
    w.put<std::uint32_t>(io::crc32(payload.data(), payload.size()));
    w.putBytes(payload.data(), payload.size());
    return out;
}

CheckpointImage
decodeCheckpoint(const std::vector<std::uint8_t>& bytes,
                 const std::string& origin)
{
    if (bytes.size() < kPreambleSize)
        fatal("checkpoint '", origin, "' is truncated: ", bytes.size(),
              " bytes, but the preamble alone (magic + version + size "
              "+ crc) needs ",
              kPreambleSize);

    char magic[sizeof(kMagic)];
    std::memcpy(magic, bytes.data(), sizeof(kMagic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatal("checkpoint '", origin, "' has bad magic: expected \"",
              renderMagic(kMagic, sizeof(kMagic)), "\", found \"",
              renderMagic(magic, sizeof(kMagic)),
              "\" — not a VIBE checkpoint file");

    std::uint32_t version;
    std::uint64_t payload_size;
    std::uint32_t stored_crc;
    std::size_t at = sizeof(kMagic);
    std::memcpy(&version, bytes.data() + at, sizeof(version));
    at += sizeof(version);
    std::memcpy(&payload_size, bytes.data() + at, sizeof(payload_size));
    at += sizeof(payload_size);
    std::memcpy(&stored_crc, bytes.data() + at, sizeof(stored_crc));
    at += sizeof(stored_crc);

    if (version != kCheckpointVersion)
        fatal("checkpoint '", origin,
              "' has unsupported version: expected ", kCheckpointVersion,
              ", found ", version,
              " — rewrite the checkpoint with this build");

    if (bytes.size() - at != payload_size)
        fatal("checkpoint '", origin,
              "' is truncated: header declares a ", payload_size,
              "-byte payload but ", bytes.size() - at,
              " bytes follow the preamble");

    const std::uint32_t actual_crc =
        io::crc32(bytes.data() + at, payload_size);
    if (actual_crc != stored_crc)
        fatal("checkpoint '", origin,
              "' is corrupt: payload crc32 mismatch, expected ",
              hexU32(stored_crc), ", found ", hexU32(actual_crc));

    ByteReader r(bytes.data() + at, payload_size, origin);
    CheckpointImage image;
    image.ndim = r.get<std::int32_t>("ndim");
    image.nx1 = r.get<std::int32_t>("nx1");
    image.nx2 = r.get<std::int32_t>("nx2");
    image.nx3 = r.get<std::int32_t>("nx3");
    image.blockNx1 = r.get<std::int32_t>("blockNx1");
    image.blockNx2 = r.get<std::int32_t>("blockNx2");
    image.blockNx3 = r.get<std::int32_t>("blockNx3");
    image.numGhost = r.get<std::int32_t>("numGhost");
    image.amrLevels = r.get<std::int32_t>("amrLevels");
    image.ncompConserved = r.get<std::int32_t>("ncompConserved");
    image.ncompDerived = r.get<std::int32_t>("ncompDerived");
    const auto package_len = r.get<std::uint32_t>("package name length");
    image.package.resize(package_len);
    r.getBytes(image.package.data(), package_len, "package name");
    image.cycle = r.get<std::int64_t>("cycle");
    image.time = r.get<double>("time");
    const auto nblocks = r.get<std::uint64_t>("block count");
    image.blocks.resize(nblocks);
    for (std::uint64_t gid = 0; gid < nblocks; ++gid) {
        CheckpointBlockRecord& record = image.blocks[gid];
        record.loc.level = r.get<std::int32_t>("block level");
        record.loc.lx1 = r.get<std::int64_t>("block lx1");
        record.loc.lx2 = r.get<std::int64_t>("block lx2");
        record.loc.lx3 = r.get<std::int64_t>("block lx3");
        record.createdCycle = r.get<std::int64_t>("block createdCycle");
        record.cost = r.get<double>("block cost");
        const auto count = r.get<std::uint64_t>("block state count");
        record.state.resize(count);
        r.getBytes(record.state.data(), count * sizeof(double),
                   "block state");
    }
    if (r.remaining() != 0)
        fatal("checkpoint '", origin, "' is corrupt: ", r.remaining(),
              " trailing payload bytes after the last block record");
    return image;
}

CheckpointImage
CheckpointReader::read(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("checkpoint '", path, "' cannot be opened for reading");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        fatal("checkpoint '", path, "' failed mid-read");
    return decodeCheckpoint(bytes, path);
}

} // namespace vibe
