#include "tgnn/serialize.hh"

#include <cstdint>

#include "tgnn/model.hh"

namespace cascade {

namespace {

constexpr uint32_t kMagic = 0x43534b50;  // "CSKP"
// v2: CRC32 footer + atomic commit via util/binio.
constexpr uint32_t kVersion = 2;

/** Append rows (u64), cols (u64), then the row-major floats. */
void
writeTensor(ByteWriter &w, const Tensor &t)
{
    w.u64(t.rows());
    w.u64(t.cols());
    if (t.size() > 0)
        w.bytes(t.data(), t.size() * sizeof(float));
}

/**
 * Read a tensor that must be exactly rows x cols: the in-memory
 * target dictates the shape, and a mismatch means the file belongs to
 * a differently configured model.
 * @return false on shape mismatch or short payload (out untouched)
 */
bool
readTensorExpect(ByteReader &r, size_t rows, size_t cols, Tensor &out)
{
    uint64_t frows = 0, fcols = 0;
    if (!r.u64(frows) || !r.u64(fcols) || frows != rows ||
        fcols != cols) {
        return false;
    }
    Tensor t(rows, cols);
    if (t.size() > 0 && !r.bytes(t.data(), t.size() * sizeof(float)))
        return false;
    out = std::move(t);
    return true;
}

} // namespace

void
writeParametersBlob(ByteWriter &w, const std::vector<Variable> &params)
{
    w.u32(static_cast<uint32_t>(params.size()));
    for (const auto &p : params)
        writeTensor(w, p.value());
}

bool
readParametersBlob(ByteReader &r, std::vector<Variable> params)
{
    // Read everything into staging first: a half-applied checkpoint
    // would be worse than a failed load.
    uint32_t count = 0;
    if (!r.u32(count) || count != params.size())
        return false;
    std::vector<Tensor> staged(count);
    for (size_t i = 0; i < params.size(); ++i) {
        const Tensor &v = params[i].value();
        if (!readTensorExpect(r, v.rows(), v.cols(), staged[i]))
            return false;
    }
    for (size_t i = 0; i < params.size(); ++i)
        params[i].valueMutable() = std::move(staged[i]);
    return true;
}

bool
saveParameters(const std::vector<Variable> &params,
               const std::string &path)
{
    ByteWriter w;
    w.u32(kMagic);
    w.u32(kVersion);
    writeParametersBlob(w, params);
    return writeFileAtomic(path, w.buffer());
}

bool
loadParameters(std::vector<Variable> params, const std::string &path)
{
    std::string payload;
    if (!readFileValidated(path, payload))
        return false;
    ByteReader r(payload);
    uint32_t magic = 0, version = 0;
    if (!r.u32(magic) || magic != kMagic || !r.u32(version) ||
        version != kVersion) {
        return false;
    }
    return readParametersBlob(r, std::move(params));
}

bool
saveModel(const TgnnModel &model, const std::string &path)
{
    return saveParameters(model.parameters(), path);
}

bool
loadModel(TgnnModel &model, const std::string &path)
{
    return loadParameters(model.parameters(), path);
}

} // namespace cascade
