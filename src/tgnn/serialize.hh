/**
 * @file
 * Model checkpointing.
 *
 * Parameters are written in a small self-describing binary format:
 * magic, version, tensor count, then per tensor (rows, cols, data).
 * Since format version 2 every artifact is committed atomically
 * (tmp file + fsync + rename) and carries a CRC32 footer that is
 * validated before any deserialization, so truncated or bit-flipped
 * files are rejected loudly. Loading validates shapes against the
 * target model's registry, so a checkpoint can only be restored into
 * an identically configured model — mismatches fail loudly instead of
 * silently corrupting weights.
 *
 * The blob-level helpers (writeParametersBlob / readParametersBlob)
 * also clone parameters into a serve reader's replica. Training
 * checkpoints (train/checkpoint.hh) use their own model section,
 * TgnnModel::saveTrainingState.
 */

#ifndef CASCADE_TGNN_SERIALIZE_HH
#define CASCADE_TGNN_SERIALIZE_HH

#include <string>
#include <vector>

#include "tensor/variable.hh"
#include "util/binio.hh"
#include "util/determinism.hh"

namespace cascade {

class TgnnModel;

/** Append a parameter list (count + tensors) to a byte stream. */
void writeParametersBlob(ByteWriter &w, const std::vector<Variable> &params);

/**
 * Read a parameter blob into an existing registry. Everything is
 * staged and shape-checked before any parameter is overwritten.
 * @return false on count/shape mismatch or short payload (registry
 *         untouched)
 */
bool readParametersBlob(ByteReader &r, std::vector<Variable> params);

/**
 * Write a parameter list to a file (atomic, CRC-protected).
 * @return false on I/O failure
 */
bool saveParameters(const std::vector<Variable> &params,
                    const std::string &path);

/**
 * Read parameters from a file into an existing registry.
 * @return false on I/O failure, corruption (bad CRC / truncation),
 *         wrong magic/version, or any shape mismatch (the registry is
 *         untouched in every failure case)
 */
bool loadParameters(std::vector<Variable> params,
                    const std::string &path);

/** Convenience wrappers for a whole model. */
CASCADE_TRAJECTORY
bool saveModel(const TgnnModel &model, const std::string &path);
bool loadModel(TgnnModel &model, const std::string &path);

} // namespace cascade

#endif // CASCADE_TGNN_SERIALIZE_HH
