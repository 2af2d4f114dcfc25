#ifndef DIFFODE_NN_SERIALIZE_H_
#define DIFFODE_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "autograd/variable.h"

namespace diffode::nn {

// Flat binary checkpointing of a parameter list. The format stores, per
// parameter, its rank, dims and raw doubles; loading requires the exact
// same architecture (shape sequence), which is verified.

// Returns false on I/O failure.
bool SaveParams(const std::vector<ag::Var>& params, const std::string& path);

// Returns false on I/O failure, architecture mismatch, a non-finite value
// or bytes after the last tensor; on any failure the parameters are left
// untouched.
bool LoadParams(std::vector<ag::Var>* params, const std::string& path);

}  // namespace diffode::nn

#endif  // DIFFODE_NN_SERIALIZE_H_
