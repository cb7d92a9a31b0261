// udt::CompiledModel — an alias of CompiledForest. Model::Compile()
// returns a one-tree probability-average CompiledForest
// (api/compiled_forest.h), which serves and serializes exactly as any
// forest does. This header exists only because the end-to-end benchmark
// (perfbench/) names this type and include path, the same pattern as
// serve::Servable; new code names CompiledForest.

#ifndef UDT_API_COMPILED_MODEL_H_
#define UDT_API_COMPILED_MODEL_H_

#include "api/compiled_forest.h"

namespace udt {

using CompiledModel = CompiledForest;

}  // namespace udt

#endif  // UDT_API_COMPILED_MODEL_H_
