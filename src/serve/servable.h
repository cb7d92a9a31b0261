// udt::serve::Servable — the one value type the serving front end traffics
// in, and ServeSession, its per-worker execution handle. A compiled tree
// ("udt-compiled v1", CompiledModel) serves as a one-tree forest, so both
// container kinds are one CompiledForest and both run through one
// PredictSession: the registry stores Servables, the admission queue
// drains through ServeSessions, and neither has a container kind to care
// about.
//
// A CompiledForest is one shared pointer wide, so a Servable copies in
// O(1) and co-owns its artifact: retiring a registry entry while a session
// built from it is mid-batch never dangles — the flat arrays live until
// the last Servable/session lets go. That ownership story is the whole
// reason atomic hot swap works (see model_registry.h). Like every
// PredictSession, a ServeSession is cheap to construct and NOT
// thread-safe: one per worker.

#ifndef UDT_SERVE_SERVABLE_H_
#define UDT_SERVE_SERVABLE_H_

#include "api/compiled_forest.h"
#include "api/compiled_model.h"
#include "api/predict_session.h"

namespace udt {
namespace serve {

using Servable = CompiledForest;
using ServeSession = PredictSession;

}  // namespace serve
}  // namespace udt

#endif  // UDT_SERVE_SERVABLE_H_
