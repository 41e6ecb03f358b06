// Selection of the query/homomorphism evaluation engine.
//
// The engine mode lives in an EngineContext (logic/engine_context.h)
// that is threaded explicitly through every evaluation path; jobs never
// consult process state, which is what makes the core reentrant (see
// README.md "Concurrency model"). This header holds only the mode enum.
//
// History: a deprecated thread-local ScopedJoinEngineMode shim lived here
// through PR 4 so that pre-EngineContext tests and benchmarks kept
// working. Every caller now constructs contexts explicitly and the shim
// is gone (PR 5).

#ifndef OCDX_LOGIC_ENGINE_CONFIG_H_
#define OCDX_LOGIC_ENGINE_CONFIG_H_

namespace ocdx {

enum class JoinEngineMode {
  kIndexed,  ///< Slot-compiled plans over lazy hash indexes (default).
  kNaive,    ///< Original nested-loop scans (reference baseline).
  /// No CQ fast path and no range restriction: every quantifier runs the
  /// domain^k odometer. The pure active-domain oracle the parity tests
  /// compare the indexed engine against.
  kGeneric,
};

}  // namespace ocdx

#endif  // OCDX_LOGIC_ENGINE_CONFIG_H_
