// Link-time span points of the traced replay (replay.cc).
//
// Each SYM_* names the mangled symbol of one public library function.
// The replay is linked with `--wrap=<symbol>` for every line below (the
// CMakeLists.txt reads this file), so every call to the function that
// crosses an object-file boundary inside libocdx.a — and every call the
// replay makes itself — goes through a span in replay.cc. The library
// is not modified or rebuilt.
//
// If a later change alters one of these signatures, its mangled name
// changes: the wrapper then binds to nothing, the replay reports the
// span as unbound on stderr and in its result, and that layer reads
// zero. Update the name here (`nm -C libocdx.a`) and the matching
// declaration in replay.cc together.

#ifndef OCDXBENCH_TRACE_SYMBOLS_H_
#define OCDXBENCH_TRACE_SYMBOLS_H_

// exec
#define SYM_RunDxBatch "_ZN4ocdx10RunDxBatchERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS6_EERKNS_12BatchOptionsE"
#define SYM_PlanDxJobs "_ZN4ocdx10PlanDxJobsERKNS_10DxScenarioERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_15DxDriverOptionsE"
// text
#define SYM_ParseDxScenario "_ZN4ocdx15ParseDxScenarioESt17basic_string_viewIcSt11char_traitsIcEEPNS_8UniverseE"
#define SYM_ParseDxScenarioOpts "_ZN4ocdx15ParseDxScenarioESt17basic_string_viewIcSt11char_traitsIcEEPNS_8UniverseERKNS_14DxParseOptionsE"
#define SYM_RunDxCommand "_ZN4ocdx12RunDxCommandERKNS_10DxScenarioERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_8UniverseERKNS_15DxDriverOptionsEPNS_6StatusE"
// chase
#define SYM_Chase "_ZN4ocdx5ChaseERKNS_7MappingERKNS_8InstanceEPNS_8UniverseERKNS_13EngineContextE"
// certain
#define SYM_CertainAnswers "_ZN4ocdx19CertainAnswerEngine14CertainAnswersERKSt10shared_ptrIKNS_7FormulaEERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaISD_EEPNS_14CertainVerdictERKNS_14CertainOptionsE"
#define SYM_IsCertainBoolean "_ZN4ocdx19CertainAnswerEngine16IsCertainBooleanERKSt10shared_ptrIKNS_7FormulaEERKNS_14CertainOptionsE"
// semantics
#define SYM_InSolutionSpace "_ZN4ocdx15InSolutionSpaceERKNS_7MappingERKNS_8InstanceES5_PNS_8UniverseENS_11RepAOptionsERKNS_13EngineContextE"
#define SYM_InSolutionSpaceGiven "_ZN4ocdx20InSolutionSpaceGivenERKNS_17AnnotatedInstanceERKNS_8InstanceENS_11RepAOptionsERKNS_13EngineContextE"
#define SYM_InRepA "_ZN4ocdx6InRepAERKNS_17AnnotatedInstanceERKNS_8InstanceEPNS_9ValuationENS_11RepAOptionsERKNS_13EngineContextE"
// compose
#define SYM_InComposition "_ZN4ocdx13InCompositionERKNS_7MappingES2_RKNS_8InstanceES5_PNS_8UniverseENS_14ComposeOptionsERKNS_13EngineContextE"
// skolem
#define SYM_ComposeSkolem "_ZN4ocdx13ComposeSkolemERKNS_7MappingES2_PNS_8UniverseE"
// snap
#define SYM_BuildSnapshotBundle "_ZN4ocdx4snap19BuildSnapshotBundleENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES6_RKNS_13EngineContextE"
#define SYM_WriteSnapshotFile "_ZN4ocdx4snap17WriteSnapshotFileERKNS0_14SnapshotBundleERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_LoadSnapshotFile "_ZN4ocdx4snap16LoadSnapshotFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_RunSnapshotCommand "_ZN4ocdx4snap18RunSnapshotCommandERKNS0_14SnapshotBundleERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_15DxDriverOptionsEPNS_6StatusE"

#endif  // OCDXBENCH_TRACE_SYMBOLS_H_
