#pragma once

namespace omr::baselines {

/// Register every baseline collective plus the Ok-Topk and count-sketch
/// reducers with core::CollectiveRegistry::global(), making the registry
/// the single dispatch surface:
///
///   ring, agsparse, agsparse_gloo, sparcml, sparcml_ssar, sparcml_dsar,
///   ps, ps_sparse, parallax, oktopk, sketch
///
/// (core registers omnireduce and switchml itself.) Idempotent and
/// thread-safe; call it once from main() before dispatching by name.
/// Explicit registration — not static initializers — so the static
/// library's registrars cannot be dropped by the linker.
void register_zoo();

}  // namespace omr::baselines
