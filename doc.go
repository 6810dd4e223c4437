// Package tagfree reproduces Benjamin Goldberg's "Tag-Free Garbage
// Collection for Strongly Typed Programming Languages" (PLDI 1991).
//
// The repository contains a complete compiler and runtime for MinML, a
// small ML-like language, built so that garbage collection runs without
// any run-time type tags: the compiler emits per-call-site frame GC
// routines addressed through gc_words embedded next to call instructions,
// polymorphic frames receive type_gc_routines from their callers during
// an oldest-to-newest stack walk, and three comparison collectors (the
// interpreted-descriptor method, Appel's per-procedure descriptors, and a
// classical tagged collector) run over the same programs.
//
// Entry points:
//
//   - internal/pipeline: compile and run MinML source under any collector
//   - cmd/tfgc: command-line compiler/runner/disassembler
//   - cmd/tfbench: regenerates the experiment tables of EXPERIMENTS.md
//   - benchmark: the repository benchmark (BENCHMARK.json)
//
// See README.md for a tour and DESIGN.md for the system inventory.
package tagfree
