// Package vm names the mutator-side counters of a single-task run.
//
// The abstract machine itself — Figure-1 activation records on one flat
// word array, gc_words recovered from return addresses, collection only at
// allocation safe points (§2.1) — is implemented once, in internal/tasking:
// a single-task program runs as a task group of one (Group.RunMain), which
// is §4's observation read backwards (tasks are that machine with an Rgc
// check added). This package keeps the type pipeline.Result reports that
// run's work in, and the tests of the machine's behaviour as a program
// sees it (vm_test.go, through pipeline.Run).
package vm

// Stats counts mutator work: the init function and main, summed (the two
// high-water marks are the larger of the two).
type Stats struct {
	// Instructions counts executed instructions. An allocation that found
	// the heap full and suspended for a collection is counted again when it
	// is retried.
	Instructions    int64
	Calls           int64
	ClosCalls       int64
	Allocations     int64
	ZeroFilledWords int64
	MaxStackWords   int
	MaxFrameDepth   int
}
