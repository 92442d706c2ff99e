package core

import "time"

// PhaseStat describes one stage of the execution pipeline for a single
// Run: how long it took and how much data moved through it.
type PhaseStat struct {
	// Wall is the stage's accumulated busy time: on the streaming
	// pipeline it is the sum of the per-goroutine busy-time accumulators
	// of the stage's decode or compute goroutines, gathered after the
	// joins. Busy sums stay truthful under overlap — the stages run
	// concurrently, so their summed busy time can (and should) exceed
	// the Run's elapsed time. A goroutine's busy time is measured on
	// the wall clock, so it also counts time spent runnable but waiting
	// for a CPU: when Workers exceeds GOMAXPROCS the sum overstates
	// the work. Hive UDAF 3-line at 64 workers on 2 vCPU reports 0.95 s
	// of compute busy time against about 0.21 s elapsed.
	Wall time.Duration
	// Rows is the number of consumer series the stage handled.
	Rows int64
	// Bytes approximates the payload the stage handled (8 bytes per
	// reading for decoded series).
	Bytes int64
}

// Phases is the per-stage instrumentation attached to every Results by
// the execution pipeline. The three stages mirror the paper's account of
// where engine time goes: Extract is the engine-native decode (file
// scan, tuple decode, columnar decode, cluster assembly job), Compute is
// the task kernel, and Emit is result assembly/merge.
//
// For the 3-line task the compute stage additionally records the
// paper's Figure 6 sub-phases: T1 percentile extraction, T2 segmented
// regression, T3 continuity adjustment, summed across consumers (and
// across workers when the compute stage fans out).
type Phases struct {
	Extract PhaseStat
	Compute PhaseStat
	Emit    PhaseStat

	T1Quantiles  time.Duration
	T2Regression time.Duration
	T3Adjust     time.Duration

	// SummaryBlocks and DecodedBlocks count stored blocks consumed by a
	// compressed-domain fast path: SummaryBlocks were satisfied from
	// header summaries/lanes alone, DecodedBlocks needed the full float
	// decode. Both stay zero when no fast path ran; their ratio is the
	// summary-only fraction the scale experiments report.
	SummaryBlocks int64
	DecodedBlocks int64
}

// Total returns the summed busy time of all three stages. It is always
// a busy-time sum, not elapsed time: stages that overlap count once per
// goroutine, so Total is an upper bound on the work's elapsed time.
func (p *Phases) Total() time.Duration {
	return p.Extract.Wall + p.Compute.Wall + p.Emit.Wall
}
