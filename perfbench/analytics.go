package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// analyticOp is one timed task of an analytics workload's cycle.
type analyticOp struct {
	metric string // end-to-end slot, e.g. op2_s
	name   string // task name in per-layer metrics, e.g. threeline
	task   core.Task
}

// taskStats is what the loop saw of one task.
type taskStats struct {
	wall, extract, compute, emit []float64
	t1, t2, t3, allocMB          []float64
	summary, decoded             int64
	misses                       []float64
	first                        *core.Results
	sameAsFirst                  int // later runs bit-identical to first
}

// analyticsEngine is what the closed loop needs from an engine.
type analyticsEngine interface {
	RunContext(ctx context.Context, spec core.Spec) (*core.Results, error)
}

// analyticsLoop is the closed loop of one client: it cycles through ops
// until the run's seconds are spent, always completing one cycle.
// beforeCycle runs at the start of each cycle (nil for none); cache
// reports the engine's cumulative cache hits and misses. It records
// every op's wall time under its slot, the peak heap and the loop's
// throughput, and checks each run against the task's first run.
// Throughput counts complete cycles only: the tasks differ in cost, so a
// cycle cut short by the deadline would bias it by where it was cut.
func (r *run) analyticsLoop(layer string, eng analyticsEngine, ops []analyticOp,
	beforeCycle func(parent spanRef) (time.Duration, error), cache func() (hits, misses int64),
	readingsPerOp float64) map[core.Task]*taskStats {
	stats := map[core.Task]*taskStats{}
	for _, op := range ops {
		stats[op.task] = &taskStats{}
	}
	var totalHits, totalMisses int64
	// Engine time of the complete cycles: per task, and before cycles.
	cycleWall := map[core.Task]float64{}
	var beforeWall float64
	cycles := 0
	heap := startHeapPeak(2 * time.Millisecond)
	deadline := time.Now().Add(r.seconds)
	func() {
		for cycle := 0; ; cycle++ {
			if cycle > 0 && !time.Now().Before(deadline) {
				return
			}
			var before time.Duration
			wall := map[core.Task]float64{}
			if beforeCycle != nil {
				root := r.tr.root("cycle")
				d, err := beforeCycle(root)
				r.tr.end(root)
				before = d
				if err != nil {
					r.fail("before cycle %d: %v", cycle, err)
					return
				}
			}
			for _, op := range ops {
				if cycle > 0 && !time.Now().Before(deadline) {
					return
				}
				st := stats[op.task]
				// Start every op from a collected heap, so garbage left by
				// the previous op does not put a GC cycle inside this one.
				runtime.GC()
				h0, m0 := cache()
				a0 := allocBytes()
				root := r.tr.root(op.metric)
				var res *core.Results
				d, err := r.tr.timed(root, fmt.Sprintf("%s.Engine.RunContext(%s)", layer, op.name), func() error {
					var err error
					res, err = eng.RunContext(context.Background(), core.Spec{Task: op.task, Workers: clients})
					return err
				})
				r.tr.end(root)
				a1 := allocBytes()
				h1, m1 := cache()
				r.attempted++
				if err != nil {
					r.fail("%s run: %v", op.name, err)
					return
				}
				wall[op.task] = d.Seconds()
				r.add(op.metric, d.Seconds())
				totalHits += h1 - h0
				totalMisses += m1 - m0
				st.wall = append(st.wall, d.Seconds())
				st.misses = append(st.misses, float64(m1-m0))
				st.allocMB = append(st.allocMB, float64(a1-a0)/(1<<20))
				if ph := res.Phases; ph != nil {
					st.extract = append(st.extract, ph.Extract.Wall.Seconds())
					st.compute = append(st.compute, ph.Compute.Wall.Seconds())
					st.emit = append(st.emit, ph.Emit.Wall.Seconds())
					st.t1 = append(st.t1, ph.T1Quantiles.Seconds())
					st.t2 = append(st.t2, ph.T2Regression.Seconds())
					st.t3 = append(st.t3, ph.T3Adjust.Seconds())
					st.summary += ph.SummaryBlocks
					st.decoded += ph.DecodedBlocks
				}
				if st.first == nil {
					st.first = res
				} else if err := sameResults(res, st.first); err != nil {
					r.fail("%s run differs from the first run: %v", op.name, err)
				} else {
					st.sameAsFirst++
				}
			}
			cycles++
			beforeWall += before.Seconds()
			for t, d := range wall {
				cycleWall[t] += d
			}
		}
	}()
	r.add("peak_heap_mb", heap.Stop())
	// The loop's throughput counts the engine calls only, not the
	// collections the loop forces between them.
	busy := beforeWall
	for _, d := range cycleWall {
		busy += d
	}
	runs := cycles * len(ops)
	if cycles > 0 {
		r.add("readings_per_s", readingsPerOp*float64(runs)/busy)
	}

	// Per-layer view, used by the traced run's report.
	rows := []bdRow{}
	for _, op := range ops {
		st := stats[op.task]
		rows = append(rows, bdRow{op.metric + " runs (" + op.name + ")", cycleWall[op.task]})
		prefix := "exec." + op.name + "."
		r.layer[prefix+"extract_busy_s"] = median(st.extract)
		r.layer[prefix+"compute_busy_s"] = median(st.compute)
		r.layer[prefix+"emit_s"] = median(st.emit)
		r.layer[prefix+"alloc_mb"] = median(st.allocMB)
		if op.task == core.TaskHistogram || op.task == core.TaskPAR {
			r.layer[prefix+"summary_only_frac"] = ratio(float64(st.summary), float64(st.summary+st.decoded))
		}
		if op.task == core.TaskThreeLine {
			r.layer["threeline.t1_quantile_s"] = median(st.t1)
			r.layer["threeline.t2_regression_s"] = median(st.t2)
			r.layer["threeline.t3_adjust_s"] = median(st.t3)
		}
		r.breakdowns = append(r.breakdowns, taskBreakdown(op, layer, st))
	}
	if beforeCycle != nil {
		rows = append(rows, bdRow{layer + ".Release", beforeWall})
	}
	lb := newBreakdown("readings_per_s", "engine time of the complete cycles", busy, rows)
	lb.Notes = append(lb.Notes, fmt.Sprintf("readings_per_s = %.0f readings x %d runs in %d complete cycles / engine time", readingsPerOp, runs, cycles))
	r.breakdowns = append(r.breakdowns, lb)
	r.cacheLayer(layer, totalHits, totalMisses, stats)
	return stats
}

// cacheLayer records the engine cache counters of the loop; pager
// misses are per task run, averaged over every task of the cycle.
func (r *run) cacheLayer(layer string, hits, misses int64, stats map[core.Task]*taskStats) {
	switch layer {
	case "colstore":
		r.layer["colstore.pager_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		runs := 0
		for _, st := range stats {
			runs += len(st.wall)
		}
		r.layer["colstore.pager_misses"] = ratio(float64(misses), float64(runs))
	case "rowstore":
		r.layer["rowstore.pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	}
}

// taskBreakdown splits the summed wall time of one task's runs into the
// exec pipeline's stages; 3-line compute is split further into the
// paper's T1/T2/T3 sub-phases.
func taskBreakdown(op analyticOp, layer string, st *taskStats) breakdown {
	extract := sum(st.extract)
	compute := sum(st.compute)
	rows := []bdRow{{layer + " extract (exec extract busy)", extract}}
	if op.task == core.TaskThreeLine {
		t1, t2, t3 := sum(st.t1), sum(st.t2), sum(st.t3)
		rows = append(rows,
			bdRow{"threeline T1 quantiles", t1},
			bdRow{"threeline T2 regression", t2},
			bdRow{"threeline T3 adjust", t3},
			bdRow{"exec compute other", max(0, compute-t1-t2-t3)})
	} else {
		rows = append(rows, bdRow{op.name + " kernel (exec compute busy)", compute})
	}
	rows = append(rows, bdRow{"exec emit", sum(st.emit)})
	b := newBreakdown(op.metric, op.name+"_s", sum(st.wall), rows)
	b.Notes = append(b.Notes, fmt.Sprintf("%d runs; busy times are summed over the pipeline's goroutines", len(st.wall)))
	if m := median(st.misses); m > 0 {
		b.Notes = append(b.Notes, fmt.Sprintf("%s cache: %.0f misses per run", layer, m))
	}
	if st.summary+st.decoded > 0 {
		b.Notes = append(b.Notes, fmt.Sprintf("compressed-domain fast path: %d blocks summary-only, %d decoded", st.summary, st.decoded))
	}
	return b
}

// verify checks the first run of every task against core.RunReference
// over ds. Every later run was already checked against the first, so a
// wrong first run fails all of them.
func (r *run) verify(ds *timeseries.Dataset, ops []analyticOp, stats map[core.Task]*taskStats) {
	start := time.Now()
	defer func() { r.note("answer check against core.RunReference took %.1f s", time.Since(start).Seconds()) }()
	for _, op := range ops {
		st := stats[op.task]
		if st.first == nil {
			continue
		}
		// Workers only splits the reference's own similarity kernel; the
		// per-consumer references are serial loops.
		want, err := core.RunReference(ds, core.Spec{Task: op.task, Workers: clients})
		if err != nil {
			r.fail("reference %s: %v", op.name, err)
			continue
		}
		if err := sameResults(st.first, want); err != nil {
			r.failed += st.sameAsFirst
			r.fail("%s differs from core.RunReference: %v", op.name, err)
		}
	}
}

// readAll materializes every series a cursor yields, copying each row
// since cursors may reuse their buffers.
func readAll(cur core.Cursor, temp *timeseries.Temperature) (*timeseries.Dataset, error) {
	ds := &timeseries.Dataset{Temperature: temp}
	for {
		s, err := cur.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return ds, cur.Close()
			}
			_ = cur.Close()
			return nil, err
		}
		ds.Series = append(ds.Series, s.Clone())
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
