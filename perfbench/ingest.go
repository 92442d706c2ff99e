package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// durable-ingest: a 1000-household x 90-day base segment opened with
// the write-ahead log (batch group commit), a tail budget of one
// simulated day and the background checkpointer armed. Two writer
// clients each own half of the concentrators (16 consecutive households
// per batch) and send the next batch after the ack; after each
// simulated hour client 0 runs a Workers=1 snapshot histogram while
// client 1 keeps appending. The run ends with Crash, a reopen and a
// verified snapshot answer. WAL writes, fsync, group commit, the live
// tail, checkpoints and replay do the work, and everything fits in
// memory.
const (
	ingestHouseholds = 1000
	ingestBaseDays   = 90
	concentrator     = 16
	tailBudget       = ingestHouseholds * timeseries.HoursPerDay
	recoverRepeats   = 25
	// ingestSetupRepeats is above setupRepeats because one set-up takes
	// under a tenth of a second, where a single slow disk write moves
	// the median of five.
	ingestSetupRepeats = 15
	// crashLogHours is how many simulated hours the log holds at the
	// crash: the run folds the tail with one Checkpoint and appends this
	// many more hours, so every run replays the same amount of log.
	crashLogHours = 12
	// rateWindows splits the ingest phase into equal windows; ingest_rps
	// is the median of their rates, so a burst of contention on the
	// shared disk in one window does not move it.
	rateWindows = 4
)

func runIngest(r *run) error {
	ds, err := seed.Generate(seed.Config{Consumers: ingestHouseholds, Days: days, Seed: r.seed})
	if err != nil {
		return err
	}
	baseHours := ingestBaseDays * timeseries.HoursPerDay

	var eng *colstore.Engine
	var fsc *countingFS
	var dir string
	var walls, enc, open []float64
	var rows []map[string]float64
	for i := 0; i < ingestSetupRepeats; i++ {
		if eng != nil {
			eng.Crash() // drops the previous set-up's file handles
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("ingest-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		r.attempted++
		s, err := ingestSetup(r, dir, ds, baseHours)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		eng, fsc = s.eng, s.fs
		r.add("setup_s", s.wall.Seconds())
		walls = append(walls, s.wall.Seconds())
		enc = append(enc, s.rows["colstore encode"])
		open = append(open, s.rows["colstore open"])
		rows = append(rows, s.rows)
	}
	r.layer["colstore.encode_s"] = median(enc)
	r.layer["colstore.open_s"] = median(open)
	r.breakdowns = append(r.breakdowns, setupBreakdown(walls, rows))

	heap := startHeapPeak(2 * time.Millisecond)
	acked, err := r.ingestPhase(eng, fsc, ds, baseHours)
	if err == nil {
		err = r.fillLog(eng, ds, acked)
	}
	if err == nil {
		err = r.recoverPhase(eng, dir, ds, acked)
	}
	r.add("peak_heap_mb", heap.Stop())
	return err
}

// ingestSetup encodes the base segment and opens it with the WAL.
func ingestSetup(r *run, dir string, ds *timeseries.Dataset, baseHours int) (*setupResult, error) {
	res := &setupResult{rows: map[string]float64{}}
	root := r.tr.root("setup_s")
	defer r.tr.end(root)
	start := time.Now()
	path := filepath.Join(dir, colstore.SegmentFileName)
	var w *colstore.SegmentWriter
	d, err := r.tr.timed(root, "colstore.NewSegmentWriter", func() error {
		var err error
		w, err = colstore.NewSegmentWriter(path, ds.Temperature.Values[:baseHours], colstore.WithEncoders(clients))
		return err
	})
	res.rows["colstore encode"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	for _, s := range ds.Series {
		d, err := r.tr.timed(root, "colstore.SegmentWriter.Append", func() error { return w.Append(s.ID, s.Readings[:baseHours]) })
		res.rows["colstore encode"] += d.Seconds()
		if err != nil {
			_ = w.Close()
			return nil, err
		}
	}
	d, err = r.tr.timed(root, "colstore.SegmentWriter.Close", w.Close)
	res.rows["colstore encode"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		// The traced run counts the log's file operations.
		res.fs = newCountingFS(path)
	}
	res.eng = colstore.New(dir, walOptions(res.fs)...)
	d, err = r.tr.timed(root, "colstore.Engine.OpenExisting", func() error {
		_, err := res.eng.OpenExisting()
		return err
	})
	res.rows["colstore open"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	return res, nil
}

// walOptions arms the WAL with batch group commit and the one-day tail
// budget, over fsc when it is not nil.
func walOptions(fsc *countingFS) []colstore.Option {
	opts := []colstore.Option{colstore.WithWAL(wal.SyncBatch), colstore.WithTailBudget(tailBudget)}
	if fsc != nil {
		opts = append(opts, colstore.WithWALFS(fsc))
	}
	return opts
}

// hourGate keeps the two writer clients within one simulated hour of
// each other: a client starts hour h only after the other has appended
// all of hour h-1, so checkpoint cuts and snapshot contents do not
// depend on how far one client drifted.
type hourGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	done    [clients]int
	stopped [clients]bool
}

func newHourGate() *hourGate {
	g := &hourGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until client c may start hour h; false means the other
// client stopped before reaching it.
func (g *hourGate) wait(c, h int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := 1 - c
	for g.done[o] < h {
		if g.stopped[o] {
			return false
		}
		g.cond.Wait()
	}
	return true
}

func (g *hourGate) finish(c, hours int) {
	g.mu.Lock()
	g.done[c] = hours
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *hourGate) stop(c int) {
	g.mu.Lock()
	g.stopped[c] = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// clientResult is what one writer client measured.
type clientResult struct {
	appendLat, snapLat []float64
	ackAt              []time.Duration // since the ingest phase started
	ackN               []int
	snapshots          int
	phases             []*core.Phases
	snapAlloc          []float64
	failures           []string
	err                error
}

// ingestPhase runs the two writer clients for the run's seconds and
// returns each household's acked hours.
func (r *run) ingestPhase(eng *colstore.Engine, fsc *countingFS, ds *timeseries.Dataset, baseHours int) ([]int, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ckptDone := eng.StartCheckpointer(ctx)
	acked := make([]atomic.Int64, len(ds.Series))
	for i := range acked {
		acked[i].Store(int64(baseHours))
	}
	gate := newHourGate()
	nConc := (len(ds.Series) + concentrator - 1) / concentrator
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(r.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer gate.stop(c)
			results[c] = r.writer(c, eng, ds, acked, gate, c*nConc/clients, (c+1)*nConc/clients, baseHours, start, deadline)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cancel()
	<-ckptDone

	var appendLat []float64
	var readings int64
	window := wall / rateWindows
	perWindow := make([]float64, rateWindows)
	var phases []*core.Phases
	var snapAlloc []float64
	for _, res := range results {
		r.attempted += len(res.appendLat) + res.snapshots
		for _, d := range res.appendLat {
			r.add("op1_s", d)
		}
		for _, d := range res.snapLat {
			r.add("op2_s", d)
		}
		appendLat = append(appendLat, res.appendLat...)
		for i, at := range res.ackAt {
			perWindow[min(int(at/window), rateWindows-1)] += float64(res.ackN[i])
			readings += int64(res.ackN[i])
		}
		phases = append(phases, res.phases...)
		snapAlloc = append(snapAlloc, res.snapAlloc...)
		for _, f := range res.failures {
			r.fail("%s", f)
		}
		if res.err != nil {
			r.attempted++ // the operation that failed
			return nil, res.err
		}
	}
	if err := eng.CheckpointErr(); err != nil {
		r.fail("background checkpoint: %v", err)
	}
	for i := range perWindow {
		perWindow[i] /= window.Seconds()
	}
	r.add("readings_per_s", median(perWindow))
	r.note("%d readings acked in %d appends over %.2f s (%.0f readings/s); window rates %.0f",
		readings, len(appendLat), wall.Seconds(), float64(readings)/wall.Seconds(), perWindow)

	r.layer["colstore.append_p99_ms"] = 1e3 * quantile(appendLat, 0.99)
	r.layer["colstore.append_max_ms"] = 1e3 * quantile(appendLat, 1)
	r.snapshotLayer(phases, snapAlloc)
	var rows []bdRow
	if fsc != nil {
		wc := fsc.counts()
		n := float64(len(appendLat))
		var syncs []float64
		var syncTotal float64
		for _, d := range wc.logSyncs {
			syncs = append(syncs, float64(d.Microseconds()))
			syncTotal += d.Seconds()
		}
		r.layer["wal.fsyncs_per_append"] = float64(len(syncs)) / n
		r.layer["wal.writes_per_append"] = float64(wc.logWrites) / n
		r.layer["wal.bytes_per_reading"] = ratio(float64(wc.logBytes), float64(readings))
		r.layer["wal.fsync_p50_us"] = quantile(syncs, 0.5)
		r.layer["wal.fsync_p99_us"] = quantile(syncs, 0.99)
		r.layer["colstore.checkpoints"] = float64(wc.checkpoints)
		r.layer["colstore.segment_bytes_per_ingested_byte"] = ratio(float64(wc.segBytes), 8*float64(readings))
		rows = []bdRow{{"wal log write", wc.logWriteTime.Seconds()}, {"wal log fsync", syncTotal}}
	}
	b := newBreakdown("op1_s", "append_p50 (all appends, both clients)", sum(appendLat), rows)
	b.Notes = append(b.Notes, "unattributed: in-memory apply, shard locks, group-commit waits and stalls behind checkpoints")
	r.breakdowns = append(r.breakdowns, b)

	out := make([]int, len(acked))
	for i := range acked {
		out[i] = int(acked[i].Load())
	}
	return out, nil
}

// writer is one closed-loop client. It appends hour after hour for its
// concentrators [lo, hi) until the deadline; client 0 runs a snapshot
// histogram after each hour and checks that it holds every hour acked
// before it was taken.
func (r *run) writer(c int, eng *colstore.Engine, ds *timeseries.Dataset, acked []atomic.Int64,
	gate *hourGate, lo, hi, baseHours int, start, deadline time.Time) clientResult {
	var res clientResult
	root := r.tr.root(fmt.Sprintf("ingest.client%d", c))
	defer r.tr.end(root)
	temp := ds.Temperature.Values
	batch := make([]core.Reading, 0, concentrator)
	lower := make([]int64, len(ds.Series))
	for h := 0; baseHours+h < len(temp); h++ {
		if !time.Now().Before(deadline) || !gate.wait(c, h) {
			return res
		}
		hour := baseHours + h
		for k := lo; k < hi; k++ {
			batch = batch[:0]
			for i := k * concentrator; i < min((k+1)*concentrator, len(ds.Series)); i++ {
				s := ds.Series[i]
				batch = append(batch, core.Reading{ID: s.ID, Hour: hour, Consumption: s.Readings[hour], Temperature: temp[hour]})
			}
			d, err := r.tr.timed(root, "colstore.Engine.Append", func() error { return eng.Append(batch) })
			if err != nil {
				res.err = fmt.Errorf("client %d append at hour %d: %w", c, hour, err)
				return res
			}
			res.appendLat = append(res.appendLat, d.Seconds())
			res.ackAt = append(res.ackAt, time.Since(start))
			res.ackN = append(res.ackN, len(batch))
			for i := k * concentrator; i < min((k+1)*concentrator, len(ds.Series)); i++ {
				acked[i].Store(int64(hour + 1))
			}
		}
		gate.finish(c, h+1)
		if c != 0 {
			continue
		}
		for i := range acked {
			lower[i] = acked[i].Load()
		}
		a0 := allocBytes()
		var snap *core.Results
		d, err := r.tr.timed(root, "exec.RunSnapshot(histogram)", func() error {
			var err error
			snap, _, err = exec.RunSnapshot(context.Background(), eng, core.Spec{Task: core.TaskHistogram, Workers: 1})
			return err
		})
		res.snapshots++
		if err != nil {
			res.err = fmt.Errorf("snapshot after hour %d: %w", hour, err)
			return res
		}
		res.snapLat = append(res.snapLat, d.Seconds())
		res.snapAlloc = append(res.snapAlloc, float64(allocBytes()-a0)/(1<<20))
		res.phases = append(res.phases, snap.Phases)
		if err := holdsAcked(snap, ds, lower); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("snapshot after hour %d: %v", hour, err))
		}
	}
	return res
}

// holdsAcked checks that a snapshot histogram covers every household
// with at least its acked hours: each histogram counts one reading per
// stored hour.
func holdsAcked(snap *core.Results, ds *timeseries.Dataset, lower []int64) error {
	if len(snap.Histograms) != len(ds.Series) {
		return fmt.Errorf("%d households, want %d", len(snap.Histograms), len(ds.Series))
	}
	for i, h := range snap.Histograms {
		if h.ID != ds.Series[i].ID {
			return fmt.Errorf("household %d at position %d, want %d", h.ID, i, ds.Series[i].ID)
		}
		var n int64
		for _, c := range h.Histogram.Counts {
			n += c
		}
		if n < lower[i] {
			return fmt.Errorf("household %d holds %d hours, %d were acked", h.ID, n, lower[i])
		}
	}
	return nil
}

// snapshotLayer records the exec pipeline's view of the fresh queries.
func (r *run) snapshotLayer(phases []*core.Phases, alloc []float64) {
	var ex, cp, em []float64
	for _, p := range phases {
		if p == nil {
			continue
		}
		ex = append(ex, p.Extract.Wall.Seconds())
		cp = append(cp, p.Compute.Wall.Seconds())
		em = append(em, p.Emit.Wall.Seconds())
	}
	r.layer["exec.snapshot.extract_busy_s"] = median(ex)
	r.layer["exec.snapshot.compute_busy_s"] = median(cp)
	r.layer["exec.snapshot.emit_s"] = median(em)
	r.layer["exec.snapshot.alloc_mb"] = median(alloc)
	b := newBreakdown("op2_s", "fresh_query (all snapshot histograms)", sum(r.samples["op2_s"]), []bdRow{
		{"colstore snapshot extract (exec extract busy)", sum(ex)},
		{"histogram kernel (exec compute busy)", sum(cp)},
		{"exec emit", sum(em)},
	})
	b.Notes = append(b.Notes, "unattributed: the snapshot capture under the ingest lock and pipeline set-up")
	r.breakdowns = append(r.breakdowns, b)
}

// fillLog folds the live tail into the base with one Checkpoint, then
// appends crashLogHours more hours for every household, from one
// goroutine, and updates acked.
func (r *run) fillLog(eng *colstore.Engine, ds *timeseries.Dataset, acked []int) error {
	if err := eng.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint before the crash: %w", err)
	}
	from, upTo := acked[0], 0
	for _, a := range acked {
		from, upTo = min(from, a), max(upTo, a+crashLogHours)
	}
	temp := ds.Temperature.Values
	if upTo > len(temp) {
		return fmt.Errorf("the data ends at hour %d, before hour %d", len(temp), upTo)
	}
	batch := make([]core.Reading, 0, concentrator)
	for h := from; h < upTo; h++ {
		for lo := 0; lo < len(ds.Series); lo += concentrator {
			if acked[lo] > h {
				continue // this concentrator's households already hold hour h
			}
			batch = batch[:0]
			for _, s := range ds.Series[lo:min(lo+concentrator, len(ds.Series))] {
				batch = append(batch, core.Reading{ID: s.ID, Hour: h, Consumption: s.Readings[h], Temperature: temp[h]})
			}
			r.attempted++
			if err := eng.Append(batch); err != nil {
				return fmt.Errorf("append at hour %d before the crash: %w", h, err)
			}
		}
	}
	for i := range acked {
		acked[i] = upTo
	}
	return nil
}

// recoverPhase crashes the engine, reopens the directory and times the
// first verified snapshot answer; it repeats that recoverRepeats times
// over the same log and then checks every acked reading.
func (r *run) recoverPhase(eng *colstore.Engine, dir string, ds *timeseries.Dataset, acked []int) error {
	logBytes, err := dirBytes(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	r.layer["wal.log_mb_at_crash"] = float64(logBytes) / (1 << 20)

	// The reference answer: every household's acked prefix.
	maxHours := 0
	want := &timeseries.Dataset{}
	for i, s := range ds.Series {
		want.Series = append(want.Series, &timeseries.Series{ID: s.ID, Readings: s.Readings[:acked[i]]})
		maxHours = max(maxHours, acked[i])
	}
	want.Temperature = &timeseries.Temperature{Values: ds.Temperature.Values[:maxHours]}
	ref, err := core.RunReference(want, core.Spec{Task: core.TaskHistogram})
	if err != nil {
		return err
	}

	victim := eng
	var crash, reopen, query float64
	var replayRate []float64
	var st *core.LoadStats
	for k := 0; k < recoverRepeats; k++ {
		r.attempted++
		runtime.GC() // as in the analytics loop: no earlier garbage in the timed recovery
		root := r.tr.root("op3_s")
		start := time.Now()
		d, _ := r.tr.timed(root, "colstore.Engine.Crash", func() error { victim.Crash(); return nil })
		crash += d.Seconds()
		victim = colstore.New(dir, walOptions(nil)...)
		d, err := r.tr.timed(root, "colstore.Engine.OpenExisting", func() error {
			var err error
			st, err = victim.OpenExisting()
			return err
		})
		if err != nil {
			r.tr.end(root)
			return fmt.Errorf("reopen after crash: %w", err)
		}
		reopen += d.Seconds()
		// Readings beyond the base segment came from the log.
		replayRate = append(replayRate, float64(st.Readings-st.RawBytes/8)/d.Seconds())
		var got *core.Results
		d, err = r.tr.timed(root, "exec.RunSnapshot(histogram)", func() error {
			var err error
			got, _, err = exec.RunSnapshot(context.Background(), victim, core.Spec{Task: core.TaskHistogram, Workers: 1})
			return err
		})
		query += d.Seconds()
		if err == nil {
			err = sameResults(got, ref)
		}
		wall := time.Since(start)
		r.tr.end(root)
		if err != nil {
			r.fail("recovered histogram: %v", err)
			continue
		}
		r.add("op3_s", wall.Seconds())
	}
	defer victim.Crash() // closes the last reopen's files; nothing is left to keep
	r.layer["colstore.reopen_s"] = reopen / recoverRepeats
	r.layer["wal.replay_readings_per_s"] = median(replayRate)
	r.add("stored_per_raw", ratio(float64(st.StorageBytes), float64(st.RawBytes)))
	r.breakdowns = append(r.breakdowns, newBreakdown("op3_s", "recover_s (all recoveries)", sum(r.samples["op3_s"]), []bdRow{
		{"colstore crash", crash},
		{"colstore reopen + wal replay", reopen},
		{"exec snapshot histogram", query},
	}))

	r.attempted++
	if err := holdsReadings(victim, ds, acked); err != nil {
		r.fail("after recovery: %v", err)
	}
	return nil
}

// holdsReadings checks that the recovered engine stores every acked
// reading of every household, bit for bit.
func holdsReadings(eng *colstore.Engine, ds *timeseries.Dataset, acked []int) error {
	cur, _, err := eng.Snapshot()
	if err != nil {
		return err
	}
	defer cur.Close()
	for i, s := range ds.Series {
		got, err := cur.Next()
		if err != nil {
			return fmt.Errorf("household %d: %w", s.ID, err)
		}
		if got.ID != s.ID || len(got.Readings) < acked[i] {
			return fmt.Errorf("household %d: got %d with %d hours, %d acked", s.ID, got.ID, len(got.Readings), acked[i])
		}
		for h := 0; h < acked[i]; h++ {
			if math.Float64bits(got.Readings[h]) != math.Float64bits(s.Readings[h]) {
				return fmt.Errorf("household %d hour %d differs", s.ID, h)
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
