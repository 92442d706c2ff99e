package distsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func testCluster(t *testing.T, nodes, slots int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes:           nodes,
		SlotsPerNode:    slots,
		TransferLatency: time.Microsecond,
		BytesPerSecond:  1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, SlotsPerNode: 1, BytesPerSecond: 1},
		{Nodes: 1, SlotsPerNode: 0, BytesPerSecond: 1},
		{Nodes: 1, SlotsPerNode: 1, BytesPerSecond: 0},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 16 {
		t.Errorf("nodes = %d", c.Nodes())
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	c := testCluster(t, 4, 2)
	var count atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = Task{Fn: func(ctx *TaskCtx) error {
			count.Add(1)
			return nil
		}}
	}
	if err := c.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 50 {
		t.Errorf("ran %d tasks", count.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := testCluster(t, 2, 1)
	boom := errors.New("boom")
	tasks := []Task{
		{Fn: func(*TaskCtx) error { return nil }},
		{Fn: func(*TaskCtx) error { return boom }},
	}
	if err := c.Run(tasks); err != boom {
		t.Errorf("err = %v", err)
	}
	if err := c.Run(nil); err != nil {
		t.Errorf("empty run err = %v", err)
	}
}

// Tasks still queued for a slot when the context is cancelled never run:
// a cancelled job must not keep executing its backlog of task bodies.
func TestRunCtxSkipsQueuedTasksOnCancel(t *testing.T) {
	c := testCluster(t, 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int64
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = Task{Fn: func(*TaskCtx) error {
			if ran.Add(1) == 1 {
				close(started)
				<-release
			}
			return nil
		}}
	}
	errc := make(chan error, 1)
	go func() { errc <- c.RunCtx(ctx, tasks) }()
	<-started
	cancel()
	close(release)
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunCtx did not return after cancellation")
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("%d task bodies ran, want only the one running at cancellation", n)
	}
}

func TestSlotLimitEnforced(t *testing.T) {
	c := testCluster(t, 2, 3) // 6 slots total
	var running, peak atomic.Int64
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = Task{Fn: func(*TaskCtx) error {
			r := running.Add(1)
			for {
				p := peak.Load()
				if r <= p || peak.CompareAndSwap(p, r) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil
		}}
	}
	if err := c.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 6 {
		t.Errorf("peak concurrency %d exceeds 6 slots", peak.Load())
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	c := testCluster(t, 4, 4)
	var onPreferred atomic.Int64
	tasks := make([]Task, 20)
	for i := range tasks {
		want := i % 4
		tasks[i] = Task{
			PreferredNodes: []int{want},
			Fn: func(ctx *TaskCtx) error {
				if ctx.Node() == want {
					onPreferred.Add(1)
				}
				return nil
			},
		}
	}
	if err := c.Run(tasks); err != nil {
		t.Fatal(err)
	}
	// With ample slots every task should land on its preferred node.
	if onPreferred.Load() != 20 {
		t.Errorf("only %d/20 tasks were data-local", onPreferred.Load())
	}
}

func TestTransferAccounting(t *testing.T) {
	c := testCluster(t, 3, 1)
	c.Transfer(0, 1, 1000)
	c.Transfer(1, 1, 9999) // local: free
	c.Transfer(2, 0, 500)
	s := c.Stats()
	if s.BytesMoved != 1500 || s.Transfers != 2 {
		t.Errorf("stats = %+v", s)
	}
	c.ResetStats()
	if s := c.Stats(); s.BytesMoved != 0 || s.Transfers != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestTransferTakesTime(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, SlotsPerNode: 1,
		TransferLatency: 0,
		BytesPerSecond:  1 << 20, // 1 MiB/s
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Transfer(0, 1, 1<<18) // 256 KiB at 1 MiB/s = 250ms
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Errorf("transfer took %v, want >= 200ms", d)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := testCluster(t, 2, 1)
	err := c.Run([]Task{{
		PreferredNodes: []int{0},
		Fn: func(ctx *TaskCtx) error {
			ctx.Alloc(1000)
			ctx.Alloc(500)
			ctx.Free(200)
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.MemPeakPerNode[0] != 1500 {
		t.Errorf("peak = %d, want 1500", s.MemPeakPerNode[0])
	}
	if s.PeakMemory() != 1500 {
		t.Errorf("total peak = %d", s.PeakMemory())
	}
	// Task exit auto-frees the remainder; node usage returns to zero.
	if got := c.nodes[0].memUsed.Load(); got != 0 {
		t.Errorf("memUsed after task = %d", got)
	}
}

func TestAllocFreeNode(t *testing.T) {
	c := testCluster(t, 2, 1)
	c.AllocNode(1, 4096)
	if c.Stats().MemPeakPerNode[1] != 4096 {
		t.Error("AllocNode not recorded")
	}
	c.FreeNode(1, 4096)
	if c.nodes[1].memUsed.Load() != 0 {
		t.Error("FreeNode not applied")
	}
	// Out-of-range and non-positive are no-ops.
	c.AllocNode(-1, 100)
	c.AllocNode(5, 100)
	c.AllocNode(0, -5)
	c.FreeNode(9, 10)
}

func TestReadBlockLocality(t *testing.T) {
	c := testCluster(t, 3, 1)
	err := c.Run([]Task{{
		PreferredNodes: []int{0},
		Fn: func(ctx *TaskCtx) error {
			ctx.ReadBlock([]int{ctx.Node()}, 100)     // local
			ctx.ReadBlock([]int{ctx.Node() + 1}, 100) // remote
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.LocalReads != 1 || s.RemoteReads != 1 {
		t.Errorf("reads = %d local, %d remote", s.LocalReads, s.RemoteReads)
	}
}

func TestInjectedFailuresAreRetried(t *testing.T) {
	c := testCluster(t, 4, 2)
	c.InjectFailures(0.4, 20, 1)
	var count atomic.Int64
	tasks := make([]Task, 40)
	for i := range tasks {
		tasks[i] = Task{PreferredNodes: []int{i % 4}, Fn: func(*TaskCtx) error {
			count.Add(1)
			return nil
		}}
	}
	if err := c.Run(tasks); err != nil {
		t.Fatalf("tasks lost despite retries: %v", err)
	}
	if count.Load() != 40 {
		t.Errorf("ran %d tasks, want 40", count.Load())
	}
	if c.Stats().TaskRetries == 0 {
		t.Error("no retries recorded at 40% failure rate")
	}
}

func TestFailuresExhaustRetryBudget(t *testing.T) {
	c := testCluster(t, 2, 1)
	c.InjectFailures(1.0, 3, 2) // every attempt fails
	err := c.Run([]Task{{Fn: func(*TaskCtx) error { return nil }}})
	if !errors.Is(err, ErrTaskLost) {
		t.Errorf("err = %v, want ErrTaskLost", err)
	}
}

func TestPermanentErrorsNotRetried(t *testing.T) {
	c := testCluster(t, 2, 1)
	c.InjectFailures(0, 5, 3)
	var attempts atomic.Int64
	boom := errors.New("boom")
	err := c.Run([]Task{{Fn: func(*TaskCtx) error {
		attempts.Add(1)
		return boom
	}}})
	if err != boom {
		t.Errorf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Errorf("permanent error retried %d times", attempts.Load())
	}
}

func TestComputeChargesSimulatedTime(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, SlotsPerNode: 1, BytesPerSecond: 1 << 40,
		ComputeBytesPerSecond: 1 << 20, // 1 MiB/s
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.Run([]Task{{Fn: func(ctx *TaskCtx) error {
		ctx.Compute(1 << 18) // 256 KiB at 1 MiB/s = 250ms
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Errorf("compute took %v, want >= 200ms", d)
	}
	// Disabled rate is a no-op.
	off := testCluster(t, 1, 1)
	start = time.Now()
	off.Run([]Task{{Fn: func(ctx *TaskCtx) error { ctx.Compute(1 << 30); return nil }}})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("disabled compute slept %v", d)
	}
}
