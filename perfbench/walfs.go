package main

import (
	"os"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/wal"
)

// countingFS wraps the write-ahead log's filesystem and counts what the
// log does to it. Files opened for appending are the live shard logs,
// whose writes and fsyncs are the append path's cost; everything else,
// such as the rewrites a checkpoint creates, passes through. Every
// checkpoint rewrites every shard, so the rename count of the most
// renamed shard is the checkpoint count.
type countingFS struct {
	wal.FS
	segPath string // segment file, sized at each checkpoint

	mu           sync.Mutex
	logWrites    int64
	logBytes     int64
	logWriteTime time.Duration
	logSyncs     []time.Duration
	renames      map[string]int
	checkpoints  int
	segBytes     int64 // Σ segment size after each checkpoint
}

func newCountingFS(segPath string) *countingFS {
	return &countingFS{FS: wal.OSFS, segPath: segPath, renames: map[string]int{}}
}

func (c *countingFS) OpenAppend(path string) (wal.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &logFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldPath, newPath string) error {
	if err := c.FS.Rename(oldPath, newPath); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.renames[newPath]++
	if n := c.renames[newPath]; n > c.checkpoints {
		// First shard of a new checkpoint: the segment rename has
		// already happened, so the file holds the new base.
		c.checkpoints = n
		if st, err := os.Stat(c.segPath); err == nil {
			c.segBytes += st.Size()
		}
	}
	return nil
}

// walCounts is a snapshot of the counters.
type walCounts struct {
	logWrites, logBytes int64
	logWriteTime        time.Duration
	logSyncs            []time.Duration
	checkpoints         int
	segBytes            int64
}

func (c *countingFS) counts() walCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return walCounts{
		logWrites: c.logWrites, logBytes: c.logBytes, logWriteTime: c.logWriteTime,
		logSyncs:    append([]time.Duration(nil), c.logSyncs...),
		checkpoints: c.checkpoints, segBytes: c.segBytes,
	}
}

// logFile is a live shard log: its writes and fsyncs are the append
// path's cost.
type logFile struct {
	wal.File
	fs *countingFS
}

func (f *logFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.logWrites++
	f.fs.logBytes += int64(n)
	f.fs.logWriteTime += d
	f.fs.mu.Unlock()
	return n, err
}

func (f *logFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.logSyncs = append(f.fs.logSyncs, d)
	f.fs.mu.Unlock()
	return err
}
