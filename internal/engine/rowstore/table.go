package rowstore

import (
	"fmt"
	"math"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Layout selects the physical schema (paper Figure 9).
type Layout int

const (
	// LayoutRows stores one reading per tuple:
	// (household, hour, temperature, consumption) — the paper's Table 1.
	LayoutRows Layout = iota
	// LayoutArrays stores one row per consumer with consumption and
	// temperature arrays — the paper's Table 2. Arrays larger than a
	// page are chunked across tuples (a TOAST-like scheme), keyed by
	// (household, chunk).
	LayoutArrays
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutRows:
		return "row-per-reading"
	case LayoutArrays:
		return "array-per-consumer"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// rowTupleSize is the encoded size of a LayoutRows tuple.
const rowTupleSize = 8 + 4 + 8 + 8

// chunkHours is the number of hours per LayoutArrays chunk; each chunk
// carries both consumption and temperature, so the tuple stays within a
// page: 16 + 480*16 = 7696 bytes.
const chunkHours = 480

// encodeRowTuple encodes one reading row.
func encodeRowTuple(buf []byte, id timeseries.ID, hour int, temp, cons float64) []byte {
	buf = buf[:0]
	var tmp [rowTupleSize]byte
	putU64(tmp[:], 0, uint64(id))
	putU32(tmp[:], 8, uint32(hour))
	putU64(tmp[:], 12, math.Float64bits(temp))
	putU64(tmp[:], 20, math.Float64bits(cons))
	return append(buf, tmp[:]...)
}

// decodeRowTuple decodes a reading row.
func decodeRowTuple(t []byte) (id timeseries.ID, hour int, temp, cons float64, err error) {
	if len(t) != rowTupleSize {
		return 0, 0, 0, 0, fmt.Errorf("rowstore: row tuple of %d bytes", len(t))
	}
	id = timeseries.ID(getU64(t, 0))
	hour = int(getU32(t, 8))
	temp = math.Float64frombits(getU64(t, 12))
	cons = math.Float64frombits(getU64(t, 20))
	return id, hour, temp, cons, nil
}

// encodeArrayChunk encodes one LayoutArrays chunk tuple:
// household(8) startHour(4) count(4) cons[count] temp[count].
func encodeArrayChunk(buf []byte, id timeseries.ID, startHour int, cons, temp []float64) ([]byte, error) {
	if len(cons) != len(temp) {
		return nil, fmt.Errorf("rowstore: chunk arrays differ: %d vs %d", len(cons), len(temp))
	}
	n := len(cons)
	size := 16 + n*16
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	putU64(buf, 0, uint64(id))
	putU32(buf, 8, uint32(startHour))
	putU32(buf, 12, uint32(n))
	for i := 0; i < n; i++ {
		putU64(buf, 16+i*8, math.Float64bits(cons[i]))
		putU64(buf, 16+(n+i)*8, math.Float64bits(temp[i]))
	}
	return buf, nil
}

// decodeArrayChunk decodes a chunk tuple into cons/temp at the encoded
// start hour. The slices are the series prefix being read and must
// have equal lengths; hours at or beyond that length are skipped, so a
// prefix may end inside the chunk. It allocates nothing.
func decodeArrayChunk(t []byte, cons, temp []float64) (timeseries.ID, error) {
	start, n, err := chunkBounds(t)
	if err != nil {
		return 0, err
	}
	if len(cons) != len(temp) {
		return 0, fmt.Errorf("rowstore: chunk targets differ: %d vs %d", len(cons), len(temp))
	}
	end := min(start+n, len(cons))
	for h := start; h < end; h++ {
		i := h - start
		cons[h] = math.Float64frombits(getU64(t, 16+i*8))
		temp[h] = math.Float64frombits(getU64(t, 16+(n+i)*8))
	}
	return timeseries.ID(getU64(t, 0)), nil
}

// table is a stored relation: a heap file plus a B+tree on the
// composite key.
type table struct {
	layout Layout
	heap   *heapFile
	index  *btree
	// seriesLen is the (uniform) number of readings per consumer.
	seriesLen int
	// consumers is the number of distinct households.
	consumers int
}

// insertSeries stores one consumer's data under the table's layout.
// Temperature is stored alongside consumption, as in both of the
// paper's schemas.
func (tb *table) insertSeries(s *timeseries.Series, temp *timeseries.Temperature) error {
	if s.ID <= 0 {
		return fmt.Errorf("rowstore: household id must be positive, got %d", s.ID)
	}
	if len(s.Readings) != len(temp.Values) {
		return fmt.Errorf("rowstore: consumer %d has %d readings but %d temperatures",
			s.ID, len(s.Readings), len(temp.Values))
	}
	if tb.seriesLen == 0 {
		tb.seriesLen = len(s.Readings)
	} else if tb.seriesLen != len(s.Readings) {
		return fmt.Errorf("rowstore: consumer %d length %d differs from table's %d",
			s.ID, len(s.Readings), tb.seriesLen)
	}
	switch tb.layout {
	case LayoutRows:
		var buf []byte
		for h, c := range s.Readings {
			buf = encodeRowTuple(buf, s.ID, h, temp.Values[h], c)
			tid, err := tb.heap.insert(buf)
			if err != nil {
				return err
			}
			if err := tb.index.insert(key{ID: uint64(s.ID), Seq: uint64(h)}, tid); err != nil {
				return err
			}
		}
	case LayoutArrays:
		if err := tb.insertChunks(s.ID, 0, 0, s.Readings, temp.Values); err != nil {
			return err
		}
	default:
		return fmt.Errorf("rowstore: unknown layout %v", tb.layout)
	}
	tb.consumers++
	return nil
}

// insertChunks stores a run of readings as array chunks starting at the
// given hour offset and chunk sequence number.
func (tb *table) insertChunks(id timeseries.ID, firstSeq uint64, hourOffset int, cons, temps []float64) error {
	var buf []byte
	seq := firstSeq
	for start := 0; start < len(cons); start += chunkHours {
		end := start + chunkHours
		if end > len(cons) {
			end = len(cons)
		}
		var err error
		buf, err = encodeArrayChunk(buf, id, hourOffset+start, cons[start:end], temps[start:end])
		if err != nil {
			return err
		}
		tid, err := tb.heap.insert(buf)
		if err != nil {
			return err
		}
		if err := tb.index.insert(key{ID: uint64(id), Seq: seq}, tid); err != nil {
			return err
		}
		seq++
	}
	return nil
}

// readSeries extracts one consumer via an index scan, decoding tuples
// one at a time (the per-row cost the paper attributes to the DBMS).
// It reads the published seriesLen prefix: live-appended tuples beyond
// it (see live.go) are invisible to the base view until a Checkpoint
// publishes a new length.
func (tb *table) readSeries(id timeseries.ID) (*timeseries.Series, *timeseries.Temperature, error) {
	cons, temp, err := tb.readSeriesInto(id, tb.seriesLen)
	if err != nil {
		return nil, nil, err
	}
	return &timeseries.Series{ID: id, Readings: cons}, &timeseries.Temperature{Values: temp}, nil
}

// readSeriesUpTo extracts the first n hours of one consumer — the
// cursors' truncating read: n is a length captured when the cursor
// opened, so tuples appended (or published) after it are skipped.
func (tb *table) readSeriesUpTo(id timeseries.ID, n int) (*timeseries.Series, error) {
	cons, _, err := tb.readSeriesInto(id, n)
	if err != nil {
		return nil, err
	}
	return &timeseries.Series{ID: id, Readings: cons}, nil
}

// readSeriesInto scans one household's index range, decoding tuples
// into n-hour consumption and temperature arrays. Tuples at or beyond
// hour n terminate the scan: the index orders a household's tuples by
// sequence, so everything after the first out-of-prefix tuple is also
// out of prefix. An array chunk straddling n contributes its first
// hours only: a published prefix is the shortest household's length,
// which can end inside a chunk a longer batch wrote for another one.
func (tb *table) readSeriesInto(id timeseries.ID, n int) ([]float64, []float64, error) {
	cons := make([]float64, n)
	temp := make([]float64, n)
	found := false
	lo := key{ID: uint64(id), Seq: 0}
	hi := key{ID: uint64(id) + 1, Seq: 0}
	err := tb.index.scanRange(lo, hi, func(k key, v TID) error {
		t, err := tb.heap.get(v)
		if err != nil {
			return err
		}
		found = true
		switch tb.layout {
		case LayoutRows:
			_, hour, tv, cv, err := decodeRowTuple(t)
			if err != nil {
				return err
			}
			if hour >= n {
				return errStopScan
			}
			cons[hour], temp[hour] = cv, tv
		case LayoutArrays:
			start, _, err := chunkBounds(t)
			if err != nil {
				return err
			}
			if start >= n {
				return errStopScan
			}
			_, err = decodeArrayChunk(t, cons, temp)
			return err
		}
		return nil
	})
	if err == errStopScan {
		err = nil
	}
	if err != nil {
		return nil, nil, err
	}
	if !found {
		return nil, nil, fmt.Errorf("rowstore: household %d not found", id)
	}
	return cons, temp, nil
}

// chunkBounds decodes the [start, start+count) hour range from a
// LayoutArrays chunk tuple header, checking that the tuple holds
// exactly count hours.
func chunkBounds(t []byte) (start, count int, err error) {
	if len(t) < 16 {
		return 0, 0, fmt.Errorf("rowstore: chunk tuple of %d bytes", len(t))
	}
	start, count = int(getU32(t, 8)), int(getU32(t, 12))
	if len(t) != 16+count*16 {
		return 0, 0, fmt.Errorf("rowstore: chunk tuple size %d, want %d", len(t), 16+count*16)
	}
	return start, count, nil
}

// distinctIDs returns every stored household ID in ascending order by
// hopping across the index (seek to (id+1, 0) after each hit).
func (tb *table) distinctIDs() ([]timeseries.ID, error) {
	var ids []timeseries.ID
	next := key{ID: 0, Seq: 0}
	for {
		var got *key
		err := tb.index.scanRange(next, key{ID: math.MaxUint64, Seq: math.MaxUint64},
			func(k key, _ TID) error {
				got = &k
				return errStopScan
			})
		if err != nil && err != errStopScan {
			return nil, err
		}
		if got == nil {
			return ids, nil
		}
		ids = append(ids, timeseries.ID(got.ID))
		next = key{ID: got.ID + 1, Seq: 0}
	}
}

// errStopScan terminates a scan early; it never escapes this package's
// public API.
var errStopScan = fmt.Errorf("rowstore: stop scan")
