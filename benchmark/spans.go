package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around calls into
// the simulator's exported functions. Times are host nanoseconds since the
// recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Unit     int    `json:"unit"` // -1: not part of a unit
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Spans nest by call
// order: begin makes the innermost open span the parent. A nil recorder
// records nothing, which is how the untraced pass runs.
type recorder struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

func (r *recorder) begin(name string, unit int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Workload: r.workload, Unit: unit, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic(fmt.Sprintf("benchmark: span %d ended out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = int64(time.Since(r.epoch))
}

// timed runs fn inside a span and returns its duration in seconds. It is
// the one place phase times come from, with or without a recorder.
func (r *recorder) timed(name string, unit int, fn func()) float64 {
	id := r.begin(name, unit)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d.Seconds()
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkSpans verifies the tree: every span closed, inside its parent, and
// with non-negative self time.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s: end before start", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %s lies outside its parent %d %s", s.ID, s.Name, p.ID, p.Name)
			}
		}
	}
	for i, t := range selfTimes(spans) {
		if t < 0 {
			return fmt.Errorf("span %d %s: negative self time %d ns", i, spans[i].Name, t)
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
